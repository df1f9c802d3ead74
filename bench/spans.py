"""Span recorder for the traced benchmark run.

The benchmark's own files wrap albench's public functions at the names
they are looked up under (``cli.run_active_learning``, not only
``engine.run_active_learning``), record one span per call and count work
at the same boundaries. Nothing here is imported by albench, and nothing
is patched outside a traced pass.

A span is ``[name, start_ns, end_ns, parent_index, step_id]``. Spans are
kept in memory for the pass and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._step = None
        self._steps = 0
        self._wrapped: set[str] = set()

    def wrap(self, name, fn, *, new_step=False, count=None):
        """Return `fn` wrapped in a span called `name`.

        new_step: the call opens an AL iteration, and every span under it
        shares its step id. count: (counter name, amount(args, kwargs,
        result)), added to that counter once the call returns. An
        exception counts as `<name>.errors` and propagates unchanged.
        A wrapped name and its counter read 0 until the wrapper is called.
        """
        self._wrapped.add(name)
        if count is not None:
            self.counts.setdefault(count[0], 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            outer_step = self._step
            if new_step:
                self._steps += 1
                self._step = self._steps
            span = [name, 0, 0, parent, self._step]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
                self._step = outer_step
            if count is not None:
                self.counts[count[0]] += count[1](args, kwargs, result)
            return result

        return wrapper

    def layer_totals(self) -> dict[str, float]:
        """Per span name: calls, inclusive seconds (`.s`) and self seconds
        (`.self_s`), plus every counter. Names wrapped but not called
        read 0."""
        totals: dict[str, float] = defaultdict(float)
        for name in self._wrapped:
            for suffix in (".s", ".self_s", ".calls"):
                totals[name + suffix] = 0.0
        for name, secs in zip((s[0] for s in self.spans), self_times(self.spans)):
            totals[name + ".self_s"] += secs
        for name, start, end, _, _ in self.spans:
            totals[name + ".s"] += (end - start) / 1e9
            totals[name + ".calls"] += 1
        totals.update(self.counts)
        return dict(totals)

    def dump(self, path, label: str) -> None:
        """Append this pass's spans to a JSON-lines file."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, step) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"pass": label, "id": i, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent, "step": step}
                    )
                    + "\n"
                )


def self_times(spans: list[list]) -> list[float]:
    """Seconds of each span minus the durations of its direct children.

    One tracer keeps one stack in one thread, so children are nested in
    their parent and follow one another without overlap.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return [ns / 1e9 for ns in own]


# --- what to patch ------------------------------------------------------------


def _nodes(args, kwargs, model):
    return sum(len(t.feature) for t in model.trees)


def _mc_passes(args, kwargs, result):
    return int(args[2] if len(args) > 2 else kwargs["mc_samples"])


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _prompt_bytes(args, kwargs, prompt):
    return len(prompt.encode("utf-8"))


NODES = {"count": ("forest_gbt.nodes", _nodes)}
MC_PASSES = {"count": ("bnn.mc_passes", _mc_passes)}
WRITTEN = {"count": ("engine.write_trajectory.bytes", _written_bytes)}
PROMPT = {"count": ("llm.render.bytes", _prompt_bytes)}


def patch_table() -> list[tuple[object, str, str, dict]]:
    """(owner, attribute, span name, wrap options) for every traced name.

    Each entry is a place the name is looked up at call time: the
    defining module and each module that imported it by name.
    """
    from albench import (
        acquisition, analytics, bnn, cli, clients, data, engine, forest_gbt, gpr, llm,
        proposers, types,
    )

    step = {"new_step": True}
    table = [
        (engine, "run_active_learning", "engine.run_active_learning", {}),
        (cli, "run_active_learning", "engine.run_active_learning", {}),
        (proposers.SurrogateProposer, "propose", "proposers.propose", step),
        (proposers.RandomWalkProposer, "propose", "proposers.propose", step),
        (llm.LLMProposer, "propose", "proposers.propose", step),
        (proposers, "ucb_select", "acquisition.ucb_select", {}),
        (acquisition, "ucb_select", "acquisition.ucb_select", {}),
        (gpr, "fit_gpr", "gpr.fit_gpr", {}),
        (gpr, "predict_gpr", "gpr.predict_gpr", {}),
        (gpr, "log_marginal_likelihood", "gpr.log_marginal_likelihood", {}),
        (forest_gbt, "fit_forest", "forest_gbt.fit_forest", NODES),
        (forest_gbt, "predict_forest", "forest_gbt.predict_forest", {}),
        (forest_gbt, "fit_gbt", "forest_gbt.fit_gbt", NODES),
        (forest_gbt, "predict_gbt", "forest_gbt.predict_gbt", {}),
        (bnn, "train_bnn", "bnn.train_bnn", {}),
        (bnn, "predict_bnn", "bnn.predict_bnn", MC_PASSES),
        (cli, "execute_run", "cli.execute_run", {}),
        (cli, "write_trajectory", "engine.write_trajectory", WRITTEN),
        (engine, "write_trajectory", "engine.write_trajectory", WRITTEN),
        (cli, "read_trajectory", "engine.read_trajectory", {}),
        (engine, "read_trajectory", "engine.read_trajectory", {}),
        (types.Dataset, "digest", "types.Dataset.digest", {}),
        (llm, "render_parameter_prompt", "llm.render", PROMPT),
        (llm, "render_report_prompt", "llm.render", PROMPT),
        (llm, "propose_next", "llm.propose_next", {}),
        (llm, "parse_proposal", "llm.parse_proposal", {}),
        (llm, "match_to_pool", "llm.match_to_pool", {}),
        (analytics, "summarize_trajectory", "analytics.summarize_trajectory", {}),
        (analytics, "pca_project", "analytics.pca_project", {}),
        (cli, "load_csv", "data.load_csv", {}),
        (data, "load_csv", "data.load_csv", {}),
    ]
    for owner in (engine, proposers, llm, analytics):
        table.append((owner, "standardize_features", "engine.standardize_features", {}))
    for attr in dir(analytics):
        if attr.startswith("export_"):
            table.append((analytics, attr, "analytics.export", {}))
    # the replay client is the only one the workloads reach
    table.append((clients.ScriptedChatClient, "send", "clients.send", {}))
    return table


class Patched:
    """Context manager: install the tracer's wrappers, restore on exit.

    A table entry whose attribute is gone raises, so a renamed or removed
    function fails the traced run instead of reading 0.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.table = patch_table()
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for owner, attr, name, options in self.table:
            original = vars(owner).get(attr)
            if original is None:
                self.__exit__()
                raise AttributeError(f"{owner.__name__}.{attr} is gone; update the patch table in spans.py")
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(name, original, **options))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False
