"""The benchmark's traced names still exist in the package.

`bench/spans.py` wraps albench functions at every name they are looked up
under (`cli.execute_run`, `cli.load_csv`, `llm.match_to_pool`, ...). A
renamed or deleted name raises when its wrapper is installed, so this test
installs and removes the whole patch table, and a traced benchmark run is
not the first place such a rename shows.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    yield spans
    sys.modules.pop("spans", None)


def test_patch_table_installs_and_restores(spans):
    table = spans.patch_table()
    originals = [vars(owner)[attr] for owner, attr, _, _ in table]
    with spans.Patched(spans.Tracer()) as tracer:
        for (owner, attr, _, _), original in zip(table, originals):
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr} is not wrapped"
    assert [vars(owner)[attr] for owner, attr, _, _ in table] == originals
    assert tracer.spans == []


def test_a_missing_name_fails_the_install(spans, monkeypatch):
    from albench import cli

    monkeypatch.delattr(cli, "execute_run")
    table = spans.patch_table()
    originals = [vars(owner).get(attr) for owner, attr, _, _ in table]
    with pytest.raises(AttributeError, match="execute_run"):
        spans.Patched(spans.Tracer()).__enter__()
    # the wrappers installed before the missing name are taken off again
    assert [vars(owner).get(attr) for owner, attr, _, _ in table] == originals
