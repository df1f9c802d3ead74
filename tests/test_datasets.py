"""CSV loading, the benchmark registry, and synthetic pool generators."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from albench.data import (
    DatasetSpec,
    load_csv,
    parse_synthetic_string,
    registry,
    registry_by_name,
    save_csv,
    synthetic_pool,
)
from albench.engine import pool_zscores, standardize_features
from albench.errors import ConfigError, CsvParseError, EmptyDatasetError, SchemaError, UnknownCandidateError
from albench.types import Candidate, Dataset, Goal

from conftest import make_pool, optimum_id


def write_csv(path, text):
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_three_rows_two_features(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(DatasetSpec(name="d", csv_path=p, target_column="y", goal=Goal.MAXIMIZE))
        assert len(ds) == 3
        assert ds.feature_names == ["a", "b"]
        assert ds.candidates[1].features == (4.0, 5.0)
        assert ds.candidates[2].target == 9.0
        assert [c.id for c in ds.candidates] == [0, 1, 2]

    def test_missing_target_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b\n1,2\n")
        with pytest.raises(SchemaError):
            load_csv(DatasetSpec(name="d", csv_path=p, target_column="y", goal=Goal.MAXIMIZE))

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,2\nfoo,3\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(DatasetSpec(name="d", csv_path=p, target_column="y", goal=Goal.MAXIMIZE))
        assert "row 2" in str(err.value)
        assert "'a'" in str(err.value)

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "")
        with pytest.raises(EmptyDatasetError):
            load_csv(DatasetSpec(name="d", csv_path=p, target_column="y", goal=Goal.MAXIMIZE))

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n")
        with pytest.raises(EmptyDatasetError):
            load_csv(DatasetSpec(name="d", csv_path=p, target_column="y", goal=Goal.MAXIMIZE))

    def test_explicit_feature_columns(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b,c,y\n1,2,3,4\n5,6,7,8\n")
        spec = DatasetSpec(
            name="d", csv_path=p, target_column="y", goal=Goal.MINIMIZE, feature_columns=("c", "a")
        )
        ds = load_csv(spec)
        assert ds.feature_names == ["c", "a"]
        assert ds.candidates[0].features == (3.0, 1.0)

    def test_perovskite_shaped_file(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = "\n".join(f"{a},{b},{c}" for a, b, c in rng.normal(size=(139, 3)))
        p = write_csv(tmp_path / "perov.csv", "cs,fa,instability_index\n" + rows + "\n")
        spec = DatasetSpec(
            name="perovskite",
            csv_path=p,
            target_column="instability_index",
            goal=Goal.MINIMIZE,
            expected_rows=139,
        )
        ds = load_csv(spec)
        assert len(ds) == 139
        assert ds.goal is Goal.MINIMIZE

    def test_expected_rows_mismatch(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,y\n1,2\n")
        spec = DatasetSpec(
            name="d", csv_path=p, target_column="y", goal=Goal.MAXIMIZE, expected_rows=5
        )
        with pytest.raises(SchemaError):
            load_csv(spec)

    def test_round_trip_full_precision(self, tmp_path, rng):
        values = rng.normal(size=(7, 3))
        rows = "\n".join(",".join(repr(float(v)) for v in row) for row in values)
        p = write_csv(tmp_path / "d.csv", "a,b,y\n" + rows + "\n")
        spec = DatasetSpec(name="d", csv_path=p, target_column="y", goal=Goal.MAXIMIZE)
        ds = load_csv(spec)
        out = tmp_path / "out.csv"
        save_csv(ds, out)
        ds2 = load_csv(
            DatasetSpec(name="d", csv_path=str(out), target_column="y", goal=Goal.MAXIMIZE)
        )
        for c1, c2 in zip(ds.candidates, ds2.candidates):
            assert c1.features == c2.features
            assert c1.target == c2.target


class TestRegistry:
    def test_length_and_names(self):
        specs = registry()
        assert len(specs) == 4
        assert [s.name for s in specs] == ["matbench_steels", "p3ht_cnt", "perovskite", "membrane"]

    def test_goals(self):
        specs = {s.name: s for s in registry()}
        assert specs["matbench_steels"].goal is Goal.MAXIMIZE
        assert specs["p3ht_cnt"].goal is Goal.MAXIMIZE
        assert specs["perovskite"].goal is Goal.MINIMIZE
        assert specs["membrane"].goal is Goal.MAXIMIZE

    def test_expected_sizes(self):
        sizes = {s.name: s.expected_rows for s in registry()}
        assert sizes == {
            "matbench_steels": 312,
            "p3ht_cnt": 323,
            "perovskite": 139,
            "membrane": 73,
        }

    def test_contexts_present(self):
        assert all(s.context for s in registry())

    def test_lookup(self):
        assert registry_by_name("membrane").expected_rows == 73
        with pytest.raises(ConfigError):
            registry_by_name("nope")

    def test_entry_without_csv_path_is_config_error(self):
        with pytest.raises(ConfigError, match="csv_path"):
            load_csv(DatasetSpec.from_dict({"registry": "membrane"}))


class TestSyntheticPools:
    def test_linear1d_optimum_is_largest_x(self):
        ds = synthetic_pool("linear1d", 10, seed=3)
        xs = [c.features[0] for c in ds.candidates]
        best = max(range(10), key=lambda i: xs[i])
        assert optimum_id(ds) == best
        assert ds.optimum_value == xs[best]

    def test_quadratic2d_optimum_nearest_center(self):
        ds = synthetic_pool("quadratic2d", 50, seed=5)
        dists = [c.features[0] ** 2 + c.features[1] ** 2 for c in ds.candidates]
        assert optimum_id(ds) == int(np.argmin(dists))

    def test_quadratic_formula_at_origin(self):
        # a pool containing the exact center scores y=0 there, the maximum
        from conftest import make_pool

        pool = make_pool(
            targets=[-(x1**2 + x2**2) for x1, x2 in [(0.0, 0.0), (1.0, 0.5), (-0.5, 2.0)]],
            features=[(0.0, 0.0), (1.0, 0.5), (-0.5, 2.0)],
        )
        assert pool.optimum_value == 0.0
        assert optimum_id(pool) == 0

    def test_plateau_has_duplicate_maxima(self):
        ds = synthetic_pool("plateau_mix", 40, seed=1)
        top = ds.optimum_value
        assert int((ds.targets == top).sum()) >= 2

    def test_purity(self):
        for kind in ("quadratic2d", "linear1d", "plateau_mix"):
            a = synthetic_pool(kind, 24, seed=9)
            b = synthetic_pool(kind, 24, seed=9)
            assert a.digest() == b.digest()
            c = synthetic_pool(kind, 24, seed=10)
            assert c.digest() != a.digest()

    def test_n_too_small(self):
        with pytest.raises(ConfigError):
            synthetic_pool("linear1d", 3, seed=0)

    def test_parse_string(self):
        ds = parse_synthetic_string("synthetic:quadratic2d:16:2")
        assert len(ds) == 16
        with pytest.raises(ConfigError):
            parse_synthetic_string("synthetic:nope")
        with pytest.raises(ConfigError):
            parse_synthetic_string("synthetic:linear1d:xx")

    def test_plateau_run_stops_on_first_plateau_hit(self):
        from albench.engine import run_active_learning
        from albench.proposers import RandomWalkProposer
        from albench.types import ProposerKind, RunConfig

        ds = synthetic_pool("plateau_mix", 40, seed=1)
        for seed in range(5):
            cfg = RunConfig(ProposerKind.RANDOM_WALK, seed=seed)
            traj = run_active_learning(ds, cfg, RandomWalkProposer(seed))
            hits = [s.iteration for s in traj.steps if s.observed_value == ds.optimum_value]
            assert traj.reached_optimum_at == hits[0] == traj.steps[-1].iteration


class TestDatasetSpecSerialization:
    def test_json_round_trip(self):
        spec = DatasetSpec(
            name="bench",
            csv_path="/data/x.csv",
            target_column="y",
            goal=Goal.MINIMIZE,
            feature_columns=("b", "a"),
            context="two knobs",
            expected_rows=12,
        )
        assert DatasetSpec.from_dict(spec.to_dict()) == spec

    def test_default_feature_columns_round_trip(self):
        spec = DatasetSpec(name="d", csv_path="", target_column="y", goal=Goal.MAXIMIZE)
        assert DatasetSpec.from_dict(spec.to_dict()) == spec


class TestPoolCaches:
    """The digest and full-pool z-scores are computed once per Dataset."""

    def test_caches_stay_empty_until_first_use(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(DatasetSpec(name="d", csv_path=p, target_column="y", goal=Goal.MAXIMIZE))
        assert ds._digest is None and ds._pool_z is None
        ds.digest()
        pool_zscores(ds)
        assert ds._digest is not None and ds._pool_z is not None

    def test_repeated_digest_calls_agree_with_a_fresh_pool(self):
        ds = synthetic_pool("quadratic2d", 24, seed=9)
        first = ds.digest()
        assert ds.digest() == first
        assert synthetic_pool("quadratic2d", 24, seed=9).digest() == first

    def test_replace_does_not_carry_the_cached_digest(self):
        ds = synthetic_pool("linear1d", 12, seed=3)
        cached = ds.digest()
        renamed = replace(ds, name="x")
        assert renamed.digest() != cached
        assert replace(ds).digest() == cached

    def test_equality_compares_content(self):
        ds = synthetic_pool("linear1d", 12, seed=3)
        assert ds == synthetic_pool("linear1d", 12, seed=3)
        assert ds != replace(ds, name="x")

    def test_fields_cannot_be_reassigned(self):
        ds = synthetic_pool("linear1d", 12, seed=3)
        with pytest.raises(FrozenInstanceError):
            ds.name = "x"

    def test_cached_z_matrix_is_read_only(self):
        ds = synthetic_pool("quadratic2d", 24, seed=9)
        scale, z = pool_zscores(ds)
        assert not z.flags.writeable
        with pytest.raises(ValueError):
            z[0, 0] = 1.0
        assert not any(a.flags.writeable for a in (scale.mean, scale.safe_std, scale.degenerate))
        assert pool_zscores(ds)[1] is z

    def test_cached_z_rows_equal_standardizing_those_rows(self, rng):
        features = rng.normal(size=(30, 3))
        features[:, 1] = 2.5  # a constant column takes the degenerate-std path
        pool = make_pool(targets=list(range(30)), features=[tuple(row) for row in features])
        _, z = pool_zscores(pool)
        fm = pool.feature_matrix
        assert z.tobytes() == standardize_features(fm, fm).tobytes()
        ids = [29, 3, 3, 17]
        assert z[ids].tobytes() == standardize_features(fm, fm[ids]).tobytes()
        assert np.all(z[:, 1] == 0.0)


class TestPositionalIds:
    """Candidate ids are positions, so by_id and feature_matrix rows agree."""

    @staticmethod
    def candidates(ids):
        return [Candidate(id=i, features=(float(k),), target=float(k)) for k, i in enumerate(ids)]

    def dataset(self, ids):
        return Dataset(
            name="d", candidates=self.candidates(ids), feature_names=["x"], target_name="y", goal=Goal.MAXIMIZE
        )

    def test_permuted_ids_rejected(self):
        # by_id(0) would be the last row while feature_matrix[0] is the first
        with pytest.raises(ConfigError, match="position 0 has id 2"):
            self.dataset([2, 0, 1])

    def test_ids_offset_from_zero_rejected(self):
        with pytest.raises(ConfigError, match="position 0 has id 1"):
            self.dataset([1, 2, 3])

    def test_duplicate_id_rejected(self):
        with pytest.raises(ConfigError):
            self.dataset([0, 1, 1])

    @pytest.mark.parametrize("bad", [-1, 3, 10])
    def test_unknown_id_is_a_typed_error(self, bad):
        ds = self.dataset([0, 1, 2])
        with pytest.raises(UnknownCandidateError, match=f"no candidate id {bad}"):
            ds.by_id(bad)

    def test_by_id_is_the_feature_matrix_row(self):
        ds = synthetic_pool("quadratic2d", 24, seed=9)
        for i in range(len(ds)):
            assert ds.by_id(i).id == i
            assert ds.by_id(i).features == tuple(ds.feature_matrix[i])
