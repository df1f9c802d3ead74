"""CSV loading, the benchmark registry, and synthetic pool generators."""

import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from albench.data import (
    DatasetSpec,
    build_dataset,
    load_csv,
    registry,
    registry_by_name,
    synthetic_pool,
)
from albench.engine import pool_zscores, standardize_features
from albench.errors import ConfigError, CsvParseError, EmptyDatasetError, SchemaError
from albench.types import Dataset, Goal

from conftest import make_pool, optimum_id, save_csv


def write_csv(path, text):
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_three_rows_two_features(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(DatasetSpec(name="d", csv_path=p, target_column="y", goal=Goal.MAXIMIZE))
        assert len(ds) == 3
        assert ds.feature_names == ["a", "b"]
        assert ds.feature_matrix.tolist() == [[1.0, 2.0], [4.0, 5.0], [7.0, 8.0]]
        assert ds.targets.tolist() == [3.0, 6.0, 9.0]

    def test_missing_target_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b\n1,2\n")
        with pytest.raises(SchemaError):
            load_csv(DatasetSpec(name="d", csv_path=p, target_column="y", goal=Goal.MAXIMIZE))

    @pytest.mark.parametrize("header, target", [("a,a,y", "y"), ("a,y,y", "y"), (" a,a ,y", "y")],
                             ids=["feature", "target", "after-strip"])
    def test_repeated_column_is_schema_error(self, tmp_path, header, target):
        # the parent read the first 'a' for both features and lost column 2
        p = write_csv(tmp_path / "d.csv", f"{header}\n1,10,5\n2,20,6\n")
        with pytest.raises(SchemaError, match="repeats columns"):
            load_csv(DatasetSpec(name="d", csv_path=p, target_column=target, goal=Goal.MAXIMIZE))

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
        assert ds.feature_matrix[0].tolist() == [3.0, 1.0]

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
        assert ds2.feature_matrix.tolist() == ds.feature_matrix.tolist()
        assert ds2.targets.tolist() == ds.targets.tolist()


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
        xs = ds.feature_matrix[:, 0].tolist()
        best = max(range(10), key=lambda i: xs[i])
        assert optimum_id(ds) == best
        assert ds.optimum_value == xs[best]

    def test_quadratic2d_optimum_nearest_center(self):
        ds = synthetic_pool("quadratic2d", 50, seed=5)
        dists = (ds.feature_matrix**2).sum(axis=1)
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

    # Recorded before the three kinds shared one constructor: each pool's
    # digest covers its name, values, columns, goal and context, so a changed
    # draw order, formula or field shows here. quadratic2d at n=7 fills part
    # of a 3x3 grid; plateau_mix at n=4, seed 1 has no row on a top interval
    # and pins rows 0 and 3.
    DIGESTS = {
        ("quadratic2d", 4, 0): "993dc54ad64470164a163f13f9b12d1a272f522162f8adcb3c9bd382e80e8f5d",
        ("quadratic2d", 4, 1): "3d8e87316c9f30266ef3c5e451d4c18af91f36c2209eeea179bd16763032f1c1",
        ("quadratic2d", 7, 3): "56388e04b7b22cecfe414592dc3b3ab3b9d8471682a474873adece2a7dc3a64b",
        ("quadratic2d", 24, 9): "399a07b104b8a909aed6e2401e8f9b0d61eb30ee1e5bc8fb7ffddeba49814b43",
        ("quadratic2d", 101, 42): "a4a5d0c323b6c0ffb89127d7198bba33cc363d03539173fc03efe1d9a778331a",
        ("linear1d", 4, 0): "9d56f5ff61ce9e701ab39c41df4daec0640765d6e68e8299e399cdbfcf3d0135",
        ("linear1d", 7, 3): "68449b2f131d0db1fc906839704d523a0d1c9caf73bdb138e696ed85e9dc4928",
        ("linear1d", 24, 9): "4149507a9c30dd8cad5db9b276d4613904c564f8c2545aa5f15c0660fc10824c",
        ("linear1d", 101, 42): "03c16cd9c1c2852c35d7dc745972d8f7b896d4da09aaa8d35ad7d90c6dfe58f2",
        ("plateau_mix", 4, 0): "4a9137820030e298e8849c27b09fcd18c56fa97c941f23b89ba1a1f11094c3c9",
        ("plateau_mix", 4, 1): "8cabadf93af86963b36904781f1b4c84871e710feda40086dc77a8af0c8adeef",
        ("plateau_mix", 7, 3): "a128ccf73a23679f73408d11714614d4402c66a825e14c5551d7984db5d804fe",
        ("plateau_mix", 24, 9): "1ec5498ecae3e3296f1b8de5c5ce65d60171cf3fa71091c5f934ff5d6c5c3472",
        ("plateau_mix", 101, 42): "b655a672d48e306b31304be69e105ea59cf723b2e0292fa87d87360f73784e3f",
    }

    @pytest.mark.parametrize("kind, n, seed", sorted(DIGESTS))
    def test_digest_is_pinned(self, kind, n, seed):
        ds = synthetic_pool(kind, n, seed)
        assert ds.name == f"{kind}_n{n}_s{seed}" and len(ds) == n
        assert ds.digest() == self.DIGESTS[kind, n, seed]

    def test_plateau_n4_seed1_takes_the_pin_path(self):
        ds = synthetic_pool("plateau_mix", 4, seed=1)
        x = ds.feature_matrix[:, 0]
        on_top = ((x >= 0.15) & (x < 0.3)) | ((x >= 0.7) & (x < 0.85))
        assert not on_top.any()
        assert ds.targets.tolist() == [1.0, 0.5, 0.5, 1.0]

    def test_n_too_small(self):
        with pytest.raises(ConfigError):
            synthetic_pool("linear1d", 3, seed=0)

    def test_parse_string(self):
        ds = build_dataset("synthetic:quadratic2d:16:2")[0]
        assert len(ds) == 16
        with pytest.raises(ConfigError):
            build_dataset("synthetic:nope")
        with pytest.raises(ConfigError):
            build_dataset("synthetic:linear1d:xx")

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
        scale, z, _ = pool_zscores(ds)
        assert not z.flags.writeable
        with pytest.raises(ValueError):
            z[0, 0] = 1.0
        assert not any(a.flags.writeable for a in (scale.mean, scale.safe_std, scale.degenerate))
        assert pool_zscores(ds)[1] is z

    def test_unpickled_pool_is_read_only_and_keeps_its_digest(self):
        ds = synthetic_pool("quadratic2d", 24, seed=9)
        digest, (_, z, _) = ds.digest(), pool_zscores(ds)
        copy = pickle.loads(pickle.dumps(ds))
        assert copy == ds and copy._digest == digest
        for arr in (copy.feature_matrix, copy.targets):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert copy._pool_z is None
        copy_z = pool_zscores(copy)[1]
        assert not copy_z.flags.writeable and copy_z.tobytes() == z.tobytes()

    def test_unpickled_pool_rebuilds_an_equal_column_major_copy(self):
        ds = synthetic_pool("quadratic2d", 24, seed=9)
        zt = pool_zscores(ds)[2]
        assert zt.flags.c_contiguous and not zt.flags.writeable
        assert zt.tobytes() == np.ascontiguousarray(pool_zscores(ds)[1].T).tobytes()
        assert pool_zscores(ds)[2] is zt
        copy = pickle.loads(pickle.dumps(ds))
        assert copy._pool_z is None
        copy_zt = pool_zscores(copy)[2]
        assert copy_zt.flags.c_contiguous and not copy_zt.flags.writeable
        assert copy_zt.shape == zt.shape and copy_zt.tobytes() == zt.tobytes()

    def test_cached_z_rows_equal_standardizing_those_rows(self, rng):
        features = rng.normal(size=(30, 3))
        features[:, 1] = 2.5  # a constant column takes the degenerate-std path
        pool = make_pool(targets=list(range(30)), features=[tuple(row) for row in features])
        _, z, _ = pool_zscores(pool)
        fm = pool.feature_matrix
        assert z.tobytes() == standardize_features(fm, fm).tobytes()
        ids = [29, 3, 3, 17]
        assert z[ids].tobytes() == standardize_features(fm, fm[ids]).tobytes()
        assert np.all(z[:, 1] == 0.0)


def dataset(features, targets, feature_names=("x",)):
    return Dataset(
        name="d", feature_matrix=features, targets=targets, feature_names=list(feature_names),
        target_name="y", goal=Goal.MAXIMIZE,
    )


class TestDatasetArrays:
    """Candidate i is row i of two read-only float64 arrays."""

    @pytest.mark.parametrize(
        "features, targets, message",
        [
            ([[0.0], [1.0], [2.0]], [1.0, float("nan"), 2.0], "candidate 1 has a non-finite target"),
            ([[0.0], [1.0], [float("inf")]], [1.0, 2.0, 3.0], "candidate 2 has a non-finite feature"),
            ([[0.0, 1.0], [1.0, 2.0]], [1.0, 2.0], r"need a \(2, 1\) feature matrix, got shape \(2, 2\)"),
            ([[0.0], [1.0]], [1.0, 2.0, 3.0], r"need a \(3, 1\) feature matrix"),
            (np.empty((0, 1)), [], "has no candidates"),
        ],
        ids=["nan-target", "infinite-feature", "wrong-width", "too-few-rows", "no-rows"],
    )
    def test_construction_errors(self, features, targets, message):
        with pytest.raises(ConfigError, match=message):
            dataset(features, targets)

    def test_arrays_are_read_only_copies(self):
        features, targets = np.array([[0.0], [1.0], [2.0]]), np.array([5.0, 6.0, 7.0])
        ds = dataset(features, targets)
        digest = ds.digest()
        features[0, 0], targets[0] = 9.0, 9.0
        assert ds.feature_matrix.tolist() == [[0.0], [1.0], [2.0]] and ds.targets.tolist() == [5.0, 6.0, 7.0]
        assert dataset(ds.feature_matrix, ds.targets).digest() == digest
        for arr in (ds.feature_matrix, ds.targets):
            assert arr.dtype == np.float64 and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    # recorded before pools became two arrays; run files name their pool by digest
    @pytest.mark.parametrize(
        "kind, n, seed, digest",
        [
            ("quadratic2d", 24, 9, "399a07b104b8a909aed6e2401e8f9b0d61eb30ee1e5bc8fb7ffddeba49814b43"),
            ("linear1d", 10, 0, "b6dbe62457314663c59f4b0aca362cf60d6eae3b93d700bdff1f4e0b50ddec82"),
            ("plateau_mix", 12, 3, "30c20d92696761682d89acbe088dcdcb353f35646b635e11b65f0f826aca6be5"),
        ],
    )
    def test_synthetic_digest_pins(self, kind, n, seed, digest):
        assert synthetic_pool(kind, n, seed).digest() == digest

    def test_csv_digest_pin(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b,y\n1,2,3\n0.5,-1e-3,2.25\n4,1e10,-7\n")
        ds = load_csv(DatasetSpec(name="small", csv_path=p, target_column="y", goal=Goal.MINIMIZE))
        assert ds.digest() == "c7f55f2740d9b865b6855f8a22f2e4eca60ae4ec9ad23a589a49b167ec999ad6"
