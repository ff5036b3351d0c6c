import json

import numpy as np
import pytest

from mvgcn.data import (
    MultiViewDataset,
    SplitSpec,
    load_dataset,
    load_split,
    make_split,
    make_synthetic,
    save_dataset,
    save_split,
    standardize_columns,
)
from mvgcn.errors import DataLoadError, ParameterError
from mvgcn.graphs import build_knn_graph

from dense_reference import dense_of


def toy_dataset(seed=0, m=12, num_views=2, classes=3):
    rng = np.random.default_rng(seed)
    views = [rng.normal(size=(m, 4)) for _ in range(num_views)]
    labels = np.arange(m) % classes
    return MultiViewDataset(views, labels, classes, "toy")


class TestLoadSave:
    def test_round_trip_is_exact(self, tmp_path):
        ds = toy_dataset()
        save_dataset(tmp_path / "toy", ds)
        back = load_dataset(tmp_path / "toy")
        assert back.num_views == 2
        assert back.classes == 3
        assert back.name == "toy"
        for X, Y in zip(ds.views, back.views):
            assert np.array_equal(X, Y)
        assert np.array_equal(ds.labels, back.labels)

    def test_well_formed_directory_without_meta(self, tmp_path):
        d = tmp_path / "plain"
        save_dataset(d, toy_dataset())
        (d / "meta.json").unlink()
        ds = load_dataset(d)
        assert ds.num_views == 2
        assert ds.classes == 3  # inferred from the label range

    def test_row_count_mismatch_names_the_file(self, tmp_path):
        d = tmp_path / "bad"
        save_dataset(d, toy_dataset())
        with open(d / "view_2.csv", "a", encoding="utf-8") as fh:
            fh.write("1.0,2.0,3.0,4.0\n")
        with pytest.raises(DataLoadError, match="view_2.csv"):
            load_dataset(d)

    def test_label_outside_declared_classes(self, tmp_path):
        d = tmp_path / "range"
        ds = toy_dataset()
        save_dataset(d, ds)
        (d / "meta.json").write_text(json.dumps({"classes": 2}))
        with pytest.raises(DataLoadError, match="labels"):
            load_dataset(d)

    def test_ragged_row_names_the_line(self, tmp_path):
        d = tmp_path / "ragged"
        save_dataset(d, toy_dataset())
        lines = (d / "view_1.csv").read_text().splitlines()
        lines[2] = "1.0,2.0"
        (d / "view_1.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataLoadError, match="line 3"):
            load_dataset(d)

    def test_non_numeric_cell_names_the_line(self, tmp_path):
        d = tmp_path / "words"
        save_dataset(d, toy_dataset())
        lines = (d / "view_1.csv").read_text().splitlines()
        lines[4] = lines[4].replace(lines[4].split(",")[0], "abc", 1)
        (d / "view_1.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataLoadError, match="line 5"):
            load_dataset(d)

    def test_fractional_label_rejected(self, tmp_path):
        d = tmp_path / "frac"
        save_dataset(d, toy_dataset())
        (d / "labels.csv").write_text("0\n1.5\n2\n")
        with pytest.raises(DataLoadError, match="line 2"):
            load_dataset(d)

    def test_missing_pieces(self, tmp_path):
        with pytest.raises(DataLoadError):
            load_dataset(tmp_path / "nowhere")
        d = tmp_path / "empty"
        d.mkdir()
        with pytest.raises(DataLoadError, match="view_1"):
            load_dataset(d)
        save_dataset(d, toy_dataset())
        (d / "labels.csv").unlink()
        with pytest.raises(DataLoadError, match="labels"):
            load_dataset(d)


class TestMakeSplit:
    def test_deterministic_for_fixed_seed(self):
        ds = toy_dataset(m=10, classes=2)
        spec = SplitSpec(ratio=0.5, seed=11)
        a = make_split(ds, spec)
        b = make_split(ds, spec)
        assert np.array_equal(a, b)

    def test_ten_percent_of_544_samples(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 5, size=544)
        ds = MultiViewDataset([rng.normal(size=(544, 3))], labels, 5)
        omega = make_split(ds, SplitSpec(ratio=0.10, seed=2))
        assert len(omega) in (54, 55)
        assert len(np.unique(labels[omega])) == 5

    def test_per_class_counts_proportional_within_one(self):
        rng = np.random.default_rng(3)
        labels = np.repeat([0, 1, 2], [60, 30, 10])
        ds = MultiViewDataset([rng.normal(size=(100, 2))], labels, 3)
        omega = make_split(ds, SplitSpec(ratio=0.2, seed=4))
        for c, count in enumerate([60, 30, 10]):
            got = int(np.sum(labels[omega] == c))
            assert abs(got - 0.2 * count) <= 1

    def test_every_class_present_even_at_tight_ratio(self):
        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(4), 25)
        ds = MultiViewDataset([rng.normal(size=(100, 2))], labels, 4)
        omega = make_split(ds, SplitSpec(ratio=0.05, seed=6))
        assert set(labels[omega]) == {0, 1, 2, 3}

    def test_ratio_below_class_count_rejected(self):
        ds = toy_dataset(m=20, classes=3)
        with pytest.raises(ParameterError):
            make_split(ds, SplitSpec(ratio=0.05, seed=0))

    def test_unstratified_ignores_classes(self):
        ds = toy_dataset(m=40, classes=4)
        omega = make_split(ds, SplitSpec(ratio=0.25, seed=7, stratified=False))
        assert len(omega) == 10

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.1, 2.0])
    def test_ratio_out_of_bounds(self, ratio):
        with pytest.raises(ParameterError):
            make_split(toy_dataset(), SplitSpec(ratio=ratio, seed=0))

    def test_split_file_round_trip(self, tmp_path):
        ds = toy_dataset(m=30, classes=3)
        spec = SplitSpec(ratio=0.2, seed=9)
        omega = make_split(ds, spec)
        path = tmp_path / "split.json"
        save_split(path, omega, spec)
        loaded, loaded_spec = load_split(path)
        assert np.array_equal(loaded, omega)
        assert loaded_spec == spec

    def test_split_file_missing_field(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"indices": [1, 2]}))
        with pytest.raises(DataLoadError):
            load_split(path)


def nearest_neighbor_accuracy(X, labels):
    dist = np.linalg.norm(X[:, None] - X[None, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    nearest = np.argmin(dist, axis=1)
    return float(np.mean(labels[nearest] == labels))


class TestMakeSynthetic:
    def test_clean_noise_free_views_are_nearest_neighbor_separable(self):
        ds = make_synthetic(
            m=60, num_views=2, classes=3, noise=0.0, seed=0,
            boundary_fraction=0.0, clump_fraction=0.0,
        )
        for X in ds.views:
            assert nearest_neighbor_accuracy(X, ds.labels) == 1.0

    def test_default_contamination_is_present_but_bounded(self):
        # boundary drifters and the mixed clump should cost a little 1-NN
        # accuracy, not destroy the class structure
        ds = make_synthetic(m=60, num_views=2, classes=3, noise=0.0, seed=0)
        accs = [nearest_neighbor_accuracy(X, ds.labels) for X in ds.views]
        assert all(a >= 0.85 for a in accs)
        assert any(a < 1.0 for a in accs)

    def test_seed_controls_identity(self):
        a = make_synthetic(m=30, num_views=2, classes=2, noise=0.3, seed=5)
        b = make_synthetic(m=30, num_views=2, classes=2, noise=0.3, seed=5)
        c = make_synthetic(m=30, num_views=2, classes=2, noise=0.3, seed=6)
        for X, Y in zip(a.views, b.views):
            assert np.array_equal(X, Y)
        assert np.array_equal(a.labels, b.labels)
        assert not all(
            np.array_equal(X, Y) for X, Y in zip(a.views, c.views)
        )

    def test_acceptance_scale_graphs_are_mostly_intra_class(self):
        ds = make_synthetic(m=200, num_views=3, classes=4, noise=0.5, seed=7)
        for X in ds.views:
            A = dense_of(build_knn_graph(standardize_columns(X), k=10))
            i_idx, j_idx = np.nonzero(np.triu(A, 1))
            same = np.mean(ds.labels[i_idx] == ds.labels[j_idx])
            assert same >= 0.70

    def test_class_counts_balanced_within_one(self):
        ds = make_synthetic(m=62, num_views=1, classes=4, noise=0.1, seed=8)
        counts = np.bincount(ds.labels, minlength=4)
        assert counts.max() - counts.min() <= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=3, num_views=1, classes=2),
            dict(m=20, num_views=0, classes=2),
            dict(m=20, num_views=1, classes=1),
            dict(m=20, num_views=1, classes=2, noise=-1.0),
            dict(m=20, num_views=1, classes=2, boundary_fraction=0.6),
            dict(m=20, num_views=1, classes=2, boundary_span=(0.5, 0.4)),
            dict(m=20, num_views=1, classes=2, boundary_span=(0.2, 1.0)),
            dict(m=20, num_views=1, classes=2, clump_fraction=-0.1),
            dict(m=20, num_views=1, classes=2, clump_spread=-1.0),
        ],
    )
    def test_invalid_sizes_rejected(self, kwargs):
        kwargs.setdefault("noise", 0.1)
        with pytest.raises(ParameterError):
            make_synthetic(seed=0, **kwargs)


class TestStandardize:
    def test_columns_become_zero_mean_unit_variance(self):
        rng = np.random.default_rng(10)
        X = rng.normal(loc=3.0, scale=5.0, size=(50, 4))
        Z = standardize_columns(X)
        assert Z.mean(axis=0) == pytest.approx(np.zeros(4), abs=1e-12)
        assert Z.std(axis=0) == pytest.approx(np.ones(4), abs=1e-12)

    def test_constant_column_maps_to_zeros(self):
        X = np.column_stack([np.full(10, 7.0), np.arange(10, dtype=float)])
        Z = standardize_columns(X)
        assert np.array_equal(Z[:, 0], np.zeros(10))
