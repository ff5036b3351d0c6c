from dataclasses import replace

import numpy as np
import pytest

from mvgcn.config import RunConfig
from mvgcn.data import make_synthetic
from mvgcn.errors import ParameterError
from mvgcn.experiment import (
    ABLATION_GRID,
    feature_matrix,
    prepare_graphs,
    run_ablation,
    run_repeats,
    run_single,
    run_sweep,
)


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic(m=24, num_views=2, classes=2, noise=0.2, seed=3)


@pytest.fixture(scope="module")
def fast_cfg():
    return RunConfig(k=3, hidden_dim=8, epochs=5, label_ratio=0.25, repeats=2, seed=0)


class TestPreparation:
    def test_one_renormalized_graph_per_view(self, dataset, fast_cfg):
        graphs = prepare_graphs(dataset, fast_cfg.k, fast_cfg.metric)
        assert len(graphs) == len(dataset.views)
        for g in graphs:
            assert g.renormalized
            assert g.adjacency.shape == (24, 24)

    def test_feature_matrix_concatenates_standardized_views(self, dataset):
        H = feature_matrix(dataset)
        assert H.shape == (24, sum(X.shape[1] for X in dataset.views))
        assert np.allclose(H.mean(axis=0), 0.0, atol=1e-9)


class TestRunSingle:
    def test_same_seed_is_bitwise_identical(self, dataset, fast_cfg):
        a = run_single(dataset, fast_cfg, seed=1)
        b = run_single(dataset, fast_cfg, seed=1)
        assert np.array_equal(a.result.probabilities, b.result.probabilities)
        assert np.array_equal(a.labeled, b.labeled)

    def test_seed_changes_the_split(self, dataset, fast_cfg):
        a = run_single(dataset, fast_cfg, seed=1)
        b = run_single(dataset, fast_cfg, seed=2)
        assert not np.array_equal(a.labeled, b.labeled)

    def test_final_accuracies_come_from_history(self, dataset, fast_cfg):
        out = run_single(dataset, fast_cfg, seed=0)
        assert out.final_train_accuracy == out.result.history[-1][2]
        assert out.final_test_accuracy == out.result.history[-1][3]


class TestRunRepeats:
    def test_one_outcome_per_repeat_with_shifted_seeds(self, dataset, fast_cfg):
        metrics = run_repeats(dataset, fast_cfg)
        assert len(metrics.outcomes) == fast_cfg.repeats
        assert [o.seed for o in metrics.outcomes] == [0, 1]

    def test_mean_and_std_match_numpy(self, dataset, fast_cfg):
        metrics = run_repeats(dataset, fast_cfg)
        assert metrics.mean_accuracy == pytest.approx(np.mean(metrics.accuracies))
        assert metrics.std_accuracy == pytest.approx(np.std(metrics.accuracies))

    def test_summary_has_no_heavyweight_fields(self, dataset, fast_cfg):
        summary = run_repeats(dataset, fast_cfg).summary()
        assert set(summary) == {"mean_accuracy", "std_accuracy", "accuracies"}


class TestAblation:
    def test_four_variants_in_declared_order(self, dataset, fast_cfg):
        rows = run_ablation(dataset, fast_cfg)
        assert [r["variant"] for r in rows] == [name for name, _, _ in ABLATION_GRID]
        assert [(r["glm"], r["dns"]) for r in rows] == [
            (g, d) for _, g, d in ABLATION_GRID
        ]

    def test_full_variant_matches_plain_repeats(self, dataset, fast_cfg):
        rows = run_ablation(dataset, fast_cfg)
        direct = run_repeats(dataset, fast_cfg)
        full = next(r for r in rows if r["variant"] == "full")
        assert full["mean_accuracy"] == direct.mean_accuracy
        assert full["std_accuracy"] == direct.std_accuracy


class TestSweep:
    def test_values_are_cast_and_ordered(self, dataset, fast_cfg):
        rows = run_sweep(dataset, fast_cfg, "k", ["2", "3"])
        assert [r["value"] for r in rows] == [2, 3]
        for r in rows:
            assert 0.0 <= r["mean_accuracy"] <= 1.0

    def test_unknown_parameter_rejected(self, dataset, fast_cfg):
        with pytest.raises(ParameterError, match="sweep parameter"):
            run_sweep(dataset, fast_cfg, "momentum", [0.9])

    def test_empty_grid_rejected(self, dataset, fast_cfg):
        with pytest.raises(ParameterError, match="at least one"):
            run_sweep(dataset, fast_cfg, "tau", [])

    def test_parallel_equals_serial(self, dataset, fast_cfg):
        serial = run_sweep(dataset, fast_cfg, "tau", [0.3, 0.7], jobs=1)
        parallel = run_sweep(dataset, fast_cfg, "tau", [0.3, 0.7], jobs=2)
        assert serial == parallel


class TestHardTopK:
    def test_hard_mode_trains(self, dataset, fast_cfg):
        cfg = replace(fast_cfg, dns_mode="hard-topk")
        out = run_single(dataset, cfg, seed=0)
        assert 0.0 <= out.final_test_accuracy <= 1.0
