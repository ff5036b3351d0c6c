"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line with the measured quantity and its
tolerance; run with ``pytest tests/test_acceptance.py -s`` to watch them
stream. Tolerances live next to their assertions.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from mvgcn.autodiff import Tape
from mvgcn.cli import write_json
from mvgcn.config import RunConfig, config_to_dict
from mvgcn.data import load_dataset, make_synthetic
from mvgcn.experiment import prepare_graphs, run_ablation, run_repeats, run_single
from mvgcn.fusion import edge_support, fuse_views
from mvgcn.graph_learning import refine_graph
from mvgcn.graphs import EdgeSupport, build_knn_graph, renormalize
from mvgcn.model import (
    forward,
    gcn_layer,
    init_model,
    masked_cross_entropy,
    one_hot,
)
from mvgcn.selection import (
    dcg_confidence,
    differentiable_node_selection,
    relaxed_permutation,
)

import oracles
from dense_reference import complementary_graphs
from gradcheck import finite_difference_check
from kinkfree import smoothness_margin


def report(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# shared expensive runs (module scoped so reruns stay honest but bounded)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def acceptance_dataset():
    return make_synthetic(m=200, num_views=3, classes=4, noise=0.5, seed=0)


@pytest.fixture(scope="module")
def default_cfg():
    return RunConfig()


@pytest.fixture(scope="module")
def full_run(acceptance_dataset, default_cfg):
    start = time.perf_counter()
    metrics = run_repeats(acceptance_dataset, default_cfg)
    return metrics, time.perf_counter() - start


@pytest.fixture(scope="module")
def ablation_rows(acceptance_dataset, default_cfg):
    return run_ablation(acceptance_dataset, default_cfg)


@pytest.fixture(scope="module")
def low_tau_run(acceptance_dataset, default_cfg):
    return run_repeats(acceptance_dataset, replace(default_cfg, tau=0.1))


# ---------------------------------------------------------------------------
# gradient fidelity
# ---------------------------------------------------------------------------


def tiny_instance(seed):
    """6 nodes, 2 views, 2 classes, 3 features per view."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(2), 3)
    centers = 3.0 * rng.normal(size=(2, 3))
    graphs, mats = [], []
    for _ in range(2):
        X = centers[labels] + 0.15 * rng.normal(size=(6, 3))
        mats.append(X)
        graphs.append(renormalize(build_knn_graph(X, 2)))
    return graphs, np.hstack(mats), labels


def test_gradient_fidelity():
    gamma, tau = 1.0, 0.5
    start = time.perf_counter()
    for seed in range(300):
        graphs, features, labels = tiny_instance(seed)
        rng = np.random.default_rng(1000 + seed)
        state = init_model(2, 6, features.shape[1], 3, 2, rng)
        state.params["raw_weights"][:] = 0.3 * rng.normal(size=(2, 2))
        state.params["S1"] *= 2.5
        state.params["S2"] *= 2.5
        state.params["raw_theta"][:] = -0.35
        if smoothness_margin(graphs, features, state, gamma, tau) >= 1e-3:
            break
    else:
        pytest.fail("no kink-free evaluation point found")

    names = list(state.params)
    Y = one_hot(labels, 2)
    omega = [0, 4]
    support = edge_support(graphs)

    def build(tape, leaves):
        by_name = dict(zip(names, leaves))
        fwd = forward(tape, by_name, support, features, gamma=gamma, tau=tau)
        return masked_cross_entropy(fwd.probabilities, Y, omega)

    err = finite_difference_check(build, [state.params[n] for n in names], step=1e-6)
    elapsed = time.perf_counter() - start
    report(
        "gradient fidelity",
        err <= 1e-4 and elapsed < 10.0,
        f"max relative error {err:.3e} (tol 1e-4) over {len(names)} parameters in {elapsed:.2f}s (limit 10s)",
    )


# ---------------------------------------------------------------------------
# permutation relaxation
# ---------------------------------------------------------------------------


def test_permutation_relaxation_suite():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst_row_sum = 0.0
    argmax_hits = 0
    trials = 100
    for _ in range(trials):
        m = int(rng.integers(2, 17))
        scores = rng.normal(size=m)
        while np.min(np.abs(np.subtract.outer(scores, scores)[~np.eye(m, dtype=bool)])) < 1e-9:
            scores = rng.normal(size=m)
        row = scores.reshape(1, -1)
        for tau in (1e-4, 0.5, 5.0):
            P = relaxed_permutation(row, tau)
            worst_row_sum = max(worst_row_sum, float(np.max(np.abs(P.sum(axis=1) - 1.0))))
        sharp = relaxed_permutation(row, 1e-4)
        if np.array_equal(np.argmax(sharp, axis=1), np.argsort(-scores)):
            argmax_hits += 1
    elapsed = time.perf_counter() - start
    report(
        "permutation relaxation",
        worst_row_sum <= 1e-9 and argmax_hits == trials and elapsed < 5.0,
        f"row-sum deviation {worst_row_sum:.2e} (tol 1e-9), argmax sort recovery "
        f"{argmax_hits}/{trials}, {elapsed:.2f}s (limit 5s)",
    )


# ---------------------------------------------------------------------------
# ranking-gain hand values and front-loading
# ---------------------------------------------------------------------------


def test_ranking_gain_hand_values_and_front_loading():
    conf = dcg_confidence(np.array([[1.0, 0.0], [0.0, 1.0]]))[0]
    front_err = abs(conf[0] - 1.0)
    back_err = abs(conf[1] - 1.0 / math.log2(3.0))
    uniform = dcg_confidence(np.full((2, 2), 0.5))[0]
    expected = (math.sqrt(2.0) - 1.0) * (1.0 + 1.0 / math.log2(3.0))
    uniform_err = float(np.max(np.abs(uniform - expected)))

    rng = np.random.default_rng(1)
    holds = 0
    trials = 1000
    for _ in range(trials):
        m = int(rng.integers(2, 17))
        row = rng.dirichlet(np.ones(m))
        i, j = sorted(rng.choice(m, size=2, replace=False))
        if row[i] > row[j]:
            row[[i, j]] = row[[j, i]]
        before = dcg_confidence(np.tile(row, (m, 1)))[0, 0]
        row[[i, j]] = row[[j, i]]
        after = dcg_confidence(np.tile(row, (m, 1)))[0, 0]
        if after >= before - 1e-15:
            holds += 1
    report(
        "ranking-gain values",
        max(front_err, back_err, uniform_err) <= 1e-12 and holds == trials,
        f"hand-value error {max(front_err, back_err, uniform_err):.2e} (tol 1e-12), "
        f"front-loading swaps {holds}/{trials}",
    )


# ---------------------------------------------------------------------------
# stage-oracle equivalence
# ---------------------------------------------------------------------------


def test_stage_oracle_equivalence():
    worst = 0.0

    def track(a, b):
        nonlocal worst
        worst = max(worst, float(np.max(np.abs(np.asarray(a) - np.asarray(b)))))

    for seed in range(5):
        rng = np.random.default_rng(seed)
        tape = Tape()

        points = [rng.normal(size=(6, 3)) for _ in range(2)]
        graphs = [renormalize(build_knn_graph(X, 2)) for X in points]
        raw = rng.normal(size=(2, 2))
        support = edge_support(graphs)
        fusion = fuse_views(support, tape.leaf(raw))
        oW, ocomp, oalpha, ofused = oracles.fusion_chain(
            [g.adjacency.tolist() for g in graphs], raw.tolist()
        )
        track(fusion.weights.value, oW)
        for got, ref in zip(complementary_graphs(graphs, fusion.weights), ocomp):
            track(got, ref)
        track(fusion.importance.value[0], oalpha)
        track(support.densify(fusion.fused.value), ofused)

        base = rng.random((6, 6))
        A_f = (base + base.T) / 2.0
        S1, S2 = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
        support = EdgeSupport.of([A_f])
        refined = refine_graph(
            tape.leaf(support.gather(A_f)), tape.leaf(S1), tape.leaf(S2), 1.3, support
        )
        track(
            support.densify(refined.value),
            oracles.refine(A_f.tolist(), S1.tolist(), S2.tolist(), 1.3),
        )

        sparse = A_f * (rng.random((6, 6)) > 0.3)
        A_hat = (sparse + sparse.T) / 2.0
        support = EdgeSupport.of([A_hat])
        sel = differentiable_node_selection(
            tape.leaf(support.gather(A_hat)), tape.leaf(np.array([[-0.2]])), 0.5, support
        )
        a_s = oracles.column_mean_nonzero(A_hat.tolist())
        P = oracles.neuralsort_matrix(a_s, 0.5)
        ibar = oracles.minmax_normalize(oracles.dcg_scores(P))
        C = oracles.confidence_coefficients(ibar)
        theta = 1.0 / (1.0 + math.exp(0.2))
        track(sel.scores[0], a_s)
        track(sel.permutation, P)
        track(sel.confidence[0], ibar)
        track(sel.coefficients, C)
        track(support.densify(sel.selected.value), oracles.select_edges(A_hat.tolist(), C, theta))

        A, H, W = rng.normal(size=(6, 6)), rng.normal(size=(6, 4)), rng.normal(size=(4, 3))
        support = EdgeSupport.of([A])
        for activation, oracle_activation in (("relu", "relu"), ("softmax-rows", "softmax")):
            out = gcn_layer(
                tape.leaf(support.gather(A)), tape.leaf(H), tape.leaf(W), support, activation
            )
            track(out.value, oracles.gcn_layer(A.tolist(), H.tolist(), W.tolist(), oracle_activation))

        Z = rng.random((6, 3)) + 0.1
        Z /= Z.sum(axis=1, keepdims=True)
        Y = one_hot(rng.integers(0, 3, size=6), 3)
        omega = [0, 2, 5]
        loss = masked_cross_entropy(tape.leaf(Z), Y, omega).value[0, 0]
        track(loss, oracles.masked_cross_entropy(Z.tolist(), Y.tolist(), omega))

    report(
        "stage-oracle equivalence",
        worst <= 1e-10,
        f"max absolute deviation {worst:.2e} over 5 random 6x6 instances (tol 1e-10)",
    )


# ---------------------------------------------------------------------------
# invariants across a training run
# ---------------------------------------------------------------------------


def test_symmetry_and_normalization_invariants_during_training():
    dataset = make_synthetic(m=40, num_views=2, classes=3, noise=0.3, seed=1)
    cfg = RunConfig(k=4, hidden_dim=16, epochs=50, label_ratio=0.2, repeats=1)
    graphs = prepare_graphs(dataset, cfg.k, cfg.metric)
    input_sym = max(float(np.max(np.abs(g.adjacency - g.adjacency.T))) for g in graphs)

    devs = {"sym": 0.0, "rows": 0.0, "alpha": 0.0, "z": 0.0, "calls": 0}

    def check(iteration, fwd, loss_value, state):
        for M in (
            fwd.support.densify(fwd.fusion.fused.value),
            fwd.support.densify(fwd.refined.value),
            fwd.selection.coefficients,
            fwd.support.densify(fwd.adjacency.value),
        ):
            devs["sym"] = max(devs["sym"], float(np.max(np.abs(M - M.T))))
        W = fwd.fusion.weights.value
        devs["rows"] = max(devs["rows"], float(np.max(np.abs(W.sum(axis=1) - 1.0))))
        devs["alpha"] = max(devs["alpha"], abs(float(fwd.fusion.importance.value.sum()) - 1.0))
        Z = fwd.probabilities.value
        devs["z"] = max(devs["z"], float(np.max(np.abs(Z.sum(axis=1) - 1.0))))
        devs["calls"] += 1

    run_single(dataset, cfg, seed=0, graphs=graphs, callback=check)
    ok = (
        devs["calls"] == 50
        and input_sym <= 1e-12
        and devs["sym"] <= 1e-12
        and devs["rows"] <= 1e-12
        and devs["alpha"] <= 1e-12
        and devs["z"] <= 1e-9
    )
    report(
        "training invariants",
        ok,
        f"checked {devs['calls']}/50 iterations: symmetry {max(input_sym, devs['sym']):.2e} "
        f"(tol 1e-12), weight rows {devs['rows']:.2e} and importance {devs['alpha']:.2e} "
        f"(tol 1e-12), probability rows {devs['z']:.2e} (tol 1e-9)",
    )


# ---------------------------------------------------------------------------
# behavioral runs on the standard synthetic instance
# ---------------------------------------------------------------------------


def test_synthetic_end_to_end(full_run):
    metrics, elapsed = full_run
    first_perfect = []
    for outcome in metrics.outcomes:
        hit = next((row[0] for row in outcome.result.history if row[2] >= 1.0), None)
        first_perfect.append(hit)
    converged = all(hit is not None and hit <= 200 for hit in first_perfect)
    ok = metrics.mean_accuracy >= 0.90 and converged and elapsed < 60.0
    report(
        "synthetic end-to-end",
        ok,
        f"mean accuracy {metrics.mean_accuracy:.4f} (floor 0.90), train hits 1.0 at "
        f"iterations {first_perfect} (limit 200), {elapsed:.1f}s (limit 60s)",
    )


def test_module_ablation_ordering(ablation_rows):
    acc = {row["variant"]: row["mean_accuracy"] for row in ablation_rows}
    chain = (
        acc["full"] >= acc["glm-only"] >= acc["dns-only"] >= acc["neither"]
    )
    gap = acc["full"] - acc["neither"]
    report(
        "module ablation ordering",
        chain and gap >= 0.01,
        f"full {acc['full']:.4f} >= refine-only {acc['glm-only']:.4f} >= "
        f"select-only {acc['dns-only']:.4f} >= neither {acc['neither']:.4f}, "
        f"full-neither gap {gap * 100:.2f} points (floor 1.00)",
    )


def test_temperature_sensitivity(full_run, low_tau_run):
    metrics, _ = full_run
    ok = metrics.mean_accuracy >= low_tau_run.mean_accuracy
    report(
        "temperature sensitivity",
        ok,
        f"tau=0.5 mean {metrics.mean_accuracy:.4f} >= tau=0.1 mean {low_tau_run.mean_accuracy:.4f}",
    )


@pytest.mark.skipif(
    "MGCN_BBCSPORT_DIR" not in os.environ,
    reason="optional: set MGCN_BBCSPORT_DIR to a directory with view_1.csv, view_2.csv, labels.csv",
)
def test_reference_dataset_soft_target():
    dataset = load_dataset(os.environ["MGCN_BBCSPORT_DIR"])
    cfg = RunConfig(metric="cosine")
    metrics = run_repeats(dataset, cfg)
    report(
        "reference dataset",
        metrics.mean_accuracy >= 0.90,
        f"mean accuracy {metrics.mean_accuracy:.4f} (floor 0.90) on {dataset.name}",
    )


def test_deterministic_metrics(
    acceptance_dataset, default_cfg, full_run, ablation_rows, low_tau_run, tmp_path
):
    def metrics_payload(metrics, cfg):
        payload = {"dataset": acceptance_dataset.name, "config": config_to_dict(cfg)}
        payload.update(metrics.summary())
        return payload

    low_cfg = replace(default_cfg, tau=0.1)
    first = {
        "end_to_end": metrics_payload(full_run[0], default_cfg),
        "ablation": {"config": config_to_dict(default_cfg), "rows": ablation_rows},
        "low_tau": metrics_payload(low_tau_run, low_cfg),
    }
    second = {
        "end_to_end": metrics_payload(run_repeats(acceptance_dataset, default_cfg), default_cfg),
        "ablation": {
            "config": config_to_dict(default_cfg),
            "rows": run_ablation(acceptance_dataset, default_cfg),
        },
        "low_tau": metrics_payload(run_repeats(acceptance_dataset, low_cfg), low_cfg),
    }
    identical = []
    for name in first:
        a, b = tmp_path / f"{name}_a.json", tmp_path / f"{name}_b.json"
        write_json(a, first[name])
        write_json(b, second[name])
        identical.append(a.read_bytes() == b.read_bytes())
    report(
        "determinism",
        all(identical),
        f"reruns byte-identical: {dict(zip(first, identical))}",
    )
