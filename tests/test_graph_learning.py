import numpy as np
import pytest

from mvgcn import autodiff as ad
from mvgcn import graphs
from mvgcn.autodiff import Tape
from mvgcn.errors import ParameterError, ShapeError, TrainingError
from mvgcn.graph_learning import init_glm_params, refine_graph
from mvgcn.model import ModelState, adam_step

import dense_reference
import oracles
from dense_reference import on_support
from gradcheck import finite_difference_check


def symmetric_nonneg(rng, m):
    W = rng.uniform(size=(m, m))
    return np.triu(W, 1) + np.triu(W, 1).T + np.diag(rng.uniform(size=m))


def refined_matrix(A, S1, S2, gamma):
    """refine_graph on the support of A, as an m x m array."""
    support, F = on_support(A)
    tape = Tape()
    out = refine_graph(tape.leaf(F), tape.leaf(S1), tape.leaf(S2), gamma, support)
    return support.densify(out.value)


class TestRefineGraph:
    def test_equal_factors_halve_the_graph(self):
        rng = np.random.default_rng(0)
        A = symmetric_nonneg(rng, 4)
        S = rng.normal(size=(4, 4))
        out = refined_matrix(A, S, S, gamma=2.0)
        assert out == pytest.approx(0.5 * A, abs=1e-12)

    def test_zero_graph_stays_zero(self):
        rng = np.random.default_rng(1)
        out = refined_matrix(
            np.zeros((3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), gamma=1.0
        )
        assert np.array_equal(out, np.zeros((3, 3)))

    def test_random_case_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        A = symmetric_nonneg(rng, 5)
        S1 = rng.normal(size=(5, 5))
        S2 = rng.normal(size=(5, 5))
        out = refined_matrix(A, S1, S2, gamma=1.0)
        want = np.array(oracles.refine(A.tolist(), S1.tolist(), S2.tolist(), 1.0))
        assert out == pytest.approx(want, abs=1e-12)
        assert out == pytest.approx(out.T, abs=1e-12)

    def test_one_product_gives_an_exactly_symmetric_output(self):
        rng = np.random.default_rng(3)
        m = 37
        A = symmetric_nonneg(rng, m)
        S1, S2 = rng.normal(size=(m, m)), rng.normal(size=(m, m))
        support, F = on_support(A)
        tape = Tape()
        leaves = [tape.leaf(x) for x in (F, S1, S2)]
        start = len(tape.nodes)
        out = refine_graph(*leaves, gamma=1.0, support=support)
        assert tape.nodes[start:] == [out]
        assert out.op == "refine" and out.parents == tuple(leaves)
        assert out.value.shape == (1, support.nnz)
        assert np.array_equal(out.value[0], out.value[0, support.twin])

    def test_shape_mismatch_rejected(self):
        support, F = on_support(np.ones((3, 3)))
        tape = Tape()
        with pytest.raises(ShapeError):
            refine_graph(
                tape.leaf(F),
                tape.leaf(np.zeros((4, 4))),
                tape.leaf(np.zeros((3, 3))),
                gamma=1.0,
                support=support,
            )
        with pytest.raises(ShapeError):
            refine_graph(
                tape.leaf(np.ones((3, 3))),
                tape.leaf(np.zeros((3, 3))),
                tape.leaf(np.zeros((3, 3))),
                gamma=1.0,
                support=support,
            )

    def test_nonpositive_gamma_rejected(self):
        support, F = on_support(np.ones((2, 2)))
        tape = Tape()
        z = tape.leaf(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            refine_graph(tape.leaf(F), z, z, gamma=0.0, support=support)


class TestRefineProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_score_antisymmetric_and_mask_open_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        m = 6
        S1 = rng.normal(size=(m, m))
        S2 = rng.normal(size=(m, m))
        M = S1 @ S2.T - S2 @ S1.T
        assert M == pytest.approx(-M.T, abs=1e-12)
        assert np.diag(M) == pytest.approx(np.zeros(m), abs=1e-12)

        A = symmetric_nonneg(rng, m)
        out = refined_matrix(A, S1, S2, gamma=1.0)
        mask = np.divide(out, A, out=np.zeros_like(A), where=A != 0)
        nz = A != 0
        assert np.all(mask[nz] > 0.0) and np.all(mask[nz] < 1.0)
        # same sparsity pattern: shrinkage never zeroes an edge
        assert np.array_equal(out != 0, nz)

    @pytest.mark.parametrize("seed", range(3))
    def test_diagonal_shrinks_by_exactly_half(self, seed):
        rng = np.random.default_rng(10 + seed)
        A = symmetric_nonneg(rng, 5)
        out = refined_matrix(A, rng.normal(size=(5, 5)), rng.normal(size=(5, 5)), gamma=0.7)
        assert np.diag(out) == pytest.approx(0.5 * np.diag(A), abs=1e-12)

    def test_gradients_match_finite_differences_away_from_kink(self):
        rng = np.random.default_rng(20)
        m = 4
        A = symmetric_nonneg(rng, m)
        probe = rng.normal(size=(m, m))
        # keep |S1 S2^T - S2 S1^T| off-diagonal entries well away from 0
        while True:
            S1 = rng.normal(size=(m, m))
            S2 = rng.normal(size=(m, m))
            M = S1 @ S2.T - S2 @ S1.T
            off = M[~np.eye(m, dtype=bool)]
            if np.min(np.abs(off)) >= 1e-3:
                break

        support, F = on_support(A)

        def build(tape, leaves):
            out = refine_graph(tape.leaf(F), leaves[0], leaves[1], gamma=1.0, support=support)
            return ad.masked_sum(out, support.gather(probe))

        assert finite_difference_check(build, [S1, S2]) <= 1e-4


def smooth_instance(rng, m):
    """Full-support fused graph and factors whose off-diagonal scores keep
    clear of the kink of |.|; the diagonal score is exactly zero whatever
    the perturbation, so it is no kink to a finite-difference probe."""
    while True:
        S1 = rng.normal(size=(m, m))
        S2 = rng.normal(size=(m, m))
        M = S1 @ S2.T - S2 @ S1.T
        if np.min(np.abs(M[~np.eye(m, dtype=bool)])) >= 1e-3:
            return rng.uniform(0.2, 1.5, size=(m, m)), S1, S2


class TestRefineOp:
    """Refinement is one tape node with a hand-derived backward rule."""

    @pytest.mark.parametrize("seed", range(3))
    def test_value_and_gradients_match_the_scalar_loop_oracle(self, seed):
        rng = np.random.default_rng(40 + seed)
        m = int(rng.integers(4, 9))
        gamma = float(rng.choice([0.5, 1.0, 2.5]))
        A, S1, S2 = smooth_instance(rng, m)
        R = rng.normal(size=(m, m))
        support, F = on_support(A)
        assert support.nnz == m * m
        tape = Tape()
        leaves = [tape.leaf(x) for x in (F, S1, S2)]
        out = refine_graph(*leaves, gamma, support)
        tape.backward(ad.masked_sum(out, support.gather(R)))
        got = [support.densify(out.value)] + [support.densify(leaves[0].grad)]
        got += [leaf.grad for leaf in leaves[1:]]
        lists = [x.tolist() for x in (A, S1, S2)]
        want = [oracles.refine(*lists, gamma)]
        want += oracles.refine_gradients(*lists, gamma, R.tolist())
        for g, w in zip(got, want):
            assert np.max(np.abs(g - np.array(w))) <= 1e-12

    def test_scalar_loop_oracle_gradients_match_its_own_finite_differences(self):
        # the oracle's gradients against central differences of oracles.refine,
        # so the reference above is checked without the op
        rng = np.random.default_rng(47)
        m, gamma, h = 4, 1.5, 1e-6
        A, S1, S2 = smooth_instance(rng, m)
        R = rng.normal(size=(m, m))
        inputs = [x.tolist() for x in (A, S1, S2)]

        def loss(args):
            out = oracles.refine(*args, gamma)
            return sum(R[i, j] * out[i][j] for i in range(m) for j in range(m))

        grads = oracles.refine_gradients(*inputs, gamma, R.tolist())
        for which, grad in enumerate(grads):
            for i in range(m):
                for j in range(m):
                    bumped = [[row[:] for row in x] for x in inputs]
                    bumped[which][i][j] += h
                    up = loss(bumped)
                    bumped[which][i][j] -= 2 * h
                    slope = (up - loss(bumped)) / (2 * h)
                    assert grad[i][j] == pytest.approx(slope, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_of_all_parents_match_finite_differences(self, seed):
        rng = np.random.default_rng(50 + seed)
        m = int(rng.integers(3, 6))
        gamma = float(rng.choice([0.5, 1.0, 2.5]))
        A, S1, S2 = smooth_instance(rng, m)
        support, F = on_support(A)
        R = support.gather(rng.normal(size=(m, m)))

        def build(tape, leaves):
            return ad.masked_sum(refine_graph(*leaves, gamma, support), R)

        assert finite_difference_check(build, [F, S1, S2], step=1e-6) <= 1e-6

    def test_backward_keeps_its_saved_arrays_intact(self):
        # a second sweep over the same tape reuses the saved mask and score
        rng = np.random.default_rng(60)
        A, S1, S2 = smooth_instance(rng, 5)
        support, F = on_support(A)
        tape = Tape()
        leaves = [tape.leaf(x) for x in (F, S1, S2)]
        loss = ad.sum_all(refine_graph(*leaves, 1.0, support))
        first = [g.copy() for g in tape.backward(loss).values()]
        second = list(tape.backward(loss).values())
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


def sparse_instance(rng, m, pair_density, asymmetric=False):
    """Fused graph on a random support (self-loops included) and factors
    clear of the kink. With ``asymmetric`` the two entries of a pair get
    different values, and about a third of the pairs keep one entry only."""
    upper = np.triu(rng.uniform(size=(m, m)) < pair_density, 1)
    pattern = upper | upper.T | np.eye(m, dtype=bool)
    values = rng.uniform(0.2, 1.5, size=(m, m))
    if asymmetric:
        pattern &= ~(upper & (rng.uniform(size=(m, m)) < 0.3))
    else:
        values = np.triu(values) + np.triu(values, 1).T
    _, S1, S2 = smooth_instance(rng, m)
    return np.where(pattern, values, 0.0), S1, S2


def support_of(F):
    nz = F != 0
    return nz | nz.T


# (seed, m, pair density, asymmetric values): support densities from 5% to 30%
SPARSE_CASES = [(70, 40, 0.04, False), (71, 40, 0.05, True), (72, 30, 0.2, True)]


def run_refine(F, S1, S2, gamma, G):
    """Edge values and gradients of refinement on the support of F, as
    m x m arrays (0 off the support)."""
    support, edges = on_support(F)
    tape = Tape()
    leaves = [tape.leaf(x) for x in (edges, S1, S2)]
    out = refine_graph(*leaves, gamma, support)
    tape.backward(ad.masked_sum(out, support.gather(G)))
    return [support.densify(out.value), support.densify(leaves[0].grad)] + [
        leaf.grad for leaf in leaves[1:]
    ]


def run_dense_reference(F, S1, S2, gamma, G):
    tape = Tape()
    leaves = [tape.leaf(x) for x in (F, S1, S2)]
    out = dense_reference.refine(*leaves, gamma)
    tape.backward(ad.masked_sum(out, G))
    return [out.value] + [leaf.grad for leaf in leaves]


class TestSupportLayout:
    """Refinement works on the edge support of ``fused``; on the support it
    must give what the m x m formulas of ``dense_reference`` give."""

    @staticmethod
    def case(seed, m, pair_density, asymmetric):
        rng = np.random.default_rng(seed)
        F, S1, S2 = sparse_instance(rng, m, pair_density, asymmetric)
        return F, S1, S2, float(rng.choice([0.5, 1.0, 2.5])), rng.normal(size=(m, m))

    def test_cases_cover_asymmetric_values_and_one_sided_pairs(self):
        densities = [np.mean(support_of(self.case(*c)[0])) for c in SPARSE_CASES]
        assert densities[0] < 0.1 and densities[2] > 0.1
        F = self.case(*SPARSE_CASES[1])[0]
        assert not np.array_equal(F, F.T) and not np.array_equal(F != 0, F.T != 0)

    @pytest.mark.parametrize("case", SPARSE_CASES)
    def test_edges_match_the_dense_reference(self, case):
        F, S1, S2, gamma, G = self.case(*case)
        (value, gF, g1, g2) = run_refine(F, S1, S2, gamma, G)
        (want, wantF, want1, want2) = run_dense_reference(F, S1, S2, gamma, G)
        support = support_of(F)
        assert value.tobytes() == want.tobytes()
        # the dense layout's gradient to fused off the support is g * mask,
        # which the edge layout does not form: the pattern is a constant
        assert gF[support].tobytes() == wantF[support].tobytes()
        assert np.all(wantF[~support] != 0.0)
        for got, ref in ((g1, want1), (g2, want2)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    # block_rows: the default blocks (one run and one block at these sizes),
    # or 7-row blocks, which make two runs of several blocks, each block
    # building the CSR of its own rows
    @pytest.mark.parametrize("block_rows", [None, 7])
    @pytest.mark.parametrize("case", SPARSE_CASES)
    def test_score_gradient_on_the_support_is_the_dense_one_bit_for_bit(
        self, case, block_rows, monkeypatch
    ):
        F, S1, S2, gamma, G = self.case(*case)
        m = F.shape[0]
        if block_rows is not None:
            monkeypatch.setattr(graphs, "_ROW_BLOCK_ENTRIES", block_rows * m)
        seen, csr_array = [], graphs.csr_array

        def spy(arg, shape):
            seen.append((arg, shape))
            return csr_array(arg, shape=shape)

        monkeypatch.setattr(graphs, "csr_array", spy)
        # both runs in the calling thread, so the spy sees them in run order
        # (``test_row_runs`` holds the bits to be the worker's too)
        monkeypatch.setattr(graphs, "_use_worker", lambda: False)
        run_refine(F, S1, S2, gamma, G)
        runs = graphs._row_runs(m, m)
        blocks = [rows for run in runs for rows in run]
        assert len(runs) == (1 if block_rows is None else 2)
        assert len(seen) == len(blocks)
        assert [shape for _, shape in seen] == [(rows.stop - rows.start, m) for rows in blocks]
        dP, cols, indptr = (np.concatenate(part) for part in zip(*(arg for arg, _ in seen)))
        rows = np.repeat(np.arange(m), np.concatenate([np.diff(p) for (_, _, p), _ in seen]))
        # the op takes P a run of rows at a time, which may round otherwise
        # than the whole product (``test_row_runs``); the rule after it is
        # held to the dense formula on the same P
        P = np.concatenate([S1[graphs._span(run)] @ S2.T for run in runs])
        score = P - P.T
        mask = 1.0 / (1.0 + np.exp(-(np.abs(score) * gamma)))
        D = G * F * mask * (1.0 - mask) * gamma * np.sign(score)
        want = D - D.T
        assert np.array_equal(np.nonzero(support_of(F)), (rows, cols))
        assert dP.tobytes() == want[rows, cols].tobytes()

    @pytest.mark.parametrize("case", SPARSE_CASES[:2])
    def test_gradients_match_finite_differences(self, case):
        # fused's gradient is taken on its support, which a perturbation of
        # an edge value leaves as it is
        F, S1, S2, gamma, G = self.case(*case)
        support, edges = on_support(F)
        G = support.gather(G)

        def build(tape, leaves):
            return ad.masked_sum(refine_graph(*leaves, gamma, support), G)

        assert finite_difference_check(build, [edges, S1, S2], step=1e-6) <= 1e-6

    @pytest.mark.parametrize("case", SPARSE_CASES[:2])
    def test_nan_upstream_gradient_on_the_support_stops_training(self, case):
        F, S1, S2, gamma, G = self.case(*case)
        support, edges = on_support(F)
        G = support.gather(G)
        e = int(np.flatnonzero(support.rows != support.cols)[0])
        G[0, e] = np.nan
        tape = Tape()
        names = ("fused", "S1", "S2")
        leaves = [tape.leaf(x) for x in (edges, S1, S2)]
        grads = tape.backward(ad.masked_sum(refine_graph(*leaves, gamma, support), G))
        assert not np.isfinite(grads[leaves[1]][support.rows[e]]).any()
        params = dict(zip(names, (edges.copy(), S1.copy(), S2.copy())))
        zeros = {name: np.zeros_like(p) for name, p in params.items()}
        state = ModelState(params, zeros, {n: z.copy() for n, z in zeros.items()})
        with pytest.raises(TrainingError, match="non-finite gradient"):
            adam_step(state, {n: grads[leaf] for n, leaf in zip(names, leaves)}, 0.1)


class TestInit:
    def test_bounds_scale_with_node_count(self):
        rng = np.random.default_rng(30)
        S1, S2 = init_glm_params(16, rng)
        assert S1.shape == (16, 16) and S2.shape == (16, 16)
        for S in (S1, S2):
            assert np.all(np.abs(S) <= 0.25)
        assert not np.array_equal(S1, S2)

    def test_bad_size_rejected(self):
        with pytest.raises(ParameterError):
            init_glm_params(0, np.random.default_rng(0))
