import numpy as np
import pytest

from mvgcn import autodiff as ad
from mvgcn.autodiff import Tape
from mvgcn.errors import ParameterError, ShapeError
from mvgcn.graph_learning import init_glm_params, refine_graph

import oracles


def symmetric_nonneg(rng, m):
    W = rng.uniform(size=(m, m))
    return np.triu(W, 1) + np.triu(W, 1).T + np.diag(rng.uniform(size=m))


class TestRefineGraph:
    def test_equal_factors_halve_the_graph(self):
        rng = np.random.default_rng(0)
        A = symmetric_nonneg(rng, 4)
        S = rng.normal(size=(4, 4))
        tape = Tape()
        out = refine_graph(tape.leaf(A), tape.leaf(S), tape.leaf(S), gamma=2.0)
        assert out.value == pytest.approx(0.5 * A, abs=1e-12)

    def test_zero_graph_stays_zero(self):
        rng = np.random.default_rng(1)
        tape = Tape()
        out = refine_graph(
            tape.leaf(np.zeros((3, 3))),
            tape.leaf(rng.normal(size=(3, 3))),
            tape.leaf(rng.normal(size=(3, 3))),
            gamma=1.0,
        )
        assert np.array_equal(out.value, np.zeros((3, 3)))

    def test_random_case_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        A = symmetric_nonneg(rng, 5)
        S1 = rng.normal(size=(5, 5))
        S2 = rng.normal(size=(5, 5))
        tape = Tape()
        out = refine_graph(tape.leaf(A), tape.leaf(S1), tape.leaf(S2), gamma=1.0)
        want = np.array(oracles.refine(A.tolist(), S1.tolist(), S2.tolist(), 1.0))
        assert out.value == pytest.approx(want, abs=1e-12)
        assert out.value == pytest.approx(out.value.T, abs=1e-12)

    def test_one_product_gives_an_exactly_symmetric_output(self):
        rng = np.random.default_rng(3)
        m = 37
        A = symmetric_nonneg(rng, m)
        S1, S2 = rng.normal(size=(m, m)), rng.normal(size=(m, m))
        tape = Tape()
        leaves = [tape.leaf(x) for x in (A, S1, S2)]
        start = len(tape.nodes)
        out = refine_graph(*leaves, gamma=1.0)
        assert tape.nodes[start:] == [out]
        assert out.op == "refine" and out.parents == tuple(leaves)
        assert np.array_equal(out.value, out.value.T)

    def test_shape_mismatch_rejected(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            refine_graph(
                tape.leaf(np.zeros((3, 3))),
                tape.leaf(np.zeros((4, 4))),
                tape.leaf(np.zeros((3, 3))),
                gamma=1.0,
            )

    def test_nonpositive_gamma_rejected(self):
        tape = Tape()
        z = tape.leaf(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            refine_graph(z, z, z, gamma=0.0)


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
        tape = Tape()
        out = refine_graph(tape.leaf(A), tape.leaf(S1), tape.leaf(S2), gamma=1.0)
        mask = np.divide(out.value, A, out=np.zeros_like(A), where=A != 0)
        nz = A != 0
        assert np.all(mask[nz] > 0.0) and np.all(mask[nz] < 1.0)
        # same sparsity pattern: shrinkage never zeroes an edge
        assert np.array_equal(out.value != 0, nz)

    @pytest.mark.parametrize("seed", range(3))
    def test_diagonal_shrinks_by_exactly_half(self, seed):
        rng = np.random.default_rng(10 + seed)
        A = symmetric_nonneg(rng, 5)
        tape = Tape()
        out = refine_graph(
            tape.leaf(A),
            tape.leaf(rng.normal(size=(5, 5))),
            tape.leaf(rng.normal(size=(5, 5))),
            gamma=0.7,
        )
        assert np.diag(out.value) == pytest.approx(0.5 * np.diag(A), abs=1e-12)

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

        def build(tape, leaves):
            out = refine_graph(tape.leaf(A), leaves[0], leaves[1], gamma=1.0)
            return ad.sum_all(ad.mul_const(out, probe))

        assert ad.finite_difference_check(build, [S1, S2]) <= 1e-4


def primitive_chain(fused, S1, S2, gamma):
    """Refinement built from generic tape ops, as a reference for the op."""
    P = ad.matmul(S1, ad.transpose(S2))
    score = ad.sub(P, ad.transpose(P))
    mask = ad.sigmoid(ad.scalar_mul(ad.absval(score), gamma))
    return ad.mul(fused, mask)


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
    def test_value_and_gradients_match_the_primitive_chain(self, seed):
        rng = np.random.default_rng(40 + seed)
        m = int(rng.integers(4, 9))
        gamma = float(rng.choice([0.5, 1.0, 2.5]))
        A, S1, S2 = smooth_instance(rng, m)
        R = rng.normal(size=(m, m))
        results = []
        for refine in (refine_graph, primitive_chain):
            tape = Tape()
            leaves = [tape.leaf(x) for x in (A, S1, S2)]
            out = refine(*leaves, gamma)
            tape.backward(ad.sum_all(ad.mul_const(out, R)))
            results.append([out.value] + [leaf.grad for leaf in leaves])
        for got, want in zip(*results):
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_of_all_parents_match_finite_differences(self, seed):
        rng = np.random.default_rng(50 + seed)
        m = int(rng.integers(3, 6))
        gamma = float(rng.choice([0.5, 1.0, 2.5]))
        A, S1, S2 = smooth_instance(rng, m)
        R = rng.normal(size=(m, m))

        def build(tape, leaves):
            return ad.sum_all(ad.mul_const(refine_graph(*leaves, gamma), R))

        assert ad.finite_difference_check(build, [A, S1, S2], step=1e-6) <= 1e-6

    def test_backward_keeps_its_saved_arrays_intact(self):
        # a second sweep over the same tape reuses the saved mask and score
        rng = np.random.default_rng(60)
        A, S1, S2 = smooth_instance(rng, 5)
        tape = Tape()
        leaves = [tape.leaf(x) for x in (A, S1, S2)]
        loss = ad.sum_all(refine_graph(*leaves, 1.0))
        first = [g.copy() for g in tape.backward(loss).values()]
        second = list(tape.backward(loss).values())
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


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
