"""Tests for the tape-based reverse-mode differentiation core."""

import gc
import weakref
import zlib

import numpy as np
import pytest

from mvgcn import autodiff as ad
from mvgcn.errors import DomainError, ParameterError, ShapeError


def rand_away_from_kinks(rng, shape, low=0.1, high=2.0):
    """Random matrix with |x| >= low so ReLU/abs kinks are never straddled."""
    mag = rng.uniform(low, high, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return mag * sign


class TestForwardValues:
    def test_identity_matmul(self):
        tape = ad.Tape()
        m = tape.leaf(np.arange(9.0).reshape(3, 3))
        out = ad.matmul(tape.leaf(np.eye(3)), m)
        np.testing.assert_array_equal(out.value, m.value)

    def test_softmax_symmetry(self):
        tape = ad.Tape()
        out = ad.softmax_rows(tape.leaf([[0.0, 0.0]]))
        np.testing.assert_allclose(out.value, [[0.5, 0.5]], atol=1e-15)

    def test_hadamard_annihilator(self):
        tape = ad.Tape()
        m = tape.leaf(np.random.default_rng(0).normal(size=(3, 4)))
        out = ad.mul(m, tape.leaf(np.zeros((3, 4))))
        np.testing.assert_array_equal(out.value, np.zeros((3, 4)))

    def test_softmax_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(1)
        tape = ad.Tape()
        out = ad.softmax_rows(tape.leaf(rng.normal(scale=5.0, size=(6, 8))))
        assert np.all(out.value > 0)
        np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_no_overflow_at_large_magnitude(self):
        tape = ad.Tape()
        out = ad.softmax_rows(tape.leaf([[700.0, -700.0, 0.0]]))
        assert np.all(np.isfinite(out.value))
        np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-12)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        tape = ad.Tape()
        w = tape.leaf(np.random.default_rng(2).normal(size=(3, 5)))
        tape.backward(ad.sum_all(w))
        np.testing.assert_array_equal(w.grad, np.ones((3, 5)))

    def test_quadratic_gradient(self):
        tape = ad.Tape()
        w = tape.leaf(np.random.default_rng(3).normal(size=(4, 4)))
        tape.backward(ad.sum_all(ad.mul(w, w)))
        np.testing.assert_allclose(w.grad, 2.0 * w.value, rtol=1e-14)

    def test_unconsumed_node_gradient_is_zero(self):
        tape = ad.Tape()
        w = tape.leaf(np.ones((2, 2)))
        unused = tape.leaf(np.ones((2, 2)))
        tape.backward(ad.sum_all(w))
        np.testing.assert_array_equal(unused.grad, np.zeros((2, 2)))

    def test_unreached_intermediate_gets_zero_gradient(self):
        tape = ad.Tape()
        w = tape.leaf(np.ones((2, 2)))
        unused = tape.leaf(np.full((2, 2), 3.0))
        dangling = ad.sigmoid(ad.mul(unused, unused))
        tape.backward(ad.sum_all(w))
        np.testing.assert_array_equal(dangling.grad, np.zeros((2, 2)))
        np.testing.assert_array_equal(unused.grad, np.zeros((2, 2)))

    def test_shared_and_passed_through_gradients_stay_separate(self):
        # x feeds two consumers and add passes its gradient through unchanged,
        # so a first contribution kept by reference would alias s and x
        rng = np.random.default_rng(7)
        tape = ad.Tape()
        x = tape.leaf(rng.normal(size=(3, 4)))
        y = tape.leaf(rng.normal(size=(3, 4)))
        s = ad.add(x, y)
        t = ad.add(s, x)
        tape.backward(ad.sum_all(t))
        np.testing.assert_array_equal(x.grad, np.full((3, 4), 2.0))
        np.testing.assert_array_equal(y.grad, np.ones((3, 4)))
        np.testing.assert_array_equal(s.grad, np.ones((3, 4)))
        np.testing.assert_array_equal(t.grad, np.ones((3, 4)))
        grads = [x.grad, y.grad, s.grad, t.grad]
        for i, g in enumerate(grads):
            for h in grads[i + 1 :]:
                assert not np.shares_memory(g, h)

    def test_first_write_hands_over_owned_c_ordered_terms_only(self):
        tape = ad.Tape()
        owned, shared, view, later = (tape.leaf(np.zeros((3, 2))) for _ in range(4))
        fresh = np.ones((3, 2))
        ad._accumulate(owned, fresh, owned=True)
        assert owned.grad is fresh
        ad._accumulate(shared, fresh)
        assert not np.shares_memory(shared.grad, fresh)
        transposed = np.ones((2, 3)).T
        ad._accumulate(view, transposed, owned=True)
        assert view.grad.flags.c_contiguous
        assert not np.shares_memory(view.grad, transposed)
        ad._accumulate(later, np.full((3, 2), 2.0), owned=True)
        ad._accumulate(later, fresh, owned=True)
        np.testing.assert_array_equal(later.grad, np.full((3, 2), 3.0))
        assert not np.shares_memory(later.grad, fresh)

    def test_gradient_map_covers_leaves(self):
        tape = ad.Tape()
        w = tape.leaf(np.ones((2, 2)))
        grads = tape.backward(ad.sum_all(w))
        assert w in grads
        np.testing.assert_array_equal(grads[w], np.ones((2, 2)))

    def test_non_scalar_loss_rejected(self):
        tape = ad.Tape()
        w = tape.leaf(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            tape.backward(w)

    def test_release_frees_the_tape_without_the_cyclic_collector(self):
        gc.collect()
        gc.disable()
        try:
            tape = ad.Tape()
            a = tape.leaf(np.random.default_rng(5).normal(size=(4, 4)))
            s = ad.sigmoid(ad.mul(a, a))
            tape.backward(ad.sum_all(s))
            value = weakref.ref(s.value)
            tape.release()
            assert s.grad is None and tape.nodes == []
            del tape, a, s
            assert value() is None
        finally:
            gc.enable()

    def test_no_grad_tape_frees_intermediates_and_refuses_backward(self):
        x0 = np.random.default_rng(6).normal(size=(4, 4))
        ref = ad.Tape()
        expected = ad.sum_all(ad.sigmoid(ad.mul(ref.leaf(x0), ref.leaf(x0)))).value
        gc.collect()
        gc.disable()
        try:
            tape = ad.NoGradTape()
            a = tape.leaf(x0)
            mid = ad.mul(a, a)
            value = weakref.ref(mid.value)
            out = ad.sum_all(ad.sigmoid(mid))
            del mid
            assert value() is None
        finally:
            gc.enable()
        assert np.array_equal(out.value, expected)
        assert tape.nodes == []
        with pytest.raises(ValueError, match="NoGradTape"):
            tape.backward(out)

    def test_backward_is_deterministic(self):
        def run():
            rng = np.random.default_rng(4)
            tape = ad.Tape()
            a = tape.leaf(rng.normal(size=(5, 5)))
            b = tape.leaf(rng.normal(size=(5, 5)))
            loss = ad.sum_all(ad.softmax_rows(ad.matmul(a, ad.sigmoid(b))))
            tape.backward(loss)
            return a.grad.copy(), b.grad.copy()

        ga1, gb1 = run()
        ga2, gb2 = run()
        assert np.array_equal(ga1, ga2)
        assert np.array_equal(gb1, gb2)

    def test_composite_graph_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x0 = rand_away_from_kinks(rng, (4, 4))
        y0 = rand_away_from_kinks(rng, (4, 4))

        def build(tape, leaves):
            x, y = leaves
            z = ad.mul(ad.matmul(x, y), ad.sigmoid(x))
            z = ad.add(z, ad.absval(y))
            return ad.sum_all(ad.softmax_rows(z))

        err = ad.finite_difference_check(build, [x0, y0], step=1e-6)
        assert err <= 1e-6


WEIGHTED_MATS = list(np.linspace(-1, 1, 64).reshape(4, 4, 4))

PRIMITIVE_BUILDERS = {
    "matmul": lambda t, ls: ad.sum_all(ad.softmax_rows(ad.matmul(ls[0], ls[1]))),
    "transpose": lambda t, ls: ad.sum_all(ad.mul(ad.transpose(ls[0]), ls[1])),
    "add": lambda t, ls: ad.sum_all(ad.sigmoid(ad.add(ls[0], ls[1]))),
    "sub": lambda t, ls: ad.sum_all(ad.sigmoid(ad.sub(ls[0], ls[1]))),
    "mul": lambda t, ls: ad.sum_all(ad.sigmoid(ad.mul(ls[0], ls[1]))),
    "div": lambda t, ls: ad.sum_all(ad.sigmoid(ad.div(ls[0], ls[1]))),
    "scalar_mul": lambda t, ls: ad.sum_all(ad.exp(ad.scalar_mul(ls[0], 0.7))),
    "add_scalar": lambda t, ls: ad.sum_all(ad.exp(ad.add_scalar(ls[0], 0.3))),
    "mul_const": lambda t, ls: ad.sum_all(
        ad.sigmoid(ad.mul_const(ls[0], np.linspace(-1, 1, 16).reshape(4, 4)))
    ),
    "abs": lambda t, ls: ad.sum_all(ad.sigmoid(ad.absval(ls[0]))),
    "sigmoid": lambda t, ls: ad.sum_all(ad.mul(ad.sigmoid(ls[0]), ls[1])),
    "relu": lambda t, ls: ad.sum_all(ad.sigmoid(ad.relu(ls[0]))),
    "maximum": lambda t, ls: ad.sum_all(ad.sigmoid(ad.maximum(ls[0], 0.05))),
    "exp": lambda t, ls: ad.sum_all(ad.sigmoid(ad.exp(ls[0]))),
    "log": lambda t, ls: ad.sum_all(ad.sigmoid(ad.log(ad.absval(ls[0])))),
    "softmax_rows": lambda t, ls: ad.sum_all(ad.mul(ad.softmax_rows(ls[0]), ls[1])),
    "row_sum": lambda t, ls: ad.sum_all(ad.sigmoid(ad.row_sum(ls[0]))),
    "col_sum": lambda t, ls: ad.sum_all(ad.sigmoid(ad.col_sum(ls[0]))),
    "sum_all": lambda t, ls: ad.sigmoid(ad.sum_all(ls[0])),
    "max_all": lambda t, ls: ad.sigmoid(ad.mul(ad.max_all(ls[0]), ad.max_all(ls[1]))),
    "min_all": lambda t, ls: ad.sigmoid(ad.mul(ad.min_all(ls[0]), ad.min_all(ls[1]))),
    "masked_sum": lambda t, ls: ad.sigmoid(
        ad.masked_sum(ls[0], np.eye(4))
    ),
    "weighted_sum": lambda t, ls: ad.sum_all(
        ad.sigmoid(ad.mul(ad.weighted_sum(ad.col_sum(ls[0]), WEIGHTED_MATS), ls[1]))
    ),
    "scalar_broadcast_binary": lambda t, ls: ad.sum_all(
        ad.sigmoid(ad.div(ad.sub(ls[0], ad.max_all(ls[1])), ad.sum_all(ad.mul(ls[1], ls[1]))))
    ),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_BUILDERS))
def test_primitive_gradients_match_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x0 = rand_away_from_kinks(rng, (4, 4))
    y0 = rand_away_from_kinks(rng, (4, 4))
    err = ad.finite_difference_check(PRIMITIVE_BUILDERS[name], [x0, y0], step=1e-6)
    assert err <= 1e-6, f"{name}: max relative error {err}"


class TestFiniteDifferenceCheck:
    def test_quadratic_is_near_exact(self):
        x0 = np.random.default_rng(6).normal(size=(3, 3))
        err = ad.finite_difference_check(
            lambda t, ls: ad.sum_all(ad.mul(ls[0], ls[0])), [x0], step=1e-6
        )
        assert err <= 1e-9

    def test_discontinuity_is_flagged(self):
        # A step-like function: the analytic slope at 0 dwarfs the secant.
        def build(tape, leaves):
            return ad.sum_all(ad.sigmoid(ad.scalar_mul(leaves[0], 1e8)))

        err = ad.finite_difference_check(build, [np.zeros((1, 1))], step=1e-6)
        assert err > 1.0

    def test_invalid_step_rejected(self):
        with pytest.raises(ParameterError):
            ad.finite_difference_check(lambda t, ls: ad.sum_all(ls[0]), [np.ones((2, 2))], step=0.0)


class TestErrors:
    def test_shape_mismatch_names_both_shapes(self):
        tape = ad.Tape()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((4, 5)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.matmul(a, b)
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.add(a, b)
        c = tape.leaf(np.ones((1, 2)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.weighted_sum(c, [a.value, b.value])
        with pytest.raises(ShapeError, match=r"\(1, 2\).*3 matrices"):
            ad.weighted_sum(c, [a.value] * 3)

    def test_log_domain_error(self):
        tape = ad.Tape()
        with pytest.raises(DomainError):
            ad.log(tape.leaf([[1.0, 0.0]]))

    def test_div_by_zero_rejected(self):
        tape = ad.Tape()
        a = tape.leaf(np.ones((2, 2)))
        b = tape.leaf([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DomainError):
            ad.div(a, b)

    def test_non_finite_leaf_rejected(self):
        tape = ad.Tape()
        with pytest.raises(DomainError):
            tape.leaf([[np.inf, 1.0]])

    def test_one_dimensional_input_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ShapeError):
            tape.leaf(np.ones(3))


class TestOperatorSugar:
    def test_kink_subgradients_are_zero(self):
        tape = ad.Tape()
        x = tape.leaf([[0.0]])
        tape.backward(ad.sum_all(ad.relu(x)))
        assert x.grad[0, 0] == 0.0
        tape2 = ad.Tape()
        y = tape2.leaf([[0.0]])
        tape2.backward(ad.sum_all(ad.absval(y)))
        assert y.grad[0, 0] == 0.0
