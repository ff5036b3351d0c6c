"""Tests for the tape-based reverse-mode differentiation core."""

import gc
import weakref
import zlib

import numpy as np
import pytest

from mvgcn import autodiff as ad
from mvgcn.data import make_synthetic
from mvgcn.errors import DomainError, ParameterError, ShapeError
from mvgcn.experiment import feature_matrix, prepare_graphs
from mvgcn.fusion import edge_support
from mvgcn.model import DNS_MODES, forward, init_model, masked_cross_entropy, one_hot

from gradcheck import finite_difference_check


def rand_away_from_kinks(rng, shape, low=0.1, high=2.0):
    """Random matrix with |x| >= low so the ReLU kink is never straddled."""
    mag = rng.uniform(low, high, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return mag * sign


# fixed weights for the probes below; no row of PROBE is constant, so a row
# softmax's gradient does not vanish under it
PROBE = np.linspace(-1, 1, 16).reshape(4, 4)
POSITIVE = np.linspace(0.5, 2.0, 16).reshape(4, 4)
WEIGHTED_MATS = list(np.linspace(-1, 1, 64).reshape(4, 4, 4))


def probe(node):
    """A 1x1 loss weighing each entry of a 4x4 node differently."""
    return ad.masked_sum(node, PROBE)


def positive(node):
    """A positive 1x1 node from a 4x4 one."""
    return ad.masked_sum(ad.softmax_rows(node), POSITIVE)


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

    def test_zero_factor_annihilates(self):
        tape = ad.Tape()
        m = tape.leaf(np.random.default_rng(0).normal(size=(3, 4)))
        out = ad.matmul(m, tape.leaf(np.zeros((4, 2))))
        np.testing.assert_array_equal(out.value, np.zeros((3, 2)))

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
        # d sum(W W) / dW = J W^T + W^T J, with J all ones
        tape = ad.Tape()
        w = tape.leaf(np.random.default_rng(3).normal(size=(4, 4)))
        tape.backward(ad.sum_all(ad.matmul(w, w)))
        J = np.ones((4, 4))
        np.testing.assert_allclose(w.grad, J @ w.value.T + w.value.T @ J, rtol=1e-14)

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
        dangling = ad.softmax_rows(ad.matmul(unused, unused))
        tape.backward(ad.sum_all(w))
        np.testing.assert_array_equal(dangling.grad, np.zeros((2, 2)))
        np.testing.assert_array_equal(unused.grad, np.zeros((2, 2)))

    def test_shared_and_passed_through_gradients_stay_separate(self):
        # the reductions pass on broadcast views of their upstream gradient,
        # a 1x1 sum_all passes it on unchanged, and x feeds two consumers,
        # so a first contribution kept by reference would alias two nodes
        rng = np.random.default_rng(7)
        tape = ad.Tape()
        x = tape.leaf(rng.normal(size=(3, 4)))
        c = ad.col_sum(x)
        s = ad.sum_all(c)
        u = ad.sum_all(s)
        t = ad.sum_all(x)
        loss = ad.matmul(u, t)
        tape.backward(loss)
        total = x.value.sum()
        np.testing.assert_allclose(x.grad, np.full((3, 4), 2.0 * total), rtol=1e-14)
        for node in (c, s, u):
            np.testing.assert_array_equal(node.grad, np.full(node.value.shape, t.value[0, 0]))
        np.testing.assert_array_equal(t.grad, u.value)
        grads = [node.grad for node in (x, c, s, u, t, loss)]
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
            s = ad.softmax_rows(ad.matmul(a, a))
            tape.backward(probe(s))
            value = weakref.ref(s.value)
            tape.release()
            assert s.grad is None and tape.nodes == []
            del tape, a, s
            assert value() is None
        finally:
            gc.enable()

    def test_leaf_is_a_read_only_view_of_its_input(self):
        x = np.random.default_rng(7).normal(size=(3, 4))
        w = ad.Tape().leaf(x)
        assert np.shares_memory(w.value, x)
        with pytest.raises(ValueError, match="read-only"):
            w.value[0, 0] = 1.0
        x[0, 0] = 5.0  # the caller's array stays writeable
        assert w.value[0, 0] == 5.0

    def test_leaf_of_another_dtype_or_layout_views_a_converted_copy(self):
        x = np.arange(12).reshape(4, 3)
        for value in (x, x.T.astype(float)):
            w = ad.Tape().leaf(value)
            assert not np.shares_memory(w.value, value) and w.value.flags.c_contiguous
            np.testing.assert_array_equal(w.value, value)
            assert not w.value.flags.writeable

    def test_no_grad_tape_frees_intermediates_and_refuses_backward(self):
        x0 = np.random.default_rng(6).normal(size=(4, 4))
        ref = ad.Tape()
        expected = probe(ad.softmax_rows(ad.matmul(ref.leaf(x0), ref.leaf(x0)))).value
        gc.collect()
        gc.disable()
        try:
            tape = ad.NoGradTape()
            a = tape.leaf(x0)
            mid = ad.matmul(a, a)
            value = weakref.ref(mid.value)
            out = probe(ad.softmax_rows(mid))
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
            a = tape.leaf(rng.normal(size=(4, 4)))
            b = tape.leaf(rng.normal(size=(4, 4)))
            loss = probe(ad.softmax_rows(ad.matmul(a, ad.softmax_rows(b))))
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
            z = ad.div(ad.matmul(x, ad.relu(y)), positive(x))
            z = ad.softmax_rows(ad.weighted_sum(ad.col_sum(z), WEIGHTED_MATS))
            return probe(ad.log(ad.maximum(z, 1e-12)))

        err = finite_difference_check(build, [x0, y0], step=1e-6)
        assert err <= 1e-6


PRIMITIVE_BUILDERS = {
    "matmul": lambda t, ls: probe(ad.softmax_rows(ad.matmul(ls[0], ls[1]))),
    "div": lambda t, ls: probe(ad.softmax_rows(ad.div(ls[0], ls[1]))),
    "relu": lambda t, ls: probe(ad.softmax_rows(ad.relu(ls[0]))),
    "maximum": lambda t, ls: probe(ad.softmax_rows(ad.maximum(ls[0], 0.05))),
    "log": lambda t, ls: probe(ad.log(ad.softmax_rows(ad.matmul(ls[0], ls[1])))),
    "softmax_rows": lambda t, ls: probe(ad.softmax_rows(ls[0])),
    "col_sum": lambda t, ls: ad.masked_sum(
        ad.log(ad.softmax_rows(ad.matmul(ad.col_sum(ls[0]), ls[1]))), PROBE[:1]
    ),
    "sum_all": lambda t, ls: ad.matmul(ad.sum_all(ls[0]), ad.sum_all(ls[1])),
    "masked_sum": lambda t, ls: ad.matmul(
        ad.masked_sum(ls[0], PROBE), ad.masked_sum(ls[1], POSITIVE)
    ),
    "weighted_sum": lambda t, ls: probe(
        ad.softmax_rows(ad.matmul(ad.weighted_sum(ad.col_sum(ls[0]), WEIGHTED_MATS), ls[1]))
    ),
    # a 1x1 divisor and a 1x1 dividend, each broadcast against a 4x4 side
    "scalar_broadcast_binary": lambda t, ls: ad.div(
        positive(ad.div(ls[0], positive(ls[1]))), positive(ad.div(positive(ls[0]), ls[1]))
    ),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_BUILDERS))
def test_primitive_gradients_match_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x0 = rand_away_from_kinks(rng, (4, 4))
    y0 = rand_away_from_kinks(rng, (4, 4))
    err = finite_difference_check(PRIMITIVE_BUILDERS[name], [x0, y0], step=1e-6)
    assert err <= 1e-6, f"{name}: max relative error {err}"


# ops the stage modules record, each checked by finite differences in the
# tests of its module
STAGE_OPS = {"refine", "select", "spmm"}


def recorded_ops(dns_mode):
    """The op names on the tape of a default forward pass plus loss
    (two layers) under ``dns_mode``."""
    dataset = make_synthetic(m=24, num_views=2, classes=2, noise=0.2, seed=3)
    features = feature_matrix(dataset)
    state = init_model(2, 24, features.shape[1], 8, 2, np.random.default_rng(0), layers=2)
    tape = ad.Tape()
    leaves = {name: tape.leaf(p) for name, p in state.params.items()}
    support = edge_support(prepare_graphs(dataset, 3, "euclidean"))
    fwd = forward(tape, leaves, support, features, dns_mode=dns_mode, k=3)
    masked_cross_entropy(fwd.probabilities, one_hot(dataset.labels, 2), [0, 5, 12, 20])
    return {node.op for node in tape.nodes}


class TestOpSet:
    """The module holds the ops the model records, each under a
    finite-difference check, so unused ops cannot pile up."""

    def test_every_exported_op_is_recorded_by_the_model(self):
        recorded = set().union(*(recorded_ops(mode) for mode in DNS_MODES))
        exported = set(ad.__all__) - {"Node", "Tape", "NoGradTape"}
        assert exported - recorded == set()

    @pytest.mark.parametrize("dns_mode", DNS_MODES)
    def test_every_recorded_op_has_a_finite_difference_row(self, dns_mode):
        ops = recorded_ops(dns_mode) - {"leaf"} - STAGE_OPS
        assert ops - set(PRIMITIVE_BUILDERS) == set()


class TestFiniteDifferenceCheck:
    def test_quadratic_is_near_exact(self):
        x0 = np.random.default_rng(6).normal(size=(3, 3))
        # trace(X X)
        err = finite_difference_check(
            lambda t, ls: ad.masked_sum(ad.matmul(ls[0], ls[0]), np.eye(3)), [x0], step=1e-6
        )
        assert err <= 1e-9

    def test_discontinuity_is_flagged(self):
        # A step-like function, sigmoid(1e8 x) as the first entry of a row
        # softmax of [1e8 x, 0]: the analytic slope at 0 dwarfs the secant.
        def build(tape, leaves):
            z = ad.matmul(leaves[0], tape.leaf([[1e8, 0.0]]))
            return ad.masked_sum(ad.softmax_rows(z), [[1.0, 0.0]])

        err = finite_difference_check(build, [np.zeros((1, 1))], step=1e-6)
        assert err > 1.0

    def test_invalid_step_rejected(self):
        with pytest.raises(ParameterError):
            finite_difference_check(lambda t, ls: ad.sum_all(ls[0]), [np.ones((2, 2))], step=0.0)


class TestErrors:
    def test_shape_mismatch_names_both_shapes(self):
        tape = ad.Tape()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((4, 5)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.matmul(a, b)
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.div(a, b)
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


class TestKinks:
    def test_relu_and_maximum_subgradients_are_zero(self):
        tape = ad.Tape()
        x = tape.leaf([[0.0]])
        tape.backward(ad.sum_all(ad.relu(x)))
        assert x.grad[0, 0] == 0.0
        tape2 = ad.Tape()
        y = tape2.leaf([[0.5]])
        tape2.backward(ad.sum_all(ad.maximum(y, 0.5)))
        assert y.grad[0, 0] == 0.0
