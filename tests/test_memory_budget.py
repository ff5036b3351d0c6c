"""The memory budget of training and scoring at m=800, counted in m x m
float64 arrays (5.12 MB each) from ``tracemalloc``: how much ``train`` and
``predict`` allocate above what their caller holds, and that the work
arrays one training run reuses are the same memory in every epoch.

``train`` needs 8 such arrays (S1, S2, their four Adam moments and their
two gradients), plus refinement's run products, which share S1's gradient
buffer, and block-sized scratch; ``predict`` needs the run products."""

import tracemalloc

import numpy as np
import pytest

from mvgcn import model as model_module
from mvgcn.data import SplitSpec, make_split, make_synthetic
from mvgcn.experiment import feature_matrix, prepare_graphs
from mvgcn.model import predict, train

M = 800
MXM = M * M * 8


def _traced(fn):
    """``fn()`` and the peak it allocated, in m x m arrays."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / MXM


@pytest.fixture(scope="module")
def run():
    dataset = make_synthetic(m=M, num_views=3, classes=4, noise=0.5, seed=7)
    graphs = prepare_graphs(dataset, 10, "euclidean")
    features = feature_matrix(dataset)
    labeled = make_split(dataset, SplitSpec(0.1, 0, True))
    supports, snapshots, gradients = [], [], []

    def snapshot(buffers):
        return {key: (a.ctypes.data, a.size) for key, a in buffers._flat.items()}

    def callback(iteration, fwd, loss_value, state):
        supports.append(fwd.support)
        snapshots.append(snapshot(fwd.support.buffers))

    def recording_adam(state, grads, lr, buffers):
        gradients.append({name: grads[name].ctypes.data for name in ("S1", "S2")})
        return adam_step(state, grads, lr, buffers)

    adam_step = model_module.adam_step
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_module, "adam_step", recording_adam)
        result, peak = _traced(
            lambda: train(
                graphs, features, dataset.labels, dataset.classes, labeled, seed=0, epochs=3,
                callback=callback,
            )
        )
    snapshots.append(snapshot(supports[-1].buffers))
    return {
        "graphs": graphs,
        "features": features,
        "state": result.state,
        "peak": peak,
        "supports": supports,
        "snapshots": snapshots,
        "gradients": gradients,
    }


def test_train_peaks_at_no_more_than_twelve_mxm_arrays(run):
    assert run["peak"] <= 12.0


def test_predict_peaks_at_no_more_than_two_mxm_arrays(run):
    _, peak = _traced(lambda: predict(run["state"], run["graphs"], run["features"]))
    assert peak <= 2.0


def test_work_buffers_are_the_same_memory_in_every_epoch_after_the_first(run):
    supports, snapshots = run["supports"], run["snapshots"]
    assert all(s is supports[0] for s in supports)
    # snapshots: each epoch's callback, after its forward pass, then the
    # end of the run; by the second epoch every buffer has been made
    later = snapshots[1:]
    assert all(s == later[0] for s in later)
    names = {key if isinstance(key, str) else key[0] for key in later[0]}
    assert names == {"scratch", "select", "S1 gradient", "S2 gradient"}
    buffers = later[0]
    for grads in run["gradients"]:
        assert grads == {name: buffers[f"{name} gradient"][0] for name in ("S1", "S2")}
    # the first epoch already used the refinement buffer for its run products
    assert snapshots[0]["S1 gradient"] == buffers["S1 gradient"]
