"""The row runs the m x m stages are split into, the worker thread that runs
the second one, and the bits of training with and without it."""

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import mvgcn
from mvgcn import graphs
from mvgcn.data import make_synthetic
from mvgcn.experiment import feature_matrix, prepare_graphs
from mvgcn.graphs import _in_row_runs, _row_blocks, _row_runs, _span
from mvgcn.model import init_model, payload_path, predict, save_checkpoint, train


def spans(runs):
    return [(_span(run).start, _span(run).stop) for run in runs]


class TestRowRuns:
    @pytest.mark.parametrize(
        "m, want",
        [(200, [(0, 200)]), (400, [(0, 163), (163, 400)]), (800, [(0, 405), (405, 800)])],
    )
    def test_cuts_of_the_benchmark_sizes(self, m, want):
        assert spans(_row_runs(m, m)) == want

    # (rows, cols, block entries): one-row blocks, two- and three-row ones
    # with a ragged last block, and a block taller than the array
    @pytest.mark.parametrize(
        "rows, cols, entries",
        [(3, 5, 5), (4, 5, 5), (5, 5, 5), (9, 4, 8), (10, 3, 9), (2, 7, 7), (1, 9, 9), (6, 6, 100)],
    )
    def test_runs_cover_the_blocks_in_order_and_none_holds_one_row(
        self, rows, cols, entries, monkeypatch
    ):
        monkeypatch.setattr(graphs, "_ROW_BLOCK_ENTRIES", entries)
        runs = _row_runs(rows, cols)
        assert 1 <= len(runs) <= 2
        assert [b for run in runs for b in run] == _row_blocks(rows, cols)
        if len(runs) == 2:
            assert all(_span(run).stop - _span(run).start >= 2 for run in runs)
            # the cut is the admissible block boundary nearest the middle
            starts = [b.start for b in _row_blocks(rows, cols)[1:] if 2 <= b.start <= rows - 2]
            cut = _span(runs[1]).start
            assert all(abs(2 * cut - rows) <= abs(2 * s - rows) for s in starts)
        else:
            assert rows < 4 or len(_row_blocks(rows, cols)) == 1

    def test_arrays_that_fit_one_block_make_one_run(self):
        assert _row_runs(256, 256) == [[slice(0, 256)]]
        assert len(_row_runs(257, 257)) == 2


class TestInRowRuns:
    RUNS = [[slice(0, 2)], [slice(2, 4)]]

    def test_results_in_run_order_and_the_second_run_on_the_worker(self, monkeypatch):
        monkeypatch.setattr(graphs, "_use_worker", lambda: True)
        seen = _in_row_runs(lambda run: (run, threading.get_ident()), self.RUNS)
        assert [run for run, _ in seen] == self.RUNS
        assert seen[0][1] == threading.get_ident() != seen[1][1]

    def test_both_runs_in_the_calling_thread_without_the_worker(self, monkeypatch):
        monkeypatch.setattr(graphs, "_use_worker", lambda: False)
        seen = _in_row_runs(lambda run: (run, threading.get_ident()), self.RUNS)
        assert seen == [(run, threading.get_ident()) for run in self.RUNS]

    # the BLAS thread variables as (OPENBLAS, MKL, OMP): every one that is
    # set must read 1, and with none set OpenBLAS takes every CPU
    @pytest.mark.parametrize(
        "variables, cpus, want",
        [
            (("1", None, None), 2, True),
            ((None, None, "1"), 2, True),
            (("1", "1", " 1"), 2, True),
            (("1", None, None), 1, False),
            ((None, None, None), 2, False),
            (("", None, ""), 2, False),
            (("2", None, None), 2, False),
            ((None, "1", "4"), 2, False),
        ],
    )
    def test_the_worker_only_with_a_one_thread_blas_and_a_spare_cpu(
        self, variables, cpus, want, monkeypatch
    ):
        for name, value in zip(graphs._BLAS_THREAD_VARIABLES, variables):
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert graphs._use_worker() is want
        monkeypatch.setattr(graphs, "_own_cpus", True)
        graphs._share_cpus()
        assert graphs._use_worker() is False

    @pytest.mark.parametrize("use_worker", [True, False])
    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_run_that_raises_raises_here_after_both_runs_end(
        self, failing, use_worker, monkeypatch
    ):
        monkeypatch.setattr(graphs, "_use_worker", lambda: use_worker)
        ended = []

        def fn(run):
            if run is self.RUNS[failing]:
                raise ArithmeticError(f"run {failing}")
            threading.Event().wait(0.05)
            ended.append(run)

        with pytest.raises(ArithmeticError, match=f"run {failing}"):
            _in_row_runs(fn, self.RUNS)
        # the other run had ended, unless the failing first one stopped the
        # loop before it started
        assert ended == ([] if failing == 0 and not use_worker else [self.RUNS[1 - failing]])


class TestProducts:
    @pytest.mark.parametrize("m", [300, 500])
    def test_run_wise_product_is_within_a_few_ulps_of_the_whole_one(self, m):
        # on some BLAS builds a row of a product takes other bits than the
        # same row of a product with other rows; the runs must stay within
        # rounding of the whole product, entry by entry
        state = init_model(3, m, 10, 8, 4, np.random.default_rng(m))
        S1, S2 = state.params["S1"], state.params["S2"]
        runs = _row_runs(m, m)
        assert len(runs) == 2
        whole = S1 @ S2.T
        by_runs = np.concatenate([S1[_span(run)] @ S2.T for run in runs])
        scale = np.abs(S1) @ np.abs(S2).T
        assert np.all(np.abs(by_runs - whole) <= 4 * np.spacing(scale))


def instance(m):
    dataset = make_synthetic(m=m, num_views=3, classes=4, noise=0.5, seed=7)
    return prepare_graphs(dataset, 10, "euclidean"), feature_matrix(dataset), dataset.labels


def trained(views, features, labels, tmp_path, name):
    res = train(views, features, labels, 4, np.arange(0, len(labels), 5), seed=1, epochs=3)
    path = tmp_path / f"{name}.json"
    save_checkpoint(path, res.state, {"run": "row-runs"})
    return {
        "history": res.history,
        "arrays": [
            a.tobytes()
            for arrays in (res.state.params, res.state.first_moment, res.state.second_moment)
            for a in arrays.values()
        ],
        "predict": predict(res.state, views, features).tobytes(),
        "checkpoint": path.read_bytes(),
        "payload": payload_path(path).read_bytes(),
    }


# None: the default blocks (m=400 makes three, cut into runs at row 163);
# 7: 7-row blocks, 58 of them with a ragged last one
@pytest.mark.parametrize("block_rows", [None, 7])
def test_training_bits_do_not_depend_on_the_worker(block_rows, tmp_path, monkeypatch):
    views, features, labels = instance(400)
    if block_rows is not None:
        monkeypatch.setattr(graphs, "_ROW_BLOCK_ENTRIES", block_rows * 400)
    assert len(_row_runs(400, 400)) == 2
    runs = {}
    for use_worker in (True, False):
        monkeypatch.setattr(graphs, "_use_worker", lambda: use_worker)
        runs[use_worker] = trained(views, features, labels, tmp_path, str(use_worker))
    assert runs[True] == runs[False]


SWEEP_SCRIPT = """
import numpy as np
from mvgcn import graphs
from mvgcn.config import RunConfig
from mvgcn.data import make_synthetic
from mvgcn.experiment import run_sweep

graphs._use_worker = lambda: True
graphs._ROW_BLOCK_ENTRIES = 7 * 40
assert len(graphs._row_runs(40, 40)) == 2
# start this process's worker before the pool forks its children
graphs._in_row_runs(lambda run: None, graphs._row_runs(40, 40))
dataset = make_synthetic(m=40, num_views=2, classes=2, noise=0.2, seed=3)
cfg = RunConfig(k=3, hidden_dim=8, epochs=3, label_ratio=0.25, repeats=1, seed=0)
parallel = run_sweep(dataset, cfg, "tau", [0.3, 0.7], jobs=2)
serial = run_sweep(dataset, cfg, "tau", [0.3, 0.7], jobs=1)
print("equal" if parallel == serial else f"differ: {parallel} != {serial}")
"""


def run_script(script):
    src = str(Path(mvgcn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the script did not finish within 120 s")
    assert proc.returncode == 0, err
    return out.strip()


def test_a_forked_sweep_after_the_worker_started_matches_the_serial_one():
    # a forked child inherits the parent's executor but not its thread; it
    # must start a worker of its own rather than wait on one that is gone
    assert run_script(SWEEP_SCRIPT) == "equal"


SHARED_CPUS_SCRIPT = """
import os
os.environ["OPENBLAS_NUM_THREADS"] = "1"
from mvgcn import experiment, graphs
from mvgcn.config import RunConfig
from mvgcn.data import make_synthetic


def point(args):
    return graphs._use_worker()


experiment._sweep_point = point
dataset = make_synthetic(m=40, num_views=2, classes=2, noise=0.2, seed=3)
cfg = RunConfig(k=3, repeats=1)
print(graphs._use_worker(), experiment.run_sweep(dataset, cfg, "tau", [0.3, 0.7], jobs=2))
"""


def test_a_parallel_sweeps_children_leave_the_worker_alone():
    # the children keep the CPUs busy between them; a worker in each would
    # only contend with its siblings
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert run_script(SHARED_CPUS_SCRIPT) == f"{cpus > 1} [False, False]"
