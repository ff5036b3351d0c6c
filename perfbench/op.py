"""Workload table and one measured operation, run in a fresh process.

    python3 perfbench/op.py --workload standard --seed 1 --part train \\
        --trace 0 --work DIR --result FILE

``run.py`` starts one such process per operation (per command on
``roundtrip``) and reads the JSON it writes to ``--result``. The process
caps its own address space first, so a memory overrun ends as a
``MemoryError`` in this process, reported as a failed operation, rather than
as memory pressure on the whole machine. BLAS thread counts come from the
environment ``run.py`` passes in.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One BLAS thread, set before numpy loads; child processes inherit it.
os.environ.update(dict.fromkeys(THREAD_ENV, "1"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mvgcn  # noqa: E402
import mvgcn.cli  # noqa: E402
import mvgcn.experiment  # noqa: E402
import mvgcn.model  # noqa: E402

# Address-space cap of every measured process. The largest workload
# (``large``) peaks near 2.6 GiB RSS; above this cap an operation fails
# with MemoryError instead of pushing the machine toward the OOM killer.
AS_LIMIT_MIB = 5120

# Datasets per run, all of the workload's size; operation i trains on
# dataset i mod DATASETS. Held-out accuracy is set by the dataset, not by
# the program. Over random draws of ten single-dataset runs from 50-65
# probed seeds, the interquartile spread of `test_accuracy` was typically
# 3.2% of its median on `standard` (5.7% at the 95th percentile of draws),
# 2.4% (4.5%) on `roundtrip` and 3.2% (14.4%) on `large`, whose 6 epochs
# leave a few datasets far from converged. The median over three datasets
# per run gave 2.0% (3.5%), 1.4% (2.7%) and 2.1% (3.9%).
DATASETS = 3


@dataclass(frozen=True)
class Workload:
    m: int
    epochs: int
    cli: bool  # driven through mvgcn.cli.main (train + eval commands)
    # Final held-out accuracy every operation must reach. The repository's
    # acceptance gate, 0.90, is on the mean of five repeats at dataset seed
    # 0; single runs at other seeds fall below it with nothing broken, so
    # each floor sits below the lowest accuracy seen over many seeds and
    # well above chance (0.25).
    min_accuracy: float
    # Scoring calls timed per API operation. One 11 ms call on `standard`
    # is too short to time steadily; on `large` each extra call would leave
    # up to 0.6 GiB of tape (values and gradients) to the cyclic collector,
    # under the address-space cap.
    eval_reps: int = 1


# Why each workload exists is in perfbench/README.md.
WORKLOADS = {
    # Seeds 0-59: mean 0.94, lowest 0.850 (seed 19) and 0.878 (seed 13).
    "standard": Workload(m=200, epochs=300, cli=False, min_accuracy=0.80, eval_reps=9),
    # Seeds 0-20: mean 0.96; seeds 100-149: mean 0.93. Six epochs leave
    # some datasets far from converged: seeds 104, 130, 120 and 122 gave
    # 0.625, 0.754, 0.789 and 0.799 (seed 104 still 0.637 after 10 epochs).
    "large": Workload(m=800, epochs=6, cli=False, min_accuracy=0.50),
    # Seeds 0-64 after 10 epochs: mean 0.946, lowest 0.864. After 5 epochs
    # accuracy had not settled (mean 0.92, lowest 0.725) and ten seeds
    # spread up to 20% of their median.
    "roundtrip": Workload(m=400, epochs=10, cli=True, min_accuracy=0.80),
}


def dataset_seeds(seed: int) -> list:
    """The seeds of the datasets a run with workload seed ``seed`` uses."""
    return [seed * DATASETS + j for j in range(DATASETS)]


def make_dataset(w: Workload, seed: int):
    return mvgcn.make_synthetic(m=w.m, num_views=3, classes=4, noise=0.5, seed=seed)


def run_config(w: Workload) -> mvgcn.RunConfig:
    return replace(mvgcn.RunConfig(), epochs=w.epochs, repeats=1)


def work_paths(work: Path) -> dict:
    return {
        "data": work / "data",
        "graphs": work / "graphs",
        "config": work / "config.json",
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _history_checks(history, min_accuracy: float) -> dict:
    losses = [row[1] for row in history]
    return {
        "history_sha": _sha256(repr(history).encode()),
        "loss_finite": bool(np.all(np.isfinite(losses))),
        "test_accuracy": float(history[-1][3]),
        "accuracy_ok": history[-1][3] >= min_accuracy,
    }


def _timing_callback(stamps: list):
    # Appends one float per epoch and keeps nothing of the forward pass, so
    # the tapes live and die exactly as in an uninstrumented run.
    def callback(iteration, fwd, loss_value, state):
        stamps.append(time.perf_counter())

    return callback


def _intervals_ms(stamps: list) -> list:
    return [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:])]


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def api_operation(w: Workload, seed: int, tracer=None) -> dict:
    """Train through ``experiment.run_single`` on fresh inputs, then score
    the trained model with ``predict`` on every sample (what ``mvgcn eval``
    does), timing the two calls. Scoring runs ``w.eval_reps`` times and
    ``eval_s`` is the median; peak RSS is read after the first scoring, so
    it is what training plus one prediction costs."""
    dataset = make_dataset(w, seed)
    cfg = run_config(w)
    graphs = mvgcn.experiment.prepare_graphs(dataset, cfg.k, cfg.metric)
    stamps = []
    callback = _timing_callback(stamps)
    if tracer is not None:
        tracer.install()
        callback = tracer.wrap(callback, "harness.callback")
    with tracer.root("harness.op") if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        outcome = mvgcn.experiment.run_single(dataset, cfg, cfg.seed, graphs, callback=callback)
        t1 = time.perf_counter()
        eval_times = []
        for _ in range(w.eval_reps):
            t2 = time.perf_counter()
            Z = mvgcn.model.predict(
                outcome.result.state,
                graphs,
                mvgcn.experiment.feature_matrix(dataset),
                **mvgcn.experiment.forward_settings(cfg),
            )
            eval_accuracy = mvgcn.model.evaluate(Z, dataset.labels, np.arange(dataset.num_samples))
            eval_times.append(time.perf_counter() - t2)
            if len(eval_times) == 1:
                peak_rss_mib = _peak_rss_mib()
    result = _history_checks(outcome.result.history, w.min_accuracy)
    result.update(
        train_s=t1 - t0,
        eval_s=statistics.median(eval_times),
        peak_rss_mib=peak_rss_mib,
        epoch_ms=_intervals_ms(stamps),
        outputs_sha=_sha256(Z.tobytes() + repr(eval_accuracy).encode()),
        outputs_ok=bool(np.all(np.isfinite(Z)) and np.allclose(Z.sum(axis=1), 1.0)),
    )
    return result


def _run_cli(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mvgcn.cli.main(argv)
    return code, out.getvalue()


def cli_train(w: Workload, work: Path, out_dir: Path, tracer=None) -> dict:
    """``mvgcn train --graphs`` on the prepared dataset, timed in-process."""
    paths = work_paths(work)
    stamps = []
    callback = _timing_callback(stamps)
    if tracer is not None:
        tracer.install()
        callback = tracer.wrap(callback, "harness.callback")
    # run_single passes callback=None to train; hand it the epoch timer instead.
    train = mvgcn.experiment.train

    def train_with_timer(*args, **kwargs):
        return train(*args, **{**kwargs, "callback": callback})

    mvgcn.experiment.train = train_with_timer
    argv = ["train", "--config", str(paths["config"]), "--data", str(paths["data"]),
            "--out", str(out_dir), "--graphs", str(paths["graphs"])]  # fmt: skip
    with tracer.root("harness.op") if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        code, _ = _run_cli(argv)
        t1 = time.perf_counter()
    result = {"train_s": t1 - t0, "exit_code": code, "epoch_ms": _intervals_ms(stamps)}
    if code != 0:
        return result
    artifacts = sorted(p for p in out_dir.iterdir() if p.is_file())
    history = np.loadtxt(out_dir / "history_0.csv", delimiter=",", skiprows=1, ndmin=2)
    metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
    result.update(
        artifacts={p.name: _sha256(p.read_bytes()) for p in artifacts},
        loss_finite=bool(np.all(np.isfinite(history[:, 1]))),
        test_accuracy=float(metrics["mean_accuracy"]),
        accuracy_ok=metrics["mean_accuracy"] >= w.min_accuracy,
        checkpoint_mib=(out_dir / "checkpoint.json").stat().st_size / 2.0**20,
    )
    return result


def cli_eval(w: Workload, work: Path, out_dir: Path, tracer=None) -> dict:
    """``mvgcn eval`` of the checkpoint ``cli_train`` wrote to ``out_dir``."""
    if tracer is not None:
        tracer.install()
    argv = ["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
            "--data", str(work_paths(work)["data"])]  # fmt: skip
    with tracer.root("harness.op") if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        code, stdout = _run_cli(argv)
        t1 = time.perf_counter()
    return {"eval_s": t1 - t0, "exit_code": code, "outputs_sha": _sha256(stdout.encode())}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{name: os.environ.get(name) for name in THREAD_ENV + ("PYTHONHASHSEED",)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="dataset seed")
    parser.add_argument("--part", required=True, choices=("train", "eval"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, help="artifact directory (roundtrip)")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    limit = AS_LIMIT_MIB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    w = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(w.m)
    result = {}
    try:
        if not w.cli:
            result = api_operation(w, args.seed, tracer)
        elif args.part == "train":
            result = cli_train(w, args.work, args.out, tracer)
        else:
            result = cli_eval(w, args.work, args.out, tracer)
    except MemoryError:
        tracer = None  # its spans end mid-call; drop them with the operation
        result = {"error": f"MemoryError under a {AS_LIMIT_MIB} MiB address-space limit"}
    result.setdefault("peak_rss_mib", _peak_rss_mib())
    result["env"] = environment()
    if tracer is not None:
        result["trace"] = tracer.dump()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
