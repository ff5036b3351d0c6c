"""mvgcn benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload standard --seed 1 --seconds 30 --trace 0

Run from the repository root. The workload's inputs are made from
``--seed``: ``op.DATASETS`` datasets of the workload's size
(``op.dataset_seeds``). Set-up is timed at least ``SETUP_REPS`` times and
for at least ``SETUP_MIN_S``, one dataset each time; then operations run one
at a time, each in a fresh child process (``op.py``) and each on the next
dataset in turn, until ``--seconds`` have passed (closed loop, one client).
Every operation's outputs are checked, and a failed check counts the
operation as failed instead of stopping the run. With ``--trace 0`` the
last line of standard output holds the end-to-end metrics; with
``--trace 1`` the first operation runs untraced, the rest traced, and the
last line holds the per-layer metrics.
Names, units and bounds are in BENCHMARK.json; perfbench/README.md says
what each one means. The full record of a run, spans included, is written
to ``.perfbench/results/``.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
# Set-up runs at least SETUP_REPS times and for at least SETUP_MIN_S; the
# second bound gives `standard`'s 15 ms set-up some 60 repetitions.
SETUP_REPS = 9
SETUP_MIN_S = 1.0
RUN_DEADLINE_S = 170  # the whole run must end within 180 s


def read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def host_environment(seed: int, dataset_seeds: list, as_limit_mib: int) -> dict:
    meminfo = dict(
        line.split(":", 1) for line in read_text("/proc/meminfo").splitlines() if ":" in line
    )
    thp = read_text("/sys/kernel/mm/transparent_hugepage/enabled")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "mem_total": meminfo.get("MemTotal", "?").strip(),
        "thp": thp[thp.find("[") + 1 : thp.find("]")] if "[" in thp else "?",
        "seed": seed,
        "dataset_seeds": dataset_seeds,
        "as_limit_mib": as_limit_mib,
    }


def set_up(op, w, seed: int, work: Path) -> None:
    """What every operation of the run needs before it starts: the inputs
    and per-view KNN graphs, written to disk and prepared with ``mvgcn
    prepare`` for the CLI workload."""
    import mvgcn.cli
    import mvgcn.data
    import mvgcn.experiment

    dataset = op.make_dataset(w, seed)
    cfg = op.run_config(w)
    if not w.cli:
        mvgcn.experiment.prepare_graphs(dataset, cfg.k, cfg.metric)
        return
    paths = op.work_paths(work)
    mvgcn.data.save_dataset(paths["data"], dataset)
    argv = ["prepare", "--data", str(paths["data"]), "--k", str(cfg.k),
            "--metric", cfg.metric, "--out", str(paths["graphs"])]  # fmt: skip
    with contextlib.redirect_stdout(io.StringIO()):
        code = mvgcn.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"mvgcn prepare exited {code}")
    paths["config"].write_text(json.dumps(mvgcn.config_to_dict(cfg)), encoding="utf-8")


def run_operation(args, w, work: Path, index: int, traced: bool, deadline: float) -> dict:
    """One operation, on dataset ``index`` mod ``op.DATASETS``: a child
    process per part; the record notes the first part that crashed, ran out
    of memory or exited nonzero."""
    dataset = index % len(args.dataset_seeds)
    dataset_seed = args.dataset_seeds[dataset]
    out_dir = work / f"op{index}"
    record = {"index": index, "traced": traced, "dataset": dataset, "parts": {}}
    # The interpreter's hash seed moves the moments at which the cyclic
    # collector frees tapes: on `large`, peak RSS read 2337 and 2785 MiB
    # and predict 0.33 and 0.20 s at hash seeds 1 and 0, each repeatable.
    # Hash randomization is off in every measured process so that runs
    # differ only by their inputs.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    for part in ("train", "eval") if w.cli else ("train",):
        result_path = work / f"op{index}-{part}.json"
        cmd = [sys.executable, str(HERE / "op.py"), "--workload", args.workload,
               "--seed", str(dataset_seed), "--part", part, "--trace", str(int(traced)),
               "--work", str(work / f"d{dataset}"), "--out", str(out_dir),
               "--result", str(result_path)]  # fmt: skip
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(deadline - time.monotonic(), 1.0),
            )  # fmt: skip
        except subprocess.TimeoutExpired:
            record["error"] = f"{part}: timed out"
            break
        if proc.returncode != 0 or not result_path.exists():
            record["error"] = f"{part}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            break
        result = json.loads(result_path.read_text(encoding="utf-8"))
        record["parts"][part] = result
        if "error" in result:
            record["error"] = f"{part}: {result['error']}"
            break
        if result.get("exit_code", 0) != 0:
            record["error"] = f"mvgcn {part} exited {result['exit_code']}"
            break
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


def fingerprint(record: dict):
    """What must be byte-identical across operations of one seed."""
    train = record["parts"]["train"]
    if "eval" in record["parts"]:
        return train["artifacts"], record["parts"]["eval"]["outputs_sha"]
    return train["history_sha"], train["outputs_sha"]


def problems(w, record: dict, reference: dict | None) -> list:
    if "error" in record:
        return [record["error"]]
    train = record["parts"]["train"]
    found = []
    if not train["loss_finite"]:
        found.append("loss history is not finite")
    if not train["accuracy_ok"]:
        found.append(f"test accuracy {train['test_accuracy']:.4f} below {w.min_accuracy}")
    if not train.get("outputs_ok", True):
        found.append("predicted probabilities are not finite row-stochastic rows")
    if reference is not None and fingerprint(record) != fingerprint(reference):
        found.append(f"outputs differ from operation {reference['index']} on the same dataset")
    return found


def seconds(record: dict, key: str) -> float:
    return sum(part.get(key, 0.0) for part in record["parts"].values())


def end_to_end(records: list, setup_times: list) -> dict:
    epochs = [ms for r in records for ms in r["parts"]["train"]["epoch_ms"]]
    median = statistics.median
    return {
        "setup_s": median(setup_times),
        "run_s": median(seconds(r, "train_s") + seconds(r, "eval_s") for r in records),
        "epoch_ms_p50": median(epochs),
        "epoch_ms_p90": statistics.quantiles(epochs, n=10, method="inclusive")[-1],
        "peak_rss_mib": median(max(p["peak_rss_mib"] for p in r["parts"].values()) for r in records),
        # Accuracy is set by the dataset; each dataset counts once.
        "test_accuracy": median(
            median(r["parts"]["train"]["test_accuracy"] for r in records if r["dataset"] == d)
            for d in sorted({r["dataset"] for r in records})
        ),
        "train_cmd_s": median(seconds(r, "train_s") for r in records),
        "eval_cmd_s": median(seconds(r, "eval_s") for r in records),
    }


def merged_spans(record: dict) -> list:
    """Spans of all parts of one operation, with ids made unique."""
    from tracing import ID, PARENT

    merged = []
    for part in record["parts"].values():
        offset = len(merged)
        for s in part["trace"]["spans"]:
            s = list(s)
            s[ID] += offset
            s[PARENT] = None if s[PARENT] is None else s[PARENT] + offset
            merged.append(s)
    return merged


def per_layer(w, untraced: dict, traced: list, setup_spans: list) -> dict:
    import tracing

    per_op = []
    for record in traced:
        metrics = tracing.operation_metrics(merged_spans(record), w.m)
        parts = record["parts"].values()
        metrics["autodiff.tapes_alive_max"] = max(p["trace"]["tapes_alive_max"] for p in parts)
        metrics["autodiff.gc_full_collections"] = sum(
            p["trace"]["gc_full_collections"] for p in parts
        )
        metrics["cli.checkpoint_mib"] = record["parts"]["train"].get("checkpoint_mib", 0.0)
        metrics["run_s"] = seconds(record, "train_s") + seconds(record, "eval_s")
        per_op.append(metrics)
    out = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
    del out["run_s"]
    # Overhead against traced operations on the untraced one's dataset.
    same = [m["run_s"] for m, r in zip(per_op, traced) if r["dataset"] == untraced["dataset"]]
    out["trace.overhead_s"] = statistics.median(same or [m["run_s"] for m in per_op]) - (
        seconds(untraced, "train_s") + seconds(untraced, "eval_s")
    )
    setups = [tracing.setup_metrics(spans) for spans in setup_spans]
    out.update({key: statistics.median(s[key] for s in setups) for key in setups[0]})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mvgcn" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the repository root (src/mvgcn and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {wl["name"] for wl in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import op  # sets the BLAS thread variables before numpy loads

    w = op.WORKLOADS[args.workload]
    args.dataset_seeds = op.dataset_seeds(args.seed)
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{args.trace}"
    results_dir = ROOT / ".perfbench" / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    run_id = uuid.uuid4().hex
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(w.m)
            tracer.install()
        setup_times, setup_spans = [], []
        setup_start = time.perf_counter()
        while len(setup_times) < SETUP_REPS or time.perf_counter() - setup_start < SETUP_MIN_S:
            dataset = len(setup_times) % len(args.dataset_seeds)
            dataset_work = work / f"d{dataset}"
            dataset_work.mkdir(exist_ok=True)
            first = len(tracer.spans) if tracer else 0
            with tracer.root("harness.setup") if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                set_up(op, w, args.dataset_seeds[dataset], dataset_work)
                setup_times.append(time.perf_counter() - t0)
            if tracer:
                setup_spans.append(tracer.spans[first:])

        records = []
        start = time.perf_counter()
        # Every dataset runs at least once, and in a traced run once traced.
        min_ops = len(args.dataset_seeds) + args.trace
        while len(records) < min_ops or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace and records)
            record = run_operation(args, w, work, len(records), traced, deadline)
            done = [r for r in records if "error" not in r and r["dataset"] == record["dataset"]]
            record["problems"] = problems(w, record, done[0] if done else None)
            records.append(record)
            if record.get("error", "").endswith("timed out"):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r["problems"]]
    # An operation that ran to the end is measured even when a check on its
    # outputs failed: the timings are the program's, the failure is counted.
    done = [r for r in records if "error" not in r]
    for r in failed:
        print(f"operation {r['index']} failed: {'; '.join(r['problems'])}", file=sys.stderr)
    if not done or (args.trace and ("error" in records[0] or len(done) < 2)):
        print("error: too few operations ran to the end to report metrics", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(w, records[0], done[1:], setup_spans)
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(done, setup_times)
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise SystemExit(f"metric names disagree with BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")

    env = {
        **host_environment(args.seed, args.dataset_seeds, op.AS_LIMIT_MIB),
        **done[0]["parts"]["train"]["env"],
    }
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"run_id": run_id, "workload": args.workload, "env": env,
                    "setup_s": setup_times, "operations": records, "metrics": metrics}),
        encoding="utf-8",
    )  # fmt: skip

    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    epochs = sum(len(r["parts"]["train"]["epoch_ms"]) for r in done)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} run_id={run_id}")
    print(f"operations={len(records)} failed={len(failed)} error_rate={len(failed) / len(records):.4f} "
          f"epoch_samples={epochs} setup_reps={len(setup_times)}")  # fmt: skip
    for m in wanted:
        print(f"  {m['name']:<36} {metrics[m['name']]:>14.6g} {m['unit']}")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
