"""Self-test: the harness's measurements do not change what they measure.

    python3 perfbench/selftest.py

Run from the repository root. Trains the ``standard`` workload three ways,
each in a fresh process: a plain ``experiment.run_single`` call with no
callback, the untraced harness operation (``op.api_operation``) and the
traced one. It checks that the three loss/accuracy histories are
byte-identical, prints the three digests and exits 0 if they agree, 1 if not.
"""

import argparse
import hashlib
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1
MODES = ("plain", "harness", "traced")


def history_digest(mode: str) -> str:
    import op

    w = op.WORKLOADS["standard"]
    if mode == "plain":
        import mvgcn.experiment

        dataset = op.make_dataset(w, SEED)
        cfg = op.run_config(w)
        outcome = mvgcn.experiment.run_single(dataset, cfg, cfg.seed)
        return hashlib.sha256(repr(outcome.result.history).encode()).hexdigest()
    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer(w.m)
    return op.api_operation(w, SEED, tracer)["history_sha"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", choices=MODES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(history_digest(args.child))
        return 0

    digests = {}
    for mode in MODES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "selftest.py"), "--child", mode],
            capture_output=True, text=True, timeout=170,
        )  # fmt: skip
        if proc.returncode != 0:
            print(f"{mode}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        digests[mode] = proc.stdout.strip()
        print(f"{mode:<8} {digests[mode]}")
    if len(set(digests.values())) != 1:
        print("FAIL: histories differ", file=sys.stderr)
        return 1
    print("ok: plain, harness and traced histories are byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
