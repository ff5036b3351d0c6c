"""The benchmark's traced runs still work with the package: ``perfbench/
tracing.py`` wraps the stage functions by name and reads the adjacency
node each one takes first, so a changed signature shows here first. The
``roundtrip`` commands still run through ``perfbench/op.py``, so a changed
artifact layout shows here before it breaks a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path.insert(0, {perfbench!r})
import numpy as np
from dataclasses import replace
import mvgcn, mvgcn.experiment
from tracing import Tracer, epoch_metrics

m = 40
dataset = mvgcn.make_synthetic(m=m, num_views=3, classes=4, noise=0.5, seed=0)
cfg = replace(mvgcn.RunConfig(), k=5, epochs=3, repeats=1)
graphs = mvgcn.experiment.prepare_graphs(dataset, cfg.k, cfg.metric)
tracer = Tracer(m)
tracer.install()
outcome = mvgcn.experiment.run_single(dataset, cfg, 0, graphs, callback=lambda *args: None)
metrics = epoch_metrics(tracer.spans, m)
print(json.dumps({{"epochs": len(outcome.result.history), **metrics}}))
"""


def test_traced_training_run_completes_without_mxm_fusion_nodes():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(perfbench=str(ROOT / "perfbench"))],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert metrics["epochs"] == 3
    assert metrics["fusion.mxm_nodes"] == 0
    assert metrics["fusion.nodes"] > 0 and metrics["selection.nodes"] == 1
    assert 0.0 < metrics["model.adjacency_density"] <= 1.0


ROUNDTRIP_SCRIPT = """
import json, sys
from pathlib import Path
sys.path.insert(0, {perfbench!r})
import op, run

# roundtrip's commands on a tiny dataset, set up as run.py sets them up
w = op.Workload(m=40, epochs=3, cli=True, min_accuracy=0.0)
work, out = Path({work!r}), Path({out!r})
run.set_up(op, w, 0, work)
outputs = []
run_cli = op._run_cli
op._run_cli = lambda argv: outputs.append(run_cli(argv)) or outputs[-1]
train = op.cli_train(w, work, out)
evaluated = op.cli_eval(w, work, out)
print(json.dumps({{"train": train, "eval": evaluated, "eval_stdout": outputs[-1][1]}}))
"""


def test_roundtrip_commands_run_and_hash_every_checkpoint_file(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ROUNDTRIP_SCRIPT.format(
        perfbench=str(ROOT / "perfbench"), work=str(tmp_path / "work"), out=str(tmp_path / "out")
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["train"]["exit_code"] == 0 and record["eval"]["exit_code"] == 0
    assert {"checkpoint.json", "checkpoint.f64"} <= set(record["train"]["artifacts"])
    report = json.loads(record["eval_stdout"])
    assert report["samples"] == 40 and 0.0 <= report["accuracy"] <= 1.0
