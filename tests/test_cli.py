import gc
import hashlib
import json
import shutil
import warnings

import numpy as np
import pytest

from mvgcn import experiment
from mvgcn.cli import (
    _fusion_summary,
    load_prepared_graphs,
    main,
    save_prepared_graphs,
    write_csv,
    write_json,
)
from mvgcn.config import RunConfig
from mvgcn.data import load_dataset, make_synthetic, save_dataset
from mvgcn.graphs import Graph
from mvgcn.model import config_digest, init_model, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    save_dataset(root, make_synthetic(m=24, num_views=2, classes=2, noise=0.2, seed=3))
    return root


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.json"
    path.write_text(
        json.dumps(
            {"k": 3, "hidden_dim": 8, "epochs": 4, "label_ratio": 0.25, "repeats": 2}
        )
    )
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def edited_header(checkpoint, path, edit):
    """A copy of ``checkpoint`` at ``path``, its payload copied beside it
    unchanged, whose header ``edit`` changed."""
    header = json.loads(checkpoint.read_text())
    edit(header)
    path.write_text(json.dumps(header))
    shutil.copyfile(checkpoint.with_suffix(".f64"), path.with_suffix(".f64"))
    return path


def _replaced(lines: list[str], lineno: int, text: str) -> list[str]:
    """A copy of ``lines`` with line ``lineno`` (counted from 1) set to ``text``."""
    return lines[: lineno - 1] + [text] + lines[lineno:]


def _nudged(line: str) -> str:
    """An edge line whose value is one ulp larger."""
    r, c, value = line.split(",")
    return f"{r},{c},{float(np.nextafter(float(value), np.inf))!r}"


class TestTrain:
    def test_writes_all_artifacts(self, data_dir, config_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("train", "--config", config_file, "--data", data_dir, "--out", out) == 0
        for name in (
            "metrics.json",
            "history_0.csv",
            "history_1.csv",
            "checkpoint.json",
            "checkpoint.f64",
            "fusion_weights.json",
        ):
            assert (out / name).exists()
        assert "mean accuracy" in capsys.readouterr().out

    def test_metrics_shape(self, data_dir, config_file, tmp_path):
        out = tmp_path / "run"
        run_cli("train", "--config", config_file, "--data", data_dir, "--out", out)
        metrics = json.loads((out / "metrics.json").read_text())
        assert len(metrics["accuracies"]) == 2
        assert 0.0 <= metrics["mean_accuracy"] <= 1.0
        assert metrics["config"]["epochs"] == 4
        assert metrics["dataset"]

    def test_history_rows_cover_every_iteration(self, data_dir, config_file, tmp_path):
        out = tmp_path / "run"
        run_cli("train", "--config", config_file, "--data", data_dir, "--out", out)
        lines = (out / "history_0.csv").read_text().splitlines()
        assert lines[0] == "iteration,loss,train_accuracy,test_accuracy"
        assert len(lines) == 1 + 4

    def test_same_seed_is_byte_identical(self, data_dir, config_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("train", "--config", config_file, "--data", data_dir, "--out", a)
        run_cli("train", "--config", config_file, "--data", data_dir, "--out", b)
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
        assert (a / "history_0.csv").read_bytes() == (b / "history_0.csv").read_bytes()
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()
        assert (a / "checkpoint.f64").read_bytes() == (b / "checkpoint.f64").read_bytes()

    def test_env_var_overrides_seed(self, data_dir, config_file, tmp_path, monkeypatch):
        out = tmp_path / "run"
        monkeypatch.setenv("MGCN_SEED", "77")
        run_cli("train", "--config", config_file, "--data", data_dir, "--out", out)
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["config"]["seed"] == 77

    def test_garbled_env_seed_is_a_config_error(self, data_dir, config_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MGCN_SEED", "many")
        code = run_cli("train", "--config", config_file, "--data", data_dir, "--out", tmp_path / "x")
        assert code == 2
        assert "MGCN_SEED" in capsys.readouterr().err

    def test_invalid_config_exits_2_naming_field(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"epochs": 0}))
        code = run_cli("train", "--config", bad, "--data", data_dir, "--out", tmp_path / "x")
        assert code == 2
        assert "epochs" in capsys.readouterr().err

    def test_removed_renormalize_field_exits_2_naming_it(self, data_dir, tmp_path, capsys):
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"epochs": 2, "renormalize_after_selection": False}))
        code = run_cli("train", "--config", old, "--data", data_dir, "--out", tmp_path / "x")
        assert code == 2
        assert "renormalize_after_selection" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_k_of_the_sample_count_or_more_exits_2_naming_k(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "k40.json"
        cfg.write_text(json.dumps({"k": 40, "epochs": 2, "repeats": 1}))
        code = run_cli("train", "--config", cfg, "--data", data_dir, "--out", tmp_path / "x")
        assert code == 2
        assert "config field 'k'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_fusion_summary_leaves_no_cyclic_garbage(self):
        state = init_model(3, 5, 4, 2, 2, np.random.default_rng(0))
        gc.collect()
        gc.disable()
        try:
            summary = _fusion_summary(state)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(summary["weights"]) == 3 and len(summary["importance"]) == 3

    def test_missing_data_exits_1(self, config_file, tmp_path, capsys):
        code = run_cli(
            "train", "--config", config_file, "--data", tmp_path / "nowhere", "--out", tmp_path / "x"
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_fusion_weights_are_row_stochastic(self, data_dir, config_file, tmp_path):
        out = tmp_path / "run"
        run_cli("train", "--config", config_file, "--data", data_dir, "--out", out)
        fusion = json.loads((out / "fusion_weights.json").read_text())
        W = np.array(fusion["weights"])
        assert np.allclose(W.sum(axis=1), 1.0, atol=1e-12)
        assert np.isclose(sum(fusion["importance"]), 1.0, atol=1e-12)


class TestPrepare:
    def test_writes_graphs_and_manifest(self, data_dir, tmp_path):
        out = tmp_path / "graphs"
        assert run_cli("prepare", "--data", data_dir, "--k", 3, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format"] == 2
        assert manifest["k"] == 3
        assert manifest["num_views"] == 2
        assert manifest["nodes"] == 24
        assert set(manifest["files"]) == {"view_0.csv", "view_1.csv"}

    def test_views_are_row_major_edge_lists(self, data_dir, tmp_path):
        out = tmp_path / "graphs"
        run_cli("prepare", "--data", data_dir, "--k", 3, "--out", out)
        adjacency = experiment.prepare_graphs(load_dataset(data_dir), 3, "euclidean")[0].adjacency
        lines = (out / "view_0.csv").read_text().splitlines()
        assert lines[0] == "row,col,value"
        rows, cols = np.nonzero(adjacency)
        assert [tuple(map(int, ln.split(",")[:2])) for ln in lines[1:]] == list(zip(rows, cols))
        assert [float(ln.split(",")[2]) for ln in lines[1:]] == adjacency[rows, cols].tolist()

    @pytest.mark.parametrize("m", [40, 400])
    def test_saved_graphs_load_to_the_same_bits(self, tmp_path, m):
        dataset = make_synthetic(m=m, num_views=3, classes=4, noise=0.5, seed=7)
        graphs = experiment.prepare_graphs(dataset, 10, "euclidean")
        save_prepared_graphs(tmp_path, graphs, 10, "euclidean")
        loaded = load_prepared_graphs(tmp_path, RunConfig(k=10, metric="euclidean"))
        assert len(loaded) == 3
        for got, want in zip(loaded, graphs):
            assert got.renormalized
            assert got.adjacency.dtype == want.adjacency.dtype
            assert np.array_equal(got.adjacency, want.adjacency)

    def test_prepared_training_matches_direct(self, data_dir, config_file, tmp_path):
        graphs = tmp_path / "graphs"
        run_cli("prepare", "--data", data_dir, "--k", 3, "--out", graphs)
        a, b = tmp_path / "direct", tmp_path / "cached"
        run_cli("train", "--config", config_file, "--data", data_dir, "--out", a)
        run_cli(
            "train", "--config", config_file, "--data", data_dir, "--out", b,
            "--graphs", graphs,
        )
        for name in (
            "metrics.json", "history_0.csv", "history_1.csv", "checkpoint.json", "checkpoint.f64",
        ):  # fmt: skip
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("k", [0, 24])
    def test_k_out_of_range_exits_2_naming_k(self, data_dir, tmp_path, capsys, k):
        out = tmp_path / "graphs"
        assert run_cli("prepare", "--data", data_dir, "--k", k, "--out", out) == 2
        assert "config field 'k'" in capsys.readouterr().err
        assert not out.exists()

    def test_tampered_graph_refused(self, data_dir, config_file, tmp_path, capsys):
        graphs = tmp_path / "graphs"
        run_cli("prepare", "--data", data_dir, "--k", 3, "--out", graphs)
        target = graphs / "view_0.csv"
        target.write_text(target.read_text().replace("0", "1", 1))
        code = run_cli(
            "train", "--config", config_file, "--data", data_dir, "--out", tmp_path / "x",
            "--graphs", graphs,
        )
        assert code == 1
        assert "checksum" in capsys.readouterr().err

    def test_k_mismatch_is_a_config_error(self, data_dir, config_file, tmp_path, capsys):
        graphs = tmp_path / "graphs"
        run_cli("prepare", "--data", data_dir, "--k", 4, "--out", graphs)
        code = run_cli(
            "train", "--config", config_file, "--data", data_dir, "--out", tmp_path / "x",
            "--graphs", graphs,
        )
        assert code == 2
        assert "k=4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda manifest: 5, "not a JSON object"),
            (lambda manifest: {**manifest, "num_views": "2"}, "'num_views'"),
            (lambda manifest: {**manifest, "k": 3.0}, "'k'"),
            (lambda manifest: {**manifest, "files": sorted(manifest["files"])}, "'files'"),
            (lambda manifest: {**manifest, "nodes": 0}, "'nodes'"),
            (lambda manifest: {**manifest, "nodes": "24"}, "'nodes'"),
            (lambda manifest: {k: v for k, v in manifest.items() if k != "nodes"}, "'nodes'"),
            (lambda manifest: {**manifest, "format": 3}, "format 3"),
        ],
        ids=[
            "not_an_object", "num_views_string", "k_float", "files_list", "nodes_zero",
            "nodes_string", "nodes_missing", "format_3",
        ],
    )
    def test_malformed_manifest_exits_1_naming_the_field(
        self, data_dir, config_file, tmp_path, capsys, edit, field
    ):
        graphs = tmp_path / "graphs"
        run_cli("prepare", "--data", data_dir, "--k", 3, "--out", graphs)
        manifest = graphs / "manifest.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        capsys.readouterr()
        code = run_cli(
            "train", "--config", config_file, "--data", data_dir, "--out", tmp_path / "x",
            "--graphs", graphs,
        )
        assert code == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_manifest_that_is_not_json_exits_1_naming_it(
        self, data_dir, config_file, tmp_path, capsys
    ):
        graphs = tmp_path / "graphs"
        run_cli("prepare", "--data", data_dir, "--k", 3, "--out", graphs)
        (graphs / "manifest.json").write_text('{"format": 2,\n')
        capsys.readouterr()
        code = run_cli(
            "train", "--config", config_file, "--data", data_dir, "--out", tmp_path / "x",
            "--graphs", graphs,
        )
        assert code == 1
        assert "manifest.json is not valid JSON" in capsys.readouterr().err

    def test_format_1_graph_directory_exits_1_naming_the_format(
        self, data_dir, config_file, tmp_path, capsys
    ):
        # format 1: one dense m x m CSV per view and a manifest without "format"
        graphs = tmp_path / "graphs"
        graphs.mkdir()
        files = {}
        for v, g in enumerate(experiment.prepare_graphs(load_dataset(data_dir), 3, "euclidean")):
            path = graphs / f"view_{v}.csv"
            np.savetxt(path, g.adjacency, delimiter=",", fmt="%.17g")
            files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest = {"k": 3, "metric": "euclidean", "num_views": 2, "nodes": 24, "files": files}
        (graphs / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        code = run_cli(
            "train", "--config", config_file, "--data", data_dir, "--out", tmp_path / "x",
            "--graphs", graphs,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "format 1" in err
        assert "mvgcn prepare" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "edit, line, message",
        [
            (lambda ls, t: _replaced(ls, 1, "row,col,weight"), 1, "expected the header"),
            (lambda ls, t: _replaced(ls, 3, ls[2] + ",1"), 3, "expected 3 columns, found 4"),
            (lambda ls, t: _replaced(ls, 3, ls[2].rsplit(",", 1)[0]), 3, "found 2"),
            (lambda ls, t: ls[:3] + [""] + ls[3:], 4, "expected 3 columns, found 1"),
            (lambda ls, t: _replaced(ls, 3, "x" + ls[2][1:]), 3, "non-numeric cell"),
            (lambda ls, t: _replaced(ls, 3, "0.5" + ls[2][1:]), 3, "not an integer"),
            (lambda ls, t: _replaced(ls, 3, "-1" + ls[2][1:]), 3, "[0, 24)"),
            (lambda ls, t: _replaced(ls, 3, "24" + ls[2][1:]), 3, "[0, 24)"),
            (lambda ls, t: ls[:3] + [ls[2]] + ls[3:], 4, "repeats or is out of row-major order"),
            (lambda ls, t: [ls[0], ls[2], ls[1]] + ls[3:], 3, "out of row-major order"),
            (lambda ls, t: ls[: t - 1] + ls[t:], 3, "has no twin"),
            (lambda ls, t: _replaced(ls, t, _nudged(ls[t - 1])), 3, "has no twin"),
            (lambda ls, t: _replaced(ls, 2, "0,0,inf"), 2, "not finite and positive"),
            (lambda ls, t: _replaced(ls, 2, "0,0,nan"), 2, "not finite and positive"),
            (lambda ls, t: _replaced(ls, 2, "0,0,0"), 2, "not finite and positive"),
            (lambda ls, t: _replaced(ls, 2, "0,0,-0.25"), 2, "not finite and positive"),
            (lambda ls, t: ls[:1], 2, "no edges"),
        ],
        ids=[
            "header", "four_columns", "two_columns", "blank_line", "non_numeric",
            "fractional_index", "negative_index", "index_of_nodes", "repeated_edge",
            "out_of_order", "missing_twin", "unequal_twin", "infinite_value", "nan_value",
            "zero_value", "negative_value", "no_edges",
        ],
    )
    def test_malformed_edge_list_exits_1_naming_file_and_line(
        self, data_dir, config_file, tmp_path, capsys, edit, line, message
    ):
        graphs = tmp_path / "graphs"
        run_cli("prepare", "--data", data_dir, "--k", 3, "--out", graphs)
        target = graphs / "view_0.csv"
        lines = target.read_text().splitlines()
        # line 2 is the self-loop (0, 0), line 3 the edge (0, c); t is the
        # line of its twin (c, 0)
        c = int(lines[2].split(",")[1])
        assert lines[1].startswith("0,0,") and lines[2].startswith("0,") and c > 0
        t = next(n for n, ln in enumerate(lines, start=1) if ln.startswith(f"{c},0,"))
        target.write_text("\n".join(edit(lines, t)) + "\n")
        # the checksum is rewritten, so only the edge list itself is wrong
        manifest_path = graphs / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["view_0.csv"] = hashlib.sha256(target.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        code = run_cli(
            "train", "--config", config_file, "--data", data_dir, "--out", tmp_path / "x",
            "--graphs", graphs,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"view_0.csv: line {line}: " in err
        assert message in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "graphs_from, data_from, sizes",
        [
            ({"m": 40, "num_views": 3}, {"m": 40, "num_views": 2}, ("3 views", "has 2")),
            ({"m": 40, "num_views": 2}, {"m": 24, "num_views": 2}, ("40 nodes", "has 24 samples")),
        ],
    )
    def test_graphs_of_another_dataset_exit_1(
        self, config_file, tmp_path, capsys, graphs_from, data_from, sizes
    ):
        source, target, graphs = tmp_path / "source", tmp_path / "target", tmp_path / "graphs"
        save_dataset(source, make_synthetic(classes=2, noise=0.2, seed=5, **graphs_from))
        save_dataset(target, make_synthetic(classes=2, noise=0.2, seed=6, **data_from))
        assert run_cli("prepare", "--data", source, "--k", 3, "--out", graphs) == 0
        capsys.readouterr()
        code = run_cli(
            "train", "--config", config_file, "--data", target, "--out", tmp_path / "x",
            "--graphs", graphs,
        )
        assert code == 1
        err = capsys.readouterr().err
        for size in sizes:
            assert size in err
        assert "does not match adjacency" not in err
        assert not (tmp_path / "x").exists()

    def test_fit_is_checked_before_any_view_file_is_read(self, config_file, tmp_path, capsys):
        source, target, graphs = tmp_path / "source", tmp_path / "target", tmp_path / "graphs"
        save_dataset(source, make_synthetic(m=40, num_views=2, classes=2, noise=0.2, seed=5))
        save_dataset(target, make_synthetic(m=24, num_views=2, classes=2, noise=0.2, seed=6))
        assert run_cli("prepare", "--data", source, "--k", 3, "--out", graphs) == 0
        for path in graphs.glob("view_*.csv"):
            path.write_text("not an edge list\n")
        capsys.readouterr()
        code = run_cli(
            "train", "--config", config_file, "--data", target, "--out", tmp_path / "x",
            "--graphs", graphs,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "40 nodes" in err and "has 24 samples" in err
        assert "checksum" not in err


class TestEval:
    def test_scores_a_checkpoint(self, data_dir, config_file, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("train", "--config", config_file, "--data", data_dir, "--out", out)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", out / "checkpoint.json", "--data", data_dir) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["samples"] == 24

    def test_missing_checkpoint_exits_1(self, data_dir, tmp_path):
        assert run_cli("eval", "--checkpoint", tmp_path / "none.json", "--data", data_dir) == 1

    @pytest.fixture(scope="class")
    def checkpoint(self, data_dir, config_file, tmp_path_factory):
        out = tmp_path_factory.mktemp("trained")
        run_cli("train", "--config", config_file, "--data", data_dir, "--out", out)
        return out / "checkpoint.json"

    @pytest.mark.parametrize(
        "kwargs, sizes",
        [
            ({"m": 40, "num_views": 2}, ("24 samples", "has 40")),
            ({"m": 24, "num_views": 3}, ("2 views", "has 3")),
            ({"m": 24, "num_views": 2, "features_per_view": 6}, ("20 feature columns", "has 12")),
            ({"m": 24, "num_views": 2, "classes": 3}, ("2 classes", "has 3")),
        ],
    )
    def test_dataset_the_checkpoint_cannot_score_exits_1(
        self, checkpoint, tmp_path, capsys, kwargs, sizes
    ):
        other = tmp_path / "other"
        save_dataset(other, make_synthetic(**{"classes": 2, "noise": 0.2, "seed": 5, **kwargs}))
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", checkpoint, "--data", other) == 1
        err = capsys.readouterr().err
        for size in sizes:
            assert size in err
        assert "does not match adjacency" not in err

    def test_format_1_checkpoint_exits_1_naming_the_format(self, checkpoint, data_dir, tmp_path, capsys):
        payload = json.loads(checkpoint.read_text())
        payload["format"] = 1
        for section in ("params", "first_moment", "second_moment"):
            payload[section] = {name: [[0.0]] for name in payload[section]}
        old = tmp_path / "old.json"
        old.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", old, "--data", data_dir) == 1
        assert "checkpoint format 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("config", [], "config is not a JSON object"),
            ("step", "x", "step must be a non-negative integer"),
            ("step", -1, "step must be a non-negative integer"),
            ("step", True, "step must be a non-negative integer"),
        ],
    )
    def test_malformed_field_exits_1_naming_it(
        self, checkpoint, data_dir, tmp_path, capsys, field, value, message
    ):
        # the config hash is recomputed, so only the field itself is wrong
        def edit(header):
            header[field] = value
            header["config_hash"] = config_digest(header["config"])

        bad = edited_header(checkpoint, tmp_path / "bad.json", edit)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", bad, "--data", data_dir) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"drop": "S2"}, "checkpoint has no parameter 'S2'"),
            ({"drop": "raw_theta"}, "checkpoint has no parameter 'raw_theta'"),
            ({"drop": "W2"}, "checkpoint has no parameter 'W2'"),
            ({"copy": ("W2", "W3")}, "parameter 'W3', which a model with layers=2"),
            ({"config": {"layers": 3}}, "checkpoint has no parameter 'W3'"),
            ({"config": {"hidden_dim": 16}}, "8 hidden units (W1 has shape (20, 8))"),
            (
                {"set": ("raw_theta", (1, 2))},
                "(raw_theta has shape (1, 2)) but the model has 1",
            ),
        ],
        ids=[
            "missing-S2", "missing-raw_theta", "missing-W2", "extra-W3", "layers-3",
            "hidden-dim", "theta-shape",
        ],
    )
    def test_parameters_that_do_not_fit_the_config_exit_1_naming_one(
        self, checkpoint, data_dir, tmp_path, capsys, edit, message
    ):
        # every section is edited alike and saved with its config, so the
        # checkpoint loads and only its fit to the config is wrong
        state, config = load_checkpoint(checkpoint)
        for section in ("params", "first_moment", "second_moment"):
            arrays = getattr(state, section)
            if "drop" in edit:
                del arrays[edit["drop"]]
            if "copy" in edit:
                source, target = edit["copy"]
                arrays[target] = arrays[source]
            if "set" in edit:
                name, shape = edit["set"]
                arrays[name] = np.zeros(shape)
        config.update(edit.get("config", {}))
        bad = tmp_path / "bad.json"
        save_checkpoint(bad, state, config)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", bad, "--data", data_dir) == 1
        assert message in capsys.readouterr().err

    def test_checkpoint_naming_the_removed_field_exits_2(self, checkpoint, data_dir, tmp_path, capsys):
        # checkpoints written while renormalize_after_selection existed store
        # it in their config; the hash is recomputed so only the field is wrong
        def edit(header):
            header["config"]["renormalize_after_selection"] = False
            header["config_hash"] = config_digest(header["config"])

        old = edited_header(checkpoint, tmp_path / "old.json", edit)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", old, "--data", data_dir) == 2
        assert "renormalize_after_selection" in capsys.readouterr().err

    def test_truncated_header_exits_1_naming_the_path(self, checkpoint, data_dir, tmp_path, capsys):
        cut = tmp_path / "cut.json"
        cut.write_bytes(checkpoint.read_bytes()[:40])
        shutil.copyfile(checkpoint.with_suffix(".f64"), cut.with_suffix(".f64"))
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", cut, "--data", data_dir) == 1
        err = capsys.readouterr().err
        assert f"checkpoint {cut} is not valid JSON" in err

    def test_header_without_its_payload_exits_1_naming_both(
        self, checkpoint, data_dir, tmp_path, capsys
    ):
        moved = tmp_path / "moved.json"
        shutil.copyfile(checkpoint, moved)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", moved, "--data", data_dir) == 1
        err = capsys.readouterr().err
        assert str(moved.with_suffix(".f64")) in err and str(moved) in err


class TestInputs:
    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_cell_exits_1_naming_file_and_line(
        self, config_file, tmp_path, capsys, cell
    ):
        d = tmp_path / "data"
        save_dataset(d, make_synthetic(m=24, num_views=2, classes=2, noise=0.2, seed=3))
        lines = (d / "view_2.csv").read_text().splitlines()
        lines[6] = ",".join([cell] + lines[6].split(",")[1:])
        (d / "view_2.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli("train", "--config", config_file, "--data", d, "--out", tmp_path / "x")
        assert code == 1
        err = capsys.readouterr().err
        assert "view_2.csv: line 7: non-finite cell" in err


class TestAtomicWrites:
    def test_failed_csv_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "history_0.csv"
        write_csv(path, ["a", "b"], [[1, 2]])
        before = path.read_bytes()

        def rows():
            yield [3, 4]
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            write_csv(path, ["a", "b"], rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["history_0.csv"]

    def test_failed_json_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_json(path, {"accuracy": 0.5})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"accuracy": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]

    def test_failed_graph_write_keeps_previous_file(self, data_dir, tmp_path):
        out = tmp_path / "graphs"
        assert run_cli("prepare", "--data", data_dir, "--k", 3, "--out", out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # the entry "x" cannot be formatted as a value, so the write fails
        bad = Graph(np.array([[0.5, 0.5], [0.5, "x"]], dtype=object), renormalized=True)
        with pytest.raises(TypeError):
            save_prepared_graphs(out, [bad], 3, "euclidean")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestSweep:
    def test_grid_csv(self, data_dir, config_file, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--param", "tau", "--values", "0.3,0.7",
            "--config", config_file, "--data", data_dir, "--out", out,
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,mean_accuracy,std_accuracy"
        assert len(lines) == 3
        assert lines[1].startswith("0.3,")

    def test_unknown_param_is_usage_error(self, data_dir, config_file, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(
                "sweep", "--param", "momentum", "--values", "0.9",
                "--config", config_file, "--data", data_dir, "--out", tmp_path / "x",
            )
        assert err.value.code == 2

    def test_unparseable_value_exits_2(self, data_dir, config_file, tmp_path, capsys):
        code = run_cli(
            "sweep", "--param", "k", "--values", "2,huge",
            "--config", config_file, "--data", data_dir, "--out", tmp_path / "x",
        )
        assert code == 2
        assert "huge" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "param, values, field",
        [
            ("tau", "0.5,-1", "tau"),
            ("k", "0", "k"),
            ("k", "3,40", "k"),
            ("label-ratio", "1.5", "label_ratio"),
        ],
    )
    def test_out_of_range_value_exits_2_before_training(
        self, data_dir, config_file, tmp_path, capsys, monkeypatch, param, values, field
    ):
        runs = []
        monkeypatch.setattr(experiment, "run_repeats", lambda *args: runs.append(args))
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--param", param, "--values", values,
            "--config", config_file, "--data", data_dir, "--out", out,
        )
        assert code == 2
        assert f"config field {field!r}" in capsys.readouterr().err
        assert runs == []
        assert not (out / "sweep.csv").exists()


class TestAblate:
    def test_four_row_table(self, data_dir, config_file, tmp_path):
        out = tmp_path / "ablation"
        assert run_cli("ablate", "--config", config_file, "--data", data_dir, "--out", out) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "variant,glm,dns,mean_accuracy,std_accuracy"
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "full", "glm-only", "dns-only", "neither",
        ]
