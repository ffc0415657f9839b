import json
import pickle
import struct
from dataclasses import replace

import numpy as np
import pytest

from semihoc.cli import main
from semihoc.datagen import load_features, save_features
from semihoc.hierarchy import load_hierarchy


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated data plus one short training run."""
    root = tmp_path_factory.mktemp("ws")
    assert run(
        "gen", "--out", root / "data", "--seed", 1, "--branching", 2, "--depth", 3,
        "--dim", 8, "--train-per-leaf", 8, "--test-per-leaf", 4, "--labels-per-class", 3,
    ) == 0
    assert run(
        "train", "--features", root / "data" / "features.bin",
        "--hierarchy", root / "data" / "hierarchy.txt", "--out", root / "run",
        "--method", "semihoc", "--epochs", 3, "--labeled-batch-size", 8,
        "--unlabeled-ratio", 2, "--lr", 0.05, "--hidden-dim", 32, "--seed", 0, "--quiet",
    ) == 0
    return root


class TestGen:
    def test_outputs_exist(self, workspace):
        assert (workspace / "data" / "hierarchy.txt").exists()
        assert (workspace / "data" / "features.bin").exists()

    def test_same_seed_identical_files(self, tmp_path):
        for sub in ("a", "b"):
            assert run(
                "gen", "--out", tmp_path / sub, "--seed", 7, "--branching", 2, "--depth", 2,
                "--dim", 4, "--train-per-leaf", 3, "--test-per-leaf", 1,
            ) == 0
        assert (tmp_path / "a" / "features.bin").read_bytes() == (tmp_path / "b" / "features.bin").read_bytes()
        assert (tmp_path / "a" / "hierarchy.txt").read_bytes() == (tmp_path / "b" / "hierarchy.txt").read_bytes()

    def test_refuses_nonempty_dir_without_force(self, tmp_path):
        out = tmp_path / "data"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert run("gen", "--out", out) == 1
        assert run("gen", "--out", out, "--force") == 0

    def test_invalid_config_exit_one(self, tmp_path):
        assert run("gen", "--out", tmp_path / "x", "--ood-fraction", "1.5") == 1


class TestTrain:
    def test_run_dir_contents(self, workspace):
        assert (workspace / "run" / "config.json").exists()
        assert (workspace / "run" / "metrics.csv").exists()
        assert (workspace / "run" / "ckpt_epoch0003.bin").exists()

    def test_config_snapshot_reproduces_run(self, workspace, tmp_path):
        snapshot = workspace / "run" / "config.json"
        assert run(
            "train", "--features", workspace / "data" / "features.bin",
            "--hierarchy", workspace / "data" / "hierarchy.txt",
            "--out", tmp_path / "again", "--config", snapshot, "--quiet",
        ) == 0
        a = (workspace / "run" / "metrics.csv").read_bytes()
        b = (tmp_path / "again" / "metrics.csv").read_bytes()
        assert a == b

    def test_unknown_config_key_exit_one(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"learning_rate": 0.1}))
        code = run(
            "train", "--features", workspace / "data" / "features.bin",
            "--hierarchy", workspace / "data" / "hierarchy.txt",
            "--out", tmp_path / "r", "--config", bad,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "learning_rate" in err and "lr" in err

    def test_resume_equals_uninterrupted(self, workspace, tmp_path):
        args = [
            "train", "--features", workspace / "data" / "features.bin",
            "--hierarchy", workspace / "data" / "hierarchy.txt",
            "--method", "semihoc", "--epochs", 4, "--labeled-batch-size", 8,
            "--unlabeled-ratio", 2, "--lr", 0.05, "--hidden-dim", 32, "--seed", 0,
            "--checkpoint-every", 2, "--quiet",
        ]
        assert run(*args, "--out", tmp_path / "full") == 0
        assert run(*args, "--out", tmp_path / "resumed", "--resume", tmp_path / "full" / "ckpt_epoch0002.bin") == 0
        full = (tmp_path / "full" / "metrics.csv").read_text().splitlines()
        resumed = (tmp_path / "resumed" / "metrics.csv").read_text().splitlines()
        assert resumed[1:] == full[3:]

    def test_no_age_gating_flag(self, workspace, tmp_path):
        assert run(
            "train", "--features", workspace / "data" / "features.bin",
            "--hierarchy", workspace / "data" / "hierarchy.txt",
            "--out", tmp_path / "ng", "--method", "semihoc", "--no-age-gating",
            "--epochs", 2, "--labeled-batch-size", 8, "--unlabeled-ratio", 2,
            "--lr", 0.05, "--hidden-dim", 32, "--seed", 0, "--quiet",
        ) == 0
        cfg = json.loads((tmp_path / "ng" / "config.json").read_text())
        assert cfg["method"] == "semihoc-no-gate"


class TestEval:
    def test_eval_outputs(self, workspace, tmp_path):
        assert run(
            "eval", "--checkpoint", workspace / "run" / "ckpt_epoch0003.bin",
            "--features", workspace / "data" / "features.bin",
            "--hierarchy", workspace / "data" / "hierarchy.txt",
            "--out", tmp_path / "ev", "--split", "test",
        ) == 0
        for name in ("predictions.txt", "bmhd.csv", "decomposition_id.csv", "decomposition_ood.csv", "confidence_bins.csv"):
            assert (tmp_path / "ev" / name).exists()

    def test_eval_deterministic(self, workspace, tmp_path):
        for sub in ("e1", "e2"):
            assert run(
                "eval", "--checkpoint", workspace / "run" / "ckpt_epoch0003.bin",
                "--features", workspace / "data" / "features.bin",
                "--hierarchy", workspace / "data" / "hierarchy.txt",
                "--out", tmp_path / sub,
            ) == 0
        for name in ("predictions.txt", "bmhd.csv", "confidence_bins.csv"):
            assert (tmp_path / "e1" / name).read_bytes() == (tmp_path / "e2" / name).read_bytes()

    def test_train_split_emits_diagnostics(self, workspace, tmp_path):
        assert run(
            "eval", "--checkpoint", workspace / "run" / "ckpt_epoch0003.bin",
            "--features", workspace / "data" / "features.bin",
            "--hierarchy", workspace / "data" / "hierarchy.txt",
            "--out", tmp_path / "tr", "--split", "train",
        ) == 0
        assert (tmp_path / "tr" / "diagnostics.csv").exists()

    def test_hash_mismatch_refused(self, workspace, tmp_path):
        other = tmp_path / "other"
        assert run(
            "gen", "--out", other, "--seed", 2, "--branching", 2, "--depth", 2,
            "--dim", 8, "--train-per-leaf", 3, "--test-per-leaf", 1,
        ) == 0
        code = run(
            "eval", "--checkpoint", workspace / "run" / "ckpt_epoch0003.bin",
            "--features", other / "features.bin",
            "--hierarchy", other / "hierarchy.txt",
            "--out", tmp_path / "bad",
        )
        assert code == 2

    def test_eval_from_prediction_dump(self, workspace, tmp_path):
        assert run(
            "eval", "--checkpoint", workspace / "run" / "ckpt_epoch0003.bin",
            "--features", workspace / "data" / "features.bin",
            "--hierarchy", workspace / "data" / "hierarchy.txt",
            "--out", tmp_path / "src",
        ) == 0
        assert run(
            "eval", "--predictions", tmp_path / "src" / "predictions.txt",
            "--features", workspace / "data" / "features.bin",
            "--hierarchy", workspace / "data" / "hierarchy.txt",
            "--out", tmp_path / "dump",
        ) == 0
        assert (tmp_path / "src" / "bmhd.csv").read_bytes() == (tmp_path / "dump" / "bmhd.csv").read_bytes()


class TestInspect:
    def test_inspect_all(self, workspace, capsys):
        assert run(
            "inspect", "--hierarchy", workspace / "data" / "hierarchy.txt",
            "--features", workspace / "data" / "features.bin",
            "--checkpoint", workspace / "run" / "ckpt_epoch0003.bin",
        ) == 0
        out = capsys.readouterr().out
        assert "nodes:" in out and "samples:" in out and "epochs completed: 3" in out

    def test_nothing_to_inspect(self):
        assert run("inspect") == 1


class TestOracleCheck:
    def test_all_pass(self, capsys):
        assert run("oracle-check", "--cases", 20, "--seed", 7) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    @pytest.mark.parametrize("fault", ["tree", "fusion", "cutoff", "gradient"])
    def test_injected_fault_detected(self, fault, capsys):
        assert run("oracle-check", "--cases", 10, "--seed", 7, "--inject-fault", fault) == 2
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_reproducible_case_set(self, capsys):
        assert run("oracle-check", "--cases", 15, "--seed", 3) == 0
        first = capsys.readouterr().out
        assert run("oracle-check", "--cases", 15, "--seed", 3) == 0
        assert capsys.readouterr().out == first


def read_diagnostics(path):
    header, row = path.read_text().splitlines()
    return dict(zip(header.split(","), row.split(",")))


class TestGateDiagnostics:
    def test_unknown_ground_truth_is_never_a_false_positive(self, workspace, tmp_path):
        """Unlabeled samples without ground truth count toward the assignments
        and the coverage, never toward the incorrect ones."""
        from dataclasses import replace

        from semihoc.datagen import NO_LABEL, SPLIT_UNLABELED, save_features

        hierarchy = load_hierarchy(workspace / "data" / "hierarchy.txt")
        dataset = load_features(workspace / "data" / "features.bin", hierarchy)
        labels = dataset.labels.copy()
        labels[dataset.splits == SPLIT_UNLABELED] = NO_LABEL
        save_features(replace(dataset, labels=labels), tmp_path / "stripped.bin")
        inputs = ["--features", tmp_path / "stripped.bin", "--hierarchy", workspace / "data" / "hierarchy.txt"]
        assert run(
            "train", *inputs, "--out", tmp_path / "run", "--method", "semihoc", "--epochs", 3,
            "--labeled-batch-size", 8, "--unlabeled-ratio", 2, "--lr", 0.05, "--hidden-dim", 32,
            "--seed", 0, "--tau", 0.6, "--quiet",
        ) == 0
        assert run(
            "eval", "--checkpoint", tmp_path / "run" / "ckpt_epoch0003.bin", *inputs,
            "--out", tmp_path / "ev", "--split", "all",
        ) == 0
        diagnostics = read_diagnostics(tmp_path / "ev" / "diagnostics.csv")
        assert int(diagnostics["n_assignments"]) > 0
        assert diagnostics["n_incorrect"] == "0" and diagnostics["fpr_defined"] == "0"


class TestBrokenCheckpoint:
    @pytest.mark.parametrize("kind", ["truncated", "six-byte"])
    def test_eval_and_inspect_exit_two(self, workspace, tmp_path, capsys, kind):
        original = (workspace / "run" / "ckpt_epoch0003.bin").read_bytes()
        broken = tmp_path / "broken.bin"
        broken.write_bytes(original[: len(original) // 2] if kind == "truncated" else b"SHCK\x02\x00")
        inputs = ["--features", workspace / "data" / "features.bin", "--hierarchy", workspace / "data" / "hierarchy.txt"]
        for argv in (
            ["eval", "--checkpoint", broken, *inputs, "--out", tmp_path / "ev"],
            ["inspect", "--checkpoint", broken],
        ):
            capsys.readouterr()
            assert run(*argv) == 2
            err = capsys.readouterr().err
            assert "checkpoint:" in err and str(broken) in err and "Traceback" not in err


def read_entries(path):
    """The arrays of a checkpoint file, read past its 8-byte prefix."""
    with open(path, "rb") as fh:
        fh.seek(8)
        with np.load(fh) as npz:
            return {name: npz[name] for name in npz.files}


def write_checkpoint(path, entries):
    with open(path, "wb") as fh:
        fh.write(b"SHCK" + struct.pack("<I", 3))
        np.savez(fh, **entries)


class TestCheckpointEntries:
    """A checkpoint that lacks or mistypes an entry exits 2 from every
    command that reads it, naming the file and the entry."""

    @pytest.mark.parametrize(
        "kind, named",
        [
            ("no-meta", "meta"),
            ("no-head-array", "teacher.d2.b1"),
            ("meta-not-object", "meta"),
            ("object-entry", "loader.perm"),
            ("mis-shaped", "student.d1.w0"),
            ("mis-typed", "velocity.d3.b3"),
            ("version-2-pickle", "unsupported checkpoint version 2"),
            ("nan-lr", "lr must be finite"),
        ],
    )
    def test_every_reader_exits_two(self, workspace, tmp_path, capsys, kind, named):
        entries = read_entries(workspace / "run" / "ckpt_epoch0003.bin")
        if kind == "no-meta":
            del entries["meta"]
        elif kind == "no-head-array":
            del entries["teacher.d2.b1"]
        elif kind == "meta-not-object":
            entries["meta"] = np.array("[1, 2]")
        elif kind == "object-entry":
            entries["loader.perm"] = np.array([None, 1], dtype=object)
        elif kind == "mis-shaped":
            entries["student.d1.w0"] = entries["student.d1.w0"][:1]
        elif kind == "mis-typed":
            entries["velocity.d3.b3"] = entries["velocity.d3.b3"].astype(np.float32)
        elif kind == "nan-lr":
            meta = json.loads(entries["meta"].item())
            meta["config"]["lr"] = float("nan")
            entries["meta"] = np.array(json.dumps(meta))
        broken = tmp_path / "broken.bin"
        if kind == "version-2-pickle":
            broken.write_bytes(b"SHCK" + struct.pack("<I", 2) + pickle.dumps({}, protocol=4))
        else:
            write_checkpoint(broken, entries)
        inputs = ["--features", workspace / "data" / "features.bin", "--hierarchy", workspace / "data" / "hierarchy.txt"]
        for argv in (
            ["inspect", "--checkpoint", broken],
            ["eval", "--checkpoint", broken, *inputs, "--out", tmp_path / "ev"],
            ["train", *inputs, "--out", tmp_path / "tr", "--resume", broken, "--quiet"],
        ):
            capsys.readouterr()
            assert run(*argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert f"checkpoint: {broken}" in err and named in err and "Traceback" not in err

    def test_layout(self, workspace):
        """Named arrays plus one JSON meta string; the log stays sparse."""
        entries = read_entries(workspace / "run" / "ckpt_epoch0003.bin")
        meta = json.loads(entries.pop("meta").item())
        assert meta["epoch"] == 3 and meta["config"]["hidden_dim"] == 32
        assert {"hierarchy_hash", "feature_dim", "classes", "streams", "loader_pos", "gate"} <= meta.keys()
        depths = len(meta["classes"])
        assert sum(name.split(".")[0] in ("student", "teacher", "velocity") for name in entries) == 3 * 8 * depths
        assert entries["student.d1.w0"].shape == (meta["feature_dim"], 32)
        lengths = {len(entries[f"log.{key}"]) for key in ("sample_id", "node", "epoch")}
        assert len(lengths) == 1 and all(entries[name].dtype != object for name in entries)


TRAIN_SMALL = ["--method", "semihoc", "--epochs", 1, "--labeled-batch-size", 8, "--unlabeled-ratio", 2]
TRAIN_SMALL += ["--hidden-dim", 16, "--seed", 0, "--quiet"]


class TestHeadShapes:
    """A checkpoint's head arrays must match the model the feature file
    implies; numpy broadcasting used to hide a mismatch."""

    @pytest.fixture(scope="class")
    def narrow(self, workspace, tmp_path_factory):
        """Copies of the workspace features cut to 1 and 4 columns, and a
        1-epoch run on the 1-column copy."""
        root = tmp_path_factory.mktemp("narrow")
        dataset = load_features(workspace / "data" / "features.bin")
        for cols in (1, 4):
            save_features(replace(dataset, features=dataset.features[:, :cols].copy()), root / f"dim{cols}.bin")
        hierarchy = workspace / "data" / "hierarchy.txt"
        assert run("train", "--features", root / "dim1.bin", "--hierarchy", hierarchy, "--out", root / "run", *TRAIN_SMALL) == 0
        return root

    def test_eval_refuses_narrow_checkpoint_on_wide_features(self, workspace, narrow, tmp_path, capsys):
        code = run(
            "eval", "--checkpoint", narrow / "run" / "ckpt_epoch0001.bin",
            "--features", workspace / "data" / "features.bin",
            "--hierarchy", workspace / "data" / "hierarchy.txt", "--out", tmp_path / "ev",
        )
        err = capsys.readouterr().err
        assert code == 2 and "checkpoint:" in err and "depth 1 student parameter w0" in err

    def test_eval_refuses_wide_checkpoint_on_narrow_features(self, workspace, narrow, tmp_path, capsys):
        code = run(
            "eval", "--checkpoint", workspace / "run" / "ckpt_epoch0003.bin",
            "--features", narrow / "dim4.bin",
            "--hierarchy", workspace / "data" / "hierarchy.txt", "--out", tmp_path / "ev",
        )
        err = capsys.readouterr().err
        assert code == 2 and "depth 1 student parameter w0" in err

    def test_resume_refuses_mismatched_heads(self, workspace, narrow, tmp_path, capsys):
        code = run(
            "train", "--features", workspace / "data" / "features.bin",
            "--hierarchy", workspace / "data" / "hierarchy.txt", "--out", tmp_path / "tr",
            "--resume", narrow / "run" / "ckpt_epoch0001.bin", *TRAIN_SMALL,
        )
        err = capsys.readouterr().err
        assert code == 2 and "depth 1 student parameter w0" in err


def inputs_of(workspace):
    return ["--features", workspace / "data" / "features.bin", "--hierarchy", workspace / "data" / "hierarchy.txt"]


class TestOptimizerSettings:
    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--weight-decay", "nan"), ("--weight-decay", "-5")])
    def test_bad_value_exits_one_naming_the_field(self, workspace, tmp_path, capsys, flag, value):
        code = run("train", *inputs_of(workspace), "--out", tmp_path / "r", *TRAIN_SMALL, flag, value)
        err = capsys.readouterr().err
        assert code == 1 and flag[2:].replace("-", "_") in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_stops_training_with_exit_two(self, workspace, tmp_path, capsys):
        """A finite learning rate can still blow the heads up; training stops
        at the first epoch with a non-finite loss and writes no checkpoint."""
        code = run("train", *inputs_of(workspace), "--out", tmp_path / "r", *TRAIN_SMALL, "--epochs", 3, "--lr", "1e300")
        err = capsys.readouterr().err
        assert code == 2 and "non-finite loss" in err and "depth" in err
        assert not list((tmp_path / "r").glob("ckpt_*"))


class TestPredictionDumpErrors:
    """Every malformed prediction-dump line exits 2 and names the line."""

    @pytest.fixture(scope="class")
    def dump_lines(self, workspace, tmp_path_factory):
        out = tmp_path_factory.mktemp("dump")
        ckpt = workspace / "run" / "ckpt_epoch0003.bin"
        assert run("eval", "--checkpoint", ckpt, *inputs_of(workspace), "--out", out, "--split", "all", "--force") == 0
        return (out / "predictions.txt").read_text().splitlines()

    @pytest.mark.parametrize(
        "field, text, named",
        [
            (0, "x12", "sample id 'x12'"),
            (0, "999999", "unknown sample id 999999"),
            (1, "n3", "node 'n3'"),
            (1, "999", "unknown node id 999"),
            (2, "high", "confidence 'high'"),
            (3, "0", "chain entry '0'"),
            (3, "0:1.0,1:abc", "subtree confidence 'abc'"),
            (4, "extra", "expected 4 tab-separated fields"),
        ],
    )
    def test_exit_two_with_line_number(self, workspace, dump_lines, tmp_path, capsys, field, text, named):
        lines = list(dump_lines)
        parts = lines[1].split("\t")
        if field < 4:
            parts[field] = text
        else:
            parts.append(text)
        lines[1] = "\t".join(parts)
        dump = tmp_path / "predictions.txt"
        dump.write_text("\n".join(lines) + "\n")
        code = run("eval", "--predictions", dump, *inputs_of(workspace), "--out", tmp_path / "ev", "--split", "all")
        err = capsys.readouterr().err
        assert code == 2 and f"prediction dump line 2: {named}" in err and "Traceback" not in err

    @pytest.mark.parametrize("at", [0, 5])
    def test_invalid_utf8_exits_two_with_line_number(self, workspace, dump_lines, tmp_path, capsys, at):
        data = bytearray(("\n".join(dump_lines) + "\n").encode("utf-8"))
        data[len(dump_lines[0]) + len(dump_lines[1]) + 2 + at] = 0xFF  # inside the third line
        dump = tmp_path / "predictions.txt"
        dump.write_bytes(data)
        code = run("eval", "--predictions", dump, *inputs_of(workspace), "--out", tmp_path / "ev", "--split", "all")
        err = capsys.readouterr().err
        assert code == 2 and "prediction dump line 3: 'utf-8' codec can't decode" in err and "Traceback" not in err
