import json
import os
import pickle
import struct
import subprocess
import sys
import time
import tracemalloc
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import semihoc
from semihoc import cli
from semihoc import hierarchy as hierarchy_mod
from semihoc.cli import main
from semihoc.datagen import NO_LABEL, SPLIT_TEST, SPLIT_UNLABELED, SyntheticConfig, generate, load_features, save_features
from semihoc.heads import ROLES, DepthHeads
from semihoc.hierarchy import load_hierarchy, save_hierarchy
from semihoc.prohoc import subtree_confidences
from semihoc.trainer import CHECKPOINT_VERSION, LOG_KEYS, PREDICT_BATCH, TrainConfig, blas_library, load_checkpoint, predict_dataset


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

    @pytest.mark.parametrize(
        "flags, size",
        [
            (["--train-per-leaf", 10**12], "GiB"),  # numpy's allocation failed with a traceback
            (["--branching", 1000, "--depth", 6], "GiB"),  # the tree was built by Python loops over 10^18 nodes
            (["--depth", 700], "over 2^"),  # more bytes than a float holds
        ],
    )
    def test_data_past_the_memory_exit_one_before_any_output(self, tmp_path, capsys, flags, size):
        """Sizes no machine holds, refused from arithmetic alone: nothing is allocated."""
        assert run("gen", "--out", tmp_path / "x", *flags) == 1
        err = capsys.readouterr().err
        assert "float64 draws and float32 features of the synthetic data need" in err and size in err
        assert "Traceback" not in err and not (tmp_path / "x").exists()

    def test_no_labels_per_class_exit_one_before_any_output(self, tmp_path, capsys):
        """It generated the data and made --out, then exited 1 and left the directory empty."""
        assert run("gen", "--out", tmp_path / "x", "--labels-per-class", 0) == 1
        assert "--labels-per-class must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_no_optional_flag_writes_the_default_config(self, tmp_path):
        """Every flag's default is SyntheticConfig's: gen with --out alone writes generate(SyntheticConfig())."""
        assert run("gen", "--out", tmp_path / "cli") == 0
        hierarchy, dataset = generate(SyntheticConfig())
        save_hierarchy(hierarchy, tmp_path / "hierarchy.txt")
        save_features(dataset, tmp_path / "features.bin")
        for name in ("hierarchy.txt", "features.bin"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes(), name


class TestTrain:
    def test_run_dir_contents(self, workspace):
        assert (workspace / "run" / "config.json").exists()
        assert (workspace / "run" / "metrics.csv").exists()
        assert (workspace / "run" / "ckpt_epoch0003.bin").exists()

    def test_first_line_names_the_blas_and_the_depth_workers(self, workspace, tmp_path, capsys, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.setenv(var, "1")
        args = ["train", "--features", workspace / "data" / "features.bin", "--epochs", 2, "--hidden-dim", 32,
                "--hierarchy", workspace / "data" / "hierarchy.txt"]
        assert run(*args, "--out", tmp_path / "loud") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"blas: {blas_library()}, threads per call: 1, depth workers: 1"  # hidden 32 runs inline
        assert lines[1].startswith("epoch 0 ")
        assert run(*args, "--out", tmp_path / "quiet", "--quiet") == 0
        assert not capsys.readouterr().out.startswith("blas")
        for name in ("metrics.csv", "config.json"):
            assert (tmp_path / "loud" / name).read_bytes() == (tmp_path / "quiet" / name).read_bytes()

    def test_heads_past_the_memory_exit_one_before_any_output(self, workspace, tmp_path, capsys):
        """Role buffers of hidden 10^7 fit no machine, refused from arithmetic alone; it made --out, then ended
        in numpy's allocation traceback."""
        code = run(
            "train", "--features", workspace / "data" / "features.bin", "--hierarchy", workspace / "data" / "hierarchy.txt",
            "--out", tmp_path / "r", "--hidden-dim", 10**7, "--quiet",
        )
        err = capsys.readouterr().err
        assert code == 1 and f"velocity buffers of hidden_dim {10**7} need" in err and "GiB" in err
        assert "Traceback" not in err and not (tmp_path / "r").exists()

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

    def test_hash_mismatch_refused(self, workspace, tmp_path, capsys):
        other = tmp_path / "other"
        assert run(
            "gen", "--out", other, "--seed", 2, "--branching", 2, "--depth", 2,
            "--dim", 8, "--train-per-leaf", 3, "--test-per-leaf", 1,
        ) == 0
        ckpt, inputs = workspace / "run" / "ckpt_epoch0003.bin", ["--features", other / "features.bin"]
        inputs += ["--hierarchy", other / "hierarchy.txt"]
        for argv in (
            ["eval", "--checkpoint", ckpt, *inputs, "--out", tmp_path / "bad"],
            ["inspect", "--hierarchy", other / "hierarchy.txt", "--checkpoint", ckpt],
            ["train", *inputs, "--out", tmp_path / "tr", "--resume", ckpt, *WORKSPACE_RUN],
        ):
            capsys.readouterr()
            assert run(*argv) == 2, argv[0]
            assert "entry meta: hierarchy_hash" in capsys.readouterr().err

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

    @pytest.mark.parametrize("bins", [0, -4])
    def test_bins_below_one_exit_one_before_any_output(self, workspace, tmp_path, capsys, bins):
        code = run(
            "eval", "--checkpoint", workspace / "run" / "ckpt_epoch0003.bin", *inputs_of(workspace),
            "--out", tmp_path / "ev", "--bins", bins,
        )
        err = capsys.readouterr().err
        assert code == 1 and "--bins" in err and "Traceback" not in err
        assert not (tmp_path / "ev").exists()

    def test_bins_past_the_memory_exit_one_before_any_output(self, workspace, tmp_path, capsys):
        """The per-bin arrays of 10^15 bins fit no machine; it wrote the predictions and three reports, then
        ended in numpy's allocation traceback."""
        code = run(
            "eval", "--checkpoint", workspace / "run" / "ckpt_epoch0003.bin", *inputs_of(workspace),
            "--out", tmp_path / "ev", "--bins", 10**15,
        )
        err = capsys.readouterr().err
        assert code == 1 and f"per-bin arrays of --bins {10**15} need" in err and "GiB" in err and "Traceback" not in err
        assert not (tmp_path / "ev").exists()


class TestFeatureMemory:
    def test_training_refuses_vectors_past_the_memory_where_eval_and_inspect_hold_the_columns(
        self, large_split, tmp_path, capsys, monkeypatch
    ):
        """20,480 rows at dim 8: train reads 655,360 bytes of vectors, eval and inspect keep 348,160 of columns."""
        monkeypatch.setattr(cli.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 128}.get)  # 512 KiB
        assert run("train", *inputs_of(large_split), "--out", tmp_path / "run", "--quiet") == 2
        err = capsys.readouterr().err
        message = "feature file: the vectors of 20480 records at dim 8 need 0.00061 GiB, more than the 0.000488 GiB"
        assert message in err and "Traceback" not in err and not (tmp_path / "run").exists()
        assert run("inspect", *inputs_of(large_split)) == 0
        assert run(
            "eval", "--checkpoint", large_split / "run" / "ckpt_epoch0001.bin", *inputs_of(large_split),
            "--out", tmp_path / "ev", "--split", "all",
        ) == 0
        monkeypatch.setattr(cli.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 64}.get)  # 256 KiB
        capsys.readouterr()
        assert run("inspect", *inputs_of(large_split)) == 2
        err = capsys.readouterr().err
        assert "feature file: the id, label and split columns of 20480 records need 0.000324 GiB" in err
        assert "Traceback" not in err


class TestInspect:
    def test_inspect_all(self, workspace, capsys):
        assert run(
            "inspect", "--hierarchy", workspace / "data" / "hierarchy.txt",
            "--features", workspace / "data" / "features.bin",
            "--checkpoint", workspace / "run" / "ckpt_epoch0003.bin",
        ) == 0
        out = capsys.readouterr().out
        assert "nodes:" in out and "samples:" in out and "epochs completed: 3" in out

    def test_checkpoint_head_dtype_and_weight_norms(self, workspace, capsys):
        ckpt = workspace / "run" / "ckpt_epoch0003.bin"
        assert run("inspect", "--checkpoint", ckpt) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines() if ": " in line)
        entries = read_entries(ckpt)
        depths = len(json.loads(entries["meta"].item())["classes"])
        assert lines["head dtype"] == "float32"
        for d in range(1, depths + 1):
            norms = [np.sqrt(sum((entries[f"{role}.d{d}.w{i}"].astype(np.float64) ** 2).sum() for i in range(4)))
                     for role in ("student", "teacher")]
            assert lines[f"depth {d} weight norm"] == f"student {norms[0]:.6g}  teacher {norms[1]:.6g}"
        assert f"depth {depths + 1} weight norm" not in lines

    def test_nothing_to_inspect(self):
        assert run("inspect") == 1

    def test_cyclic_hierarchy_exit_two(self, tmp_path, capsys):
        path = tmp_path / "tree.txt"
        path.write_text("a\tr\nb\tc\nc\tb\n#id\na\n")
        assert run("inspect", "--hierarchy", path) == 2
        err = capsys.readouterr().err
        assert "hierarchy file: parent links contain a cycle" in err and "Traceback" not in err

    def test_too_deep_hierarchy_exit_two(self, tmp_path, capsys, monkeypatch):
        """A chain of 50,000 nodes, a 0.7 MB file, ended in numpy's traceback for an 18.6 GiB ancestor table."""
        path = tmp_path / "chain.txt"
        path.write_text("".join(f"n{i}\tn{i - 1}\n" for i in range(1, 50000)) + "#id\nn49999\n")
        monkeypatch.setattr(cli.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**20}.get)
        assert run("inspect", "--hierarchy", path) == 2
        err = capsys.readouterr().err
        assert "hierarchy file: the ancestor and path tables of 50000 nodes 49999 deep need 67.7 GiB" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval-checkpoint", "eval-predictions", "inspect"])
    def test_no_command_imports_numpy_ma(self, workspace, tmp_path, command):
        """numpy 2.4's plain np.unique, np.union1d and sort-kind np.isin import numpy.ma: 1.3 MiB and 15 ms a process."""
        ckpt, dump = workspace / "run" / "ckpt_epoch0003.bin", tmp_path / "dump" / "predictions.txt"
        assert run("eval", "--checkpoint", ckpt, *inputs_of(workspace), "--out", dump.parent, "--split", "all") == 0
        argv = {
            "eval-checkpoint": ["eval", "--checkpoint", ckpt, *inputs_of(workspace), "--out", tmp_path / "ev", "--split", "all"],
            "eval-predictions": ["eval", "--predictions", dump, *inputs_of(workspace), "--out", tmp_path / "ev", "--split", "all"],
            "inspect": ["inspect", *inputs_of(workspace), "--checkpoint", ckpt],
        }[command]
        assert not imports_numpy_ma(argv)

    def test_sparse_ids_import_no_numpy_ma(self, workspace, tmp_path):
        """On random 63-bit sample ids, np.isin sorts, and imports numpy.ma; one argsort and searchsorted do not."""
        hierarchy = load_hierarchy(workspace / "data" / "hierarchy.txt")
        dataset = load_features(workspace / "data" / "features.bin", hierarchy)
        ids = np.random.default_rng(3).integers(0, 2**63, len(dataset), dtype=np.uint64)
        assert len(set(ids.tolist())) == len(ids)
        sparse = replace(dataset, features=dataset.features[:], sample_ids=ids)
        save_features(sparse, tmp_path / "sparse.bin")
        inputs = ["--features", tmp_path / "sparse.bin", "--hierarchy", workspace / "data" / "hierarchy.txt"]
        ckpt, dump = workspace / "run" / "ckpt_epoch0003.bin", tmp_path / "dump" / "predictions.txt"
        assert run("eval", "--checkpoint", ckpt, *inputs, "--out", dump.parent, "--split", "all") == 0
        assert run("eval", "--checkpoint", ckpt, *inputs, "--out", tmp_path / "test", "--split", "test") == 0
        assert not imports_numpy_ma(["eval", "--predictions", dump, *inputs, "--out", tmp_path / "ev", "--split", "test"])
        for report in ("bmhd.csv", "confidence_bins.csv"):  # the dump's test rows, picked out by id
            assert (tmp_path / "ev" / report).read_bytes() == (tmp_path / "test" / report).read_bytes()
        truth = dict(zip(ids.tolist(), sparse.labels.tolist()))
        asked = np.concatenate([ids[::-3], [0, 2**63 + 5], ids[:4]]).astype(np.uint64)
        assert sparse.labels_of(asked).tolist() == [truth.get(i, NO_LABEL) for i in asked.tolist()]

    def test_name_repeated_on_the_last_of_20001_lines_exits_two_at_once(self, tmp_path, capsys):
        """Counting every name's copies, once for each name, took 10.2 s to find the repeat."""
        path = tmp_path / "tree.txt"
        path.write_text("".join(f"n{i}\tr\n" for i in range(1, 20000)) + "n19999\tr\n#id\n")
        start = time.perf_counter()
        assert run("inspect", "--hierarchy", path) == 2
        assert time.perf_counter() - start < 5
        assert "hierarchy file: node 'n19999' defined more than once" in capsys.readouterr().err


class TestHashedOnce:
    def test_each_command_hashes_the_tree_once(self, workspace, tmp_path, monkeypatch):
        """The tree's content hash is computed once per command, however many files check it."""
        data, hashed = workspace / "data", []
        tree_bytes, real = (data / "hierarchy.txt").read_bytes(), hierarchy_mod.fnv1a_64
        monkeypatch.setattr(hierarchy_mod, "fnv1a_64", lambda content: hashed.append(content) or real(content))
        inputs = ["--features", data / "features.bin", "--hierarchy", data / "hierarchy.txt"]
        train = ["train", *inputs, "--epochs", 2, "--checkpoint-every", 1, "--hidden-dim", 32, "--quiet"]
        ckpt = tmp_path / "run" / "ckpt_epoch0001.bin"
        commands = {
            "train": [*train, "--out", tmp_path / "run"],
            "train --resume": [*train, "--out", tmp_path / "resumed", "--resume", ckpt],
            "eval --checkpoint": ["eval", "--checkpoint", ckpt, *inputs, "--out", tmp_path / "eval"],
            "inspect": ["inspect", *inputs, "--checkpoint", ckpt],
        }
        for name, argv in commands.items():
            hashed.clear()
            assert run(*argv) == 0, name
            assert hashed == [tree_bytes], name


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

    @pytest.mark.parametrize("cases", [0, -2])
    def test_cases_below_one_exit_one(self, capsys, cases):
        assert run("oracle-check", "--cases", cases) == 1
        captured = capsys.readouterr()
        assert "--cases" in captured.err and "PASS" not in captured.out

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

    @pytest.fixture(scope="class")
    def supervised_ckpt(self, workspace, tmp_path_factory):
        """A supervised run's checkpoint: its log and history are empty."""
        out = tmp_path_factory.mktemp("supervised")
        inputs = ["--features", workspace / "data" / "features.bin", "--hierarchy", workspace / "data" / "hierarchy.txt"]
        assert run("train", *inputs, "--out", out, *SUPERVISED_RUN) == 0
        entries = read_entries(out / "ckpt_epoch0003.bin")
        assert not any(len(entries[f"{name}.node"]) for name in ("log", "history"))
        return out / "ckpt_epoch0003.bin"

    @pytest.mark.parametrize("split", ["train", "all"])
    def test_empty_log_still_writes_diagnostics(self, workspace, supervised_ckpt, tmp_path, split):
        inputs = ["--features", workspace / "data" / "features.bin", "--hierarchy", workspace / "data" / "hierarchy.txt"]
        assert run("eval", "--checkpoint", supervised_ckpt, *inputs, "--out", tmp_path / "ev", "--split", split) == 0
        assert (tmp_path / "ev" / "diagnostics.csv").read_text().splitlines()[1] == ",,0.0,1.0,0,0,0"

    def test_empty_log_still_checks_the_cutoffs(self, workspace, supervised_ckpt, tmp_path, capsys):
        entries = read_entries(supervised_ckpt)
        meta = json.loads(entries["meta"].item())
        meta["gate"]["cutoffs"]["99999"] = 1.0
        entries["meta"] = np.array(json.dumps(meta))
        broken = tmp_path / "broken.bin"
        write_checkpoint(broken, entries)
        inputs = ["--features", workspace / "data" / "features.bin", "--hierarchy", workspace / "data" / "hierarchy.txt"]
        for argv in (
            ["eval", "--checkpoint", broken, *inputs, "--out", tmp_path / "ev", "--split", "train"],
            ["train", *inputs, "--out", tmp_path / "tr", "--resume", broken, *SUPERVISED_RUN],
        ):
            capsys.readouterr()
            assert run(*argv) == 2, argv
            err = capsys.readouterr().err
            assert "cutoff on node 99999" in err and "Traceback" not in err
            assert argv[0] == "train" or f"checkpoint: {broken}" in err


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

    @pytest.mark.parametrize("name", ["extra", "loader.perm"])
    def test_deflated_entry_refused_before_it_is_read(self, workspace, tmp_path, capsys, name):
        """Two checkpoints that differ only in the compression of one entry, 16 MiB of zeros: the
        stored one is read in full and refused for its contents, the deflated one from the zip
        directory. A deflated entry expands about 1,000-fold: a 0.86 MB file filled 192 MB."""
        entries = {**read_entries(workspace / "run" / "ckpt_epoch0003.bin"), name: np.zeros(1 << 21)}
        peaks, errors = {}, {}
        for compression in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
            path = tmp_path / f"{compression}.bin"
            with open(path, "wb") as fh:
                fh.write(b"SHCK" + struct.pack("<I", CHECKPOINT_VERSION))
                with zipfile.ZipFile(fh, "w") as zf:
                    for entry, array in entries.items():
                        info = zipfile.ZipInfo(f"{entry}.npy")
                        info.compress_type = compression if entry == name else zipfile.ZIP_STORED
                        with zf.open(info, "w", force_zip64=True) as member:
                            np.lib.format.write_array(member, array)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=f"entry {name}") as errors[compression]:
                    load_checkpoint(path)
                peaks[compression] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[zipfile.ZIP_STORED] > 16 << 20 and peaks[zipfile.ZIP_DEFLATED] < 5e6, peaks
        assert "compressed" not in str(errors[zipfile.ZIP_STORED].value)
        assert str(errors[zipfile.ZIP_DEFLATED].value) == f"{path}: entry {name} is compressed, not stored"
        inputs = ["--features", workspace / "data" / "features.bin", "--hierarchy", workspace / "data" / "hierarchy.txt"]
        for argv in (["inspect", "--checkpoint", path], ["eval", "--checkpoint", path, *inputs, "--out", tmp_path / "ev"]):
            capsys.readouterr()
            assert run(*argv) == 2
            err = capsys.readouterr().err
            assert f"checkpoint: {path}: entry {name} is compressed, not stored" in err and "Traceback" not in err


    def test_over_claiming_header_refused_before_it_is_reserved(self, workspace, tmp_path, capsys):
        """A meta.npy whose header claims 50,000,000 float64 over 8 bytes of data: numpy reserved
        the 400 MB it claims before its short read failed. Its honest twin loads."""
        entries = read_entries(workspace / "run" / "ckpt_epoch0003.bin")
        paths = {kind: tmp_path / f"{kind}.bin" for kind in ("honest", "over")}
        for kind, path in paths.items():
            with open(path, "wb") as fh:
                fh.write(b"SHCK" + struct.pack("<I", CHECKPOINT_VERSION))
                with zipfile.ZipFile(fh, "w") as zf:
                    for entry, array in (entries if kind == "honest" else {"meta": None}).items():
                        with zf.open(f"{entry}.npy", "w") as member:
                            if array is not None:
                                np.lib.format.write_array(member, array)
                            else:
                                header = {"descr": "<f8", "fortran_order": False, "shape": (50_000_000,)}
                                np.lib.format.write_array_header_1_0(member, header)
                                member.write(bytes(8))
        state, original = load_checkpoint(paths["honest"]), load_checkpoint(workspace / "run" / "ckpt_epoch0003.bin")
        assert state.keys() == original.keys() and state["meta"] == original["meta"]
        assert all(np.array_equal(state[k], original[k]) for k in entries if k != "meta")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{paths['over']}: entry meta: header claims 400000000 bytes"):
                load_checkpoint(paths["over"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6, peak
        inputs = ["--features", workspace / "data" / "features.bin", "--hierarchy", workspace / "data" / "hierarchy.txt"]
        for argv in (["inspect", "--checkpoint", paths["over"]], ["eval", "--checkpoint", paths["over"], *inputs, "--out", tmp_path / "ev"]):
            capsys.readouterr()
            assert run(*argv) == 2
            err = capsys.readouterr().err
            assert f"checkpoint: {paths['over']}: entry meta: header claims" in err and "Traceback" not in err


def read_entries(path):
    """The arrays of a checkpoint file, read past its 8-byte prefix."""
    with open(path, "rb") as fh:
        fh.seek(8)
        with np.load(fh) as npz:
            return {name: npz[name] for name in npz.files}


def write_checkpoint(path, entries, version=CHECKPOINT_VERSION):
    with open(path, "wb") as fh:
        fh.write(b"SHCK" + struct.pack("<I", version))
        np.savez(fh, **entries)


WORKSPACE_RUN = ["--method", "semihoc", "--epochs", 3, "--labeled-batch-size", 8, "--unlabeled-ratio", 2]
WORKSPACE_RUN += ["--lr", 0.05, "--hidden-dim", 32, "--seed", 0, "--quiet"]  # the config of the workspace run
SUPERVISED_RUN = ["supervised" if a == "semihoc" else a for a in WORKSPACE_RUN]  # it logs no assignment


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
            ("version-3", "unsupported checkpoint version 3"),
            ("nan-lr", "lr must be finite"),
            ("tau-below-one-half", "tau must be >= 0.5"),
            ("bool-ema-momentum", "entry meta: ema_momentum must be a number, got True"),
            ("nan-cutoff", "entry meta: cutoff of node 1 is nan"),
            ("negative-cutoff", "entry meta: cutoff of node 1 is -2.0"),
            ("zero-gate-bin-width", "entry meta: gate bin_width 0 and drop_threshold 0.01 differ"),
            ("nan-gate-drop-threshold", "entry meta: gate bin_width 1 and drop_threshold nan differ"),
            ("gate-drop-threshold-five", "entry meta: gate bin_width 1 and drop_threshold 5.0 differ"),
            ("non-integer-gate-bin-width", "entry meta: gate bin_width 1.9 is not an integer"),
            ("epoch-past-the-config", "entry meta: epoch 4 is outside [0, 3]"),
            ("log-epoch-minus-one", "entry log.epoch holds epoch -1, outside [0, 3)"),
            ("history-epoch-minus-one", "entry history.epoch holds epoch -1, outside [0, 3)"),
            ("log-epoch-300", "entry log.epoch holds epoch 300, outside [0, 3)"),
            ("history-epoch-300", "entry history.epoch holds epoch 300, outside [0, 3)"),
            ("repeated-history-pair", "entries history.* hold sample"),
            ("non-integer-epochs", "entry meta: epochs must be an integer, got 2.5"),
            ("loader-pos-minus-five", "entry meta: loader_pos -5 is outside [0, "),
            ("loader-perm-past-the-split", "entry loader.perm is neither empty nor a permutation"),
            ("loader-perm-short", "entry loader.perm is neither empty nor a permutation"),
            ("loader-perm-repeated", "entry loader.perm is neither empty nor a permutation"),
            ("negative-stream-state", "entry meta: RNG stream 'init': not a PCG64 state"),
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
            entries["velocity.d3.b3"] = entries["velocity.d3.b3"].astype(np.float64)
        elif kind in ("nan-lr", "tau-below-one-half", "bool-ema-momentum"):
            meta = json.loads(entries["meta"].item())
            field, value = {"nan-lr": ("lr", float("nan")), "tau-below-one-half": ("tau", 0.4), "bool-ema-momentum": ("ema_momentum", True)}[kind]
            meta["config"][field] = value
            entries["meta"] = np.array(json.dumps(meta))
        elif kind in ("nan-cutoff", "negative-cutoff"):  # detect_cutoff gives only values in [0, inf]
            meta = json.loads(entries["meta"].item())
            meta["gate"]["cutoffs"]["1"] = float("nan") if kind == "nan-cutoff" else -2.0
            entries["meta"] = np.array(json.dumps(meta))
        elif "gate" in kind:  # the gate's own copy of two config values, which must equal them
            meta = json.loads(entries["meta"].item())
            key, value = {
                "zero-gate-bin-width": ("bin_width", 0),
                "nan-gate-drop-threshold": ("drop_threshold", float("nan")),
                "gate-drop-threshold-five": ("drop_threshold", 5.0),
                "non-integer-gate-bin-width": ("bin_width", 1.9),
            }[kind]
            meta["gate"][key] = value
            entries["meta"] = np.array(json.dumps(meta))
        elif kind == "epoch-past-the-config":
            meta = json.loads(entries["meta"].item())
            meta["epoch"] = 4
            entries["meta"] = np.array(json.dumps(meta))
        elif "-epoch-" in kind:  # an epoch no run of meta.epoch epochs logs; 300 wraps in the run's int8 log
            name = kind.partition("-")[0] + ".epoch"
            entries[name] = entries[name].astype(np.int16)
            entries[name][0] = 300 if kind.endswith("300") else -1
        elif kind == "repeated-history-pair":  # the dense history kept the last copy, the entry record the first
            for key in LOG_KEYS:
                entries[f"history.{key}"] = np.append(entries[f"history.{key}"], entries[f"history.{key}"][:1])
        elif kind in ("non-integer-epochs", "loader-pos-minus-five", "negative-stream-state"):
            meta = json.loads(entries["meta"].item())
            if kind == "non-integer-epochs":
                meta["config"]["epochs"] = 2.5
            elif kind == "loader-pos-minus-five":  # it ended in a ZeroDivisionError on resume
                meta["loader_pos"] = -5
            else:  # it ended in an OverflowError on resume
                meta["streams"]["init"]["state"]["state"] = -1
            entries["meta"] = np.array(json.dumps(meta))
        elif kind.startswith("loader-perm-"):  # each resumed silently or ended in an IndexError
            perm = entries["loader.perm"]
            assert len(perm) > 1
            entries["loader.perm"] = {
                "loader-perm-past-the-split": np.where(perm == perm.max(), len(perm), perm),
                "loader-perm-short": perm[perm != 0],
                "loader-perm-repeated": np.append(perm[:-1], perm[0]),
            }[kind]
        broken = tmp_path / "broken.bin"
        if kind == "version-2-pickle":
            broken.write_bytes(b"SHCK" + struct.pack("<I", 2) + pickle.dumps({}, protocol=4))
        elif kind == "version-3":  # the float64 heads of version 3, under its own header
            entries.update({k: a.astype(np.float64) for k, a in entries.items() if k.split(".")[0] in ROLES})
            write_checkpoint(broken, entries, version=3)
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

    @pytest.mark.parametrize(
        "first, second",
        [
            ("negative-cutoff", "mis-shaped"),
            ("mis-shaped", "loader-perm-repeated"),
        ],
    )
    def test_two_broken_entries_refused_for_the_first_in_the_table(self, workspace, tmp_path, first, second):
        """Of two entries each refused alone, the one listed first in the
        README's checkpoint table is named, by readers with and without the
        hierarchy and the feature dim."""
        named = {
            "negative-cutoff": "entry meta: cutoff of node 1 is -2.0",
            "mis-shaped": "entry student.d1.w0, depth 1 student parameter w0",
            "loader-perm-repeated": "entry loader.perm is neither empty nor a permutation",
        }
        hierarchy = load_hierarchy(workspace / "data" / "hierarchy.txt")
        dim = load_features(workspace / "data" / "features.bin", hierarchy).dim
        cases = (([first], first), ([second], second), ([first, second], first), ([second, first], first))
        for broken, expected in cases:  # each alone, then both in either order of editing
            entries = read_entries(workspace / "run" / "ckpt_epoch0003.bin")
            meta = json.loads(entries["meta"].item())
            for kind in broken:
                if kind == "negative-cutoff":
                    meta["gate"]["cutoffs"]["1"] = -2.0
                elif kind == "mis-shaped":
                    entries["student.d1.w0"] = entries["student.d1.w0"][:1]
                else:
                    entries["loader.perm"] = np.append(entries["loader.perm"][:-1], entries["loader.perm"][0])
            entries["meta"] = np.array(json.dumps(meta))
            write_checkpoint(tmp_path / "broken.bin", entries)
            for reader in ((), (hierarchy,), (hierarchy, dim)):
                with pytest.raises(ValueError) as refused:
                    load_checkpoint(tmp_path / "broken.bin", *reader)
                assert named[expected] in str(refused.value), (broken, len(reader))

    def test_log_with_two_nodes_of_one_depth_exits_two(self, workspace, tmp_path, capsys):
        """eval's gate diagnostics decode the log as resume does, so both
        refuse a sample with two nodes of one depth."""
        hierarchy = load_hierarchy(workspace / "data" / "hierarchy.txt")
        dataset = load_features(workspace / "data" / "features.bin", hierarchy)
        entries = read_entries(workspace / "run" / "ckpt_epoch0003.bin")
        sample = dataset.sample_ids[dataset.splits == SPLIT_UNLABELED][0]
        extra = {"sample_id": [sample] * 2, "node": np.flatnonzero(hierarchy.depths == 1)[:2], "epoch": [0, 0]}
        for key, values in extra.items():
            entries[f"log.{key}"] = np.append(entries[f"log.{key}"], np.array(values, entries[f"log.{key}"].dtype))
        broken = tmp_path / "broken.bin"
        write_checkpoint(broken, entries)
        inputs = ["--features", workspace / "data" / "features.bin", "--hierarchy", workspace / "data" / "hierarchy.txt"]
        for argv in (
            ["eval", "--checkpoint", broken, *inputs, "--out", tmp_path / "train", "--split", "train"],
            ["eval", "--checkpoint", broken, *inputs, "--out", tmp_path / "all", "--split", "all"],
            ["eval", "--checkpoint", broken, *inputs, "--out", tmp_path / "test", "--split", "test"],
            ["inspect", "--hierarchy", workspace / "data" / "hierarchy.txt", "--checkpoint", broken],
            ["train", *inputs, "--out", tmp_path / "tr", "--resume", broken, *WORKSPACE_RUN],
        ):
            capsys.readouterr()
            assert run(*argv) == 2, argv
            err = capsys.readouterr().err
            assert "checkpoint log holds two nodes of one depth" in err and "Traceback" not in err
            assert argv[0] == "train" or f"checkpoint: {broken}" in err

    @pytest.mark.parametrize(
        "kind, named",
        [
            ("cutoff-past-the-tree", "cutoff on node 99999"),
            ("cutoff-on-node-minus-one", "cutoff on node -1"),
            ("history-node-past-the-tree", "checkpoint log names samples or nodes"),
        ],
    )
    def test_node_outside_the_tree_exits_two(self, workspace, tmp_path, capsys, kind, named):
        """Gate cutoffs and history triples name nodes, which only a reader
        with the hierarchy can check: eval's gate diagnostics and resume
        refuse one outside the tree alike, without a traceback."""
        entries = read_entries(workspace / "run" / "ckpt_epoch0003.bin")
        if kind == "history-node-past-the-tree":
            entries["history.node"] = entries["history.node"].copy()
            entries["history.node"][0] = 99999
        else:
            meta = json.loads(entries["meta"].item())
            meta["gate"]["cutoffs"]["99999" if kind == "cutoff-past-the-tree" else "-1"] = 1.0
            entries["meta"] = np.array(json.dumps(meta))
        broken = tmp_path / "broken.bin"
        write_checkpoint(broken, entries)
        inputs = ["--features", workspace / "data" / "features.bin", "--hierarchy", workspace / "data" / "hierarchy.txt"]
        for argv in (
            ["eval", "--checkpoint", broken, *inputs, "--out", tmp_path / "ev", "--split", "train"],
            ["eval", "--checkpoint", broken, *inputs, "--out", tmp_path / "test", "--split", "test"],
            ["inspect", "--hierarchy", workspace / "data" / "hierarchy.txt", "--checkpoint", broken],
            ["train", *inputs, "--out", tmp_path / "tr", "--resume", broken, *WORKSPACE_RUN],
        ):
            capsys.readouterr()
            assert run(*argv) == 2, argv
            err = capsys.readouterr().err
            assert named in err and "Traceback" not in err
            assert argv[0] == "train" or f"checkpoint: {broken}" in err

    def test_loader_perm_of_another_length_refused_by_resume_only(self, workspace, tmp_path, capsys):
        """A permutation that does not cover the labeled split is a well-formed
        entry; only the run that would replay it can refuse it."""
        entries = read_entries(workspace / "run" / "ckpt_epoch0003.bin")
        meta = json.loads(entries["meta"].item())
        meta["loader_pos"] = 0
        entries["meta"], entries["loader.perm"] = np.array(json.dumps(meta)), np.arange(3)
        broken = tmp_path / "broken.bin"
        write_checkpoint(broken, entries)
        inputs = ["--features", workspace / "data" / "features.bin", "--hierarchy", workspace / "data" / "hierarchy.txt"]
        assert run("inspect", *inputs, "--checkpoint", broken) == 0
        assert run("eval", "--checkpoint", broken, *inputs, "--out", tmp_path / "ev", "--split", "all") == 0
        capsys.readouterr()
        assert run("train", *inputs, "--out", tmp_path / "tr", "--resume", broken, *WORKSPACE_RUN) == 2
        err = capsys.readouterr().err
        assert "checkpoint: entry loader.perm holds 3 indices" in err and "Traceback" not in err
        assert not any((tmp_path / "tr").iterdir())

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


def imports_numpy_ma(argv) -> bool:
    """Whether the command `argv`, run to exit 0 in a fresh process, imports numpy.ma."""
    script = "import sys; from semihoc import cli; code = cli.main(sys.argv[1:]); print('numpy.ma' in sys.modules)"
    src = str(Path(semihoc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def inputs_of(workspace):
    return ["--features", workspace / "data" / "features.bin", "--hierarchy", workspace / "data" / "hierarchy.txt"]


class TestOptimizerSettings:
    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--weight-decay", "nan"), ("--weight-decay", "-5")])
    def test_bad_value_exits_one_naming_the_field(self, workspace, tmp_path, capsys, flag, value):
        code = run("train", *inputs_of(workspace), "--out", tmp_path / "r", *TRAIN_SMALL, flag, value)
        err = capsys.readouterr().err
        assert code == 1 and flag[2:].replace("-", "_") in err and "Traceback" not in err

    def test_non_integer_config_value_exits_one_naming_the_field(self, workspace, tmp_path, capsys):
        """2.5 epochs trained 3 and wrote no final checkpoint; 2.5 hidden
        units ended in a TypeError traceback."""
        config = tmp_path / "config.json"
        for field in ("epochs", "hidden_dim"):
            config.write_text(json.dumps({field: 2.5}))
            code = run("train", *inputs_of(workspace), "--out", tmp_path / field, "--config", config, "--quiet")
            err = capsys.readouterr().err
            assert code == 1 and f"{field} must be an integer, got 2.5" in err and "Traceback" not in err
            assert not (tmp_path / field).exists()

    def test_true_in_a_float_config_field_exits_one(self, workspace, tmp_path, capsys):
        """true passed every range check as 1: an ema_momentum of true trained
        a teacher that never moved."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ema_momentum": True}))
        code = run("train", *inputs_of(workspace), "--out", tmp_path / "r", "--config", config, "--quiet")
        err = capsys.readouterr().err
        assert code == 1 and "ema_momentum must be a number, got True" in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_tau_below_one_half_exits_one_for_subtree_labels(self, workspace, tmp_path, capsys):
        """semihoc's pseudo-labels are chains of one node per depth, which
        needs tau >= 1/2; the other methods take any tau in (0, 1]."""
        code = run("train", *inputs_of(workspace), "--out", tmp_path / "flag", *TRAIN_SMALL, "--tau", 0.4)
        err = capsys.readouterr().err
        assert code == 1 and "tau" in err and "Traceback" not in err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"method": "semihoc-no-gate", "tau": 0.4}))
        code = run("train", *inputs_of(workspace), "--out", tmp_path / "file", "--config", config, "--quiet")
        err = capsys.readouterr().err
        assert code == 1 and "tau" in err and "Traceback" not in err
        assert not (tmp_path / "flag").exists() and not (tmp_path / "file").exists()
        for method in ("ssl-node", "ssl-per-depth", "spl-oracle"):
            argv = [*TRAIN_SMALL, "--method", method, "--tau", 0.4]
            assert run("train", *inputs_of(workspace), "--out", tmp_path / method, *argv) == 0

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
            (2, "nan", "confidence nan is not a probability"),
            (3, "0:1.0,1:-0.5", "subtree confidence -0.5 is not a probability"),
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

    def test_duplicate_sample_id_exits_two_naming_both_lines(self, workspace, dump_lines, tmp_path, capsys):
        lines = dump_lines + dump_lines[:3]
        dump = tmp_path / "predictions.txt"
        dump.write_text("\n".join(lines) + "\n")
        code = run("eval", "--predictions", dump, *inputs_of(workspace), "--out", tmp_path / "ev", "--split", "all")
        err = capsys.readouterr().err
        sid = dump_lines[0].split("\t")[0]
        expected = f"prediction dump line {len(dump_lines) + 1}: duplicate sample id {sid} (first on line 1)"
        assert code == 2 and expected in err and "Traceback" not in err

    def test_blank_dump_covers_no_samples(self, workspace, tmp_path, capsys):
        dump = tmp_path / "predictions.txt"
        dump.write_text("\n \t\n\n")
        code = run("eval", "--predictions", dump, *inputs_of(workspace), "--out", tmp_path / "ev", "--split", "test")
        err = capsys.readouterr().err
        assert code == 2 and "prediction dump covers no samples of the selected split" in err and "Traceback" not in err

    def test_dump_of_another_split_covers_no_samples(self, workspace, tmp_path, capsys):
        ckpt = workspace / "run" / "ckpt_epoch0003.bin"
        assert run("eval", "--checkpoint", ckpt, *inputs_of(workspace), "--out", tmp_path / "train", "--split", "train") == 0
        dump = tmp_path / "train" / "predictions.txt"
        code = run("eval", "--predictions", dump, *inputs_of(workspace), "--out", tmp_path / "ev", "--split", "test")
        err = capsys.readouterr().err
        assert code == 2 and "prediction dump covers no samples of the selected split" in err and "Traceback" not in err

    def test_duplicate_outside_the_split_exits_two_naming_both_lines(self, workspace, dump_lines, tmp_path, capsys):
        dataset = load_features(workspace / "data" / "features.bin")
        sid = str(dataset.sample_ids[dataset.splits != SPLIT_TEST][0])
        first = [line.split("\t")[0] for line in dump_lines].index(sid)
        dump = tmp_path / "predictions.txt"
        dump.write_text("\n".join(dump_lines + [dump_lines[first]]) + "\n")
        code = run("eval", "--predictions", dump, *inputs_of(workspace), "--out", tmp_path / "ev", "--split", "test")
        err = capsys.readouterr().err
        expected = f"prediction dump line {len(dump_lines) + 1}: duplicate sample id {sid} (first on line {first + 1})"
        assert code == 2 and expected in err and "Traceback" not in err

    def test_unknown_id_reported_before_an_earlier_duplicate(self, workspace, dump_lines, tmp_path, capsys):
        unknown = "\t".join(["999999", *dump_lines[0].split("\t")[1:]])
        dump = tmp_path / "predictions.txt"
        dump.write_text("\n".join(dump_lines[:3] + dump_lines[:1] + [unknown]) + "\n")
        code = run("eval", "--predictions", dump, *inputs_of(workspace), "--out", tmp_path / "ev", "--split", "all")
        err = capsys.readouterr().err
        assert code == 2 and "prediction dump line 5: unknown sample id 999999" in err and "duplicate" not in err

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 18])
    def test_block_reader_splits_and_numbers_lines_as_the_whole_file(
        self, workspace, dump_lines, tmp_path, monkeypatch, chunk
    ):
        n_nodes = load_hierarchy(workspace / "data" / "hierarchy.txt").n_nodes
        ends = [b"\n", b"\r\n", b"\r", b"\n\n", b"\n \t\n", b"\r\r\n"]
        data = b"".join(line.encode() + ends[i % len(ends)] for i, line in enumerate(dump_lines[:40]))
        dump = tmp_path / "predictions.txt"
        monkeypatch.setattr(cli, "_DUMP_READ_BYTES", chunk)
        for tail in (b"", dump_lines[40].encode(), dump_lines[40].encode() + b"\r"):
            dump.write_bytes(data + tail)
            records = [
                (lineno, *cli._prediction_fields(line.decode(), n_nodes))
                for lineno, line in enumerate((data + tail).splitlines(), start=1)
                if line.strip()
            ]
            assert cli._read_dump(dump, n_nodes).tolist() == records
        dump.write_bytes(data + b"1\t2\n")
        with pytest.raises(cli.DataError, match=f"^prediction dump line {len(data.splitlines()) + 1}: expected 4"):
            cli._read_dump(dump, n_nodes)

    @pytest.mark.parametrize("at", [0, 5])
    def test_invalid_utf8_exits_two_with_line_number(self, workspace, dump_lines, tmp_path, capsys, at):
        data = bytearray(("\n".join(dump_lines) + "\n").encode("utf-8"))
        data[len(dump_lines[0]) + len(dump_lines[1]) + 2 + at] = 0xFF  # inside the third line
        dump = tmp_path / "predictions.txt"
        dump.write_bytes(data)
        code = run("eval", "--predictions", dump, *inputs_of(workspace), "--out", tmp_path / "ev", "--split", "all")
        err = capsys.readouterr().err
        assert code == 2 and "prediction dump line 3: 'utf-8' codec can't decode" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def large_split(tmp_path_factory):
    """20,480 rows over a 72-node tree, and a checkpoint trained on them."""
    root = tmp_path_factory.mktemp("large")
    assert run(
        "gen", "--out", root / "data", "--seed", 2, "--branching", 4, "--depth", 3, "--dim", 8,
        "--train-per-leaf", 300, "--test-per-leaf", 20, "--labels-per-class", 2,
    ) == 0
    assert run(
        "train", *inputs_of(root), "--out", root / "run", "--method", "supervised", "--epochs", 1,
        "--labeled-batch-size", 32, "--hidden-dim", 16, "--seed", 0, "--quiet",
    ) == 0
    return root


class TestStreamedEval:
    """eval --checkpoint works through the split in blocks of rows; the dump
    must read as if every row were formatted alone, and no (rows x nodes)
    array may be held."""

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
    def test_dump_matches_per_row_reference(self, large_split, tmp_path, n):
        from test_prohoc import reference_dump_line

        hierarchy = load_hierarchy(large_split / "data" / "hierarchy.txt")
        dataset = load_features(large_split / "data" / "features.bin", hierarchy)
        rows = np.random.default_rng(n).permutation(len(dataset))[:n]
        subset = replace(
            dataset, features=dataset.features[rows], labels=dataset.labels[rows],
            sample_ids=dataset.sample_ids[rows], splits=dataset.splits[rows],
        )
        save_features(subset, tmp_path / "subset.bin")
        ckpt = large_split / "run" / "ckpt_epoch0001.bin"
        assert run(
            "eval", "--checkpoint", ckpt, "--features", tmp_path / "subset.bin",
            "--hierarchy", large_split / "data" / "hierarchy.txt", "--out", tmp_path / "ev", "--split", "all",
        ) == 0

        state = load_checkpoint(ckpt)
        config = TrainConfig.from_dict(state["meta"]["config"])
        heads = DepthHeads(hierarchy, subset.dim, hidden=config.hidden_dim, dropout=config.dropout)
        heads.load_state_dict(state)
        probs = predict_dataset(heads, hierarchy, subset.features)
        conf = subtree_confidences(probs, hierarchy)
        expected = "".join(reference_dump_line(hierarchy, *row) for row in zip(subset.sample_ids, probs, conf))
        assert (tmp_path / "ev" / "predictions.txt").read_text() == expected

    def test_sparse_split_reads_at_most_a_block_of_records_at_once(self, large_split, tmp_path, monkeypatch):
        """The unlabeled rows are 298 of every 320: each block's span is read in chunks, keeping only its rows."""
        hierarchy = load_hierarchy(large_split / "data" / "hierarchy.txt")
        n_rows = len(load_features(large_split / "data" / "features.bin", hierarchy))
        reads, fromfile = [], np.fromfile

        def counted(*args, **kwargs):
            records = fromfile(*args, **kwargs)
            if records.dtype.names and "features" in records.dtype.names:
                reads.append(len(records))
            return records

        monkeypatch.setattr(np, "fromfile", counted)
        assert run(
            "eval", "--checkpoint", large_split / "run" / "ckpt_epoch0001.bin", *inputs_of(large_split),
            "--out", tmp_path / "ev", "--split", "train",
        ) == 0
        checked, vectors = reads[: -(-n_rows // PREDICT_BATCH)], reads[-(-n_rows // PREDICT_BATCH) :]
        assert sum(checked) == n_rows and max(reads) <= PREDICT_BATCH
        n_unlabeled = len((tmp_path / "ev" / "predictions.txt").read_text().splitlines())
        assert n_unlabeled < sum(vectors) <= n_rows and len(vectors) > -(-n_unlabeled // PREDICT_BATCH)

    @pytest.fixture(scope="class")
    def two_dims(self, large_split, tmp_path_factory):
        """large_split's 20,480 rows at dim 512 and at dim 8 (the first 8 of the same vectors), each with a checkpoint."""
        root = tmp_path_factory.mktemp("dims")
        dataset = load_features(large_split / "data" / "features.bin")
        wide = np.random.default_rng(5).standard_normal((len(dataset), 512), dtype=np.float32)
        wide[:, :8] = dataset.features[:]
        for dim in (8, 512):
            save_features(replace(dataset, features=wide[:, :dim]), root / f"dim{dim}.bin")
            assert run(
                "train", "--features", root / f"dim{dim}.bin", "--hierarchy", large_split / "data" / "hierarchy.txt",
                "--out", root / f"run{dim}", "--method", "supervised", "--epochs", 1, "--labeled-batch-size", 32,
                "--hidden-dim", 16, "--seed", 0, "--quiet",
            ) == 0
        return root

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_peak_memory_does_not_grow_with_dim(self, large_split, two_dims, tmp_path, command):
        """The dim-512 vectors alone are 41.9 MB; both commands read them one block at most at a time."""
        peaks = {}
        for dim in (8, 512):
            ckpt = two_dims / f"run{dim}" / "ckpt_epoch0001.bin"
            inputs = ["--features", two_dims / f"dim{dim}.bin", "--hierarchy", large_split / "data" / "hierarchy.txt"]
            argv = ["inspect", *inputs, "--checkpoint", ckpt]
            if command == "eval":
                argv = ["eval", *inputs, "--checkpoint", ckpt, "--out", tmp_path / f"ev{dim}", "--split", "all"]
            tracemalloc.start()
            try:
                code = run(*argv)
                peaks[dim] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
        assert abs(peaks[512] - peaks[8]) < 8e6, peaks

    def test_peak_memory_on_a_3281_node_tree(self, tmp_path):
        """gen --branching 5 --depth 5: one block's teacher outputs take 26.9 MB, and a block's fused
        arrays as many again each; fused in chunks of FUSE_BYTES, the whole eval stays near the first."""
        hierarchy, dataset = generate(SyntheticConfig(branching=5, depth=5, feature_dim=8, train_per_leaf=1, test_per_leaf=1, seed=0))
        heads = DepthHeads(hierarchy, dataset.dim, hidden=16)
        heads.init_params(np.random.default_rng(0))
        idx = dataset.indices(SPLIT_TEST)
        assert hierarchy.n_nodes == 3281 and len(idx) > 2 * PREDICT_BATCH
        tracemalloc.start()
        try:
            cli._eval_checkpoint(tmp_path, hierarchy, dataset, idx, heads, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 45e6, peak

    def test_peak_memory_below_one_node_matrix(self, large_split, tmp_path):
        hierarchy = load_hierarchy(large_split / "data" / "hierarchy.txt")
        n_rows = len(load_features(large_split / "data" / "features.bin", hierarchy))
        assert n_rows >= 20_000
        tracemalloc.start()
        try:
            code = run(
                "eval", "--checkpoint", large_split / "run" / "ckpt_epoch0001.bin", *inputs_of(large_split),
                "--out", tmp_path / "ev", "--split", "all",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < n_rows * hierarchy.n_nodes * 8
