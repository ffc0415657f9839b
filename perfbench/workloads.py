"""The benchmark's workloads: set-up, one measured pass, and output checks.

A pass is the workload's fixed unit of work; its operations are what
`op_ms.p50` times. Training workloads run `semihoc train` in this process,
so one pass is one whole training run (an operation is one epoch) with its
final eval, `metrics.csv` and checkpoint. `eval-cli` runs the CLI as a user
would, one process per command; a pass is ROUNDS command rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import checks
import tracing
from semihoc import benchmark, cli, datagen, hierarchy, spl
from semihoc import trainer as trainer_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMMAND_TIMEOUT_S = 120


@dataclass
class PassResult:
    seconds: float
    op_seconds: list[float]
    attempted: int
    failed: int
    output_bytes: int
    peak_rss_kb: int
    out_dir: Path


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- training workloads ---------------------------------------------------------


class EpochProbe:
    """Times `Trainer.run_epoch` and snapshots the age-gate cutoffs after each
    epoch, for the duration of a `with` block."""

    def __enter__(self):
        self.seconds: list[float] = []
        self.cutoffs: list[dict] = []
        self.trainer = None
        self._original = original = trainer_mod.Trainer.run_epoch
        probe = self

        def run_epoch(trainer):
            t0 = time.perf_counter()
            report = original(trainer)
            probe.seconds.append(time.perf_counter() - t0)
            probe.cutoffs.append(dict(trainer.gate.cutoffs))
            probe.trainer = trainer
            return report

        trainer_mod.Trainer.run_epoch = run_epoch
        return self

    def __exit__(self, *exc):
        trainer_mod.Trainer.run_epoch = self._original


class TrainingWorkload:
    setups = 11

    def __init__(self, name: str, mix_limit: float | None):
        self.name = name
        self.mix_limit = mix_limit
        self.tracer: tracing.Tracer | None = None
        self.last: EpochProbe | None = None  # only the last pass's trainer stays alive

    def make(self, seed: int):
        raise NotImplementedError

    def setup(self, seed: int, data_dir: Path) -> dict:
        hier, dataset, config = self.make(seed)
        reset_dir(data_dir)
        hierarchy.save_hierarchy(hier, data_dir / "hierarchy.txt")
        datagen.save_features(dataset, data_dir / "features.bin")
        (data_dir / "config.json").write_text(json.dumps(asdict(config)))
        return {"dir": data_dir, "epochs": config.epochs}

    def run_pass(self, state: dict, out_dir: Path) -> PassResult:
        data = state["dir"]
        argv = ["train", "--features", str(data / "features.bin"), "--hierarchy", str(data / "hierarchy.txt")]
        argv += ["--out", str(out_dir), "--config", str(data / "config.json"), "--quiet"]
        epochs = state["epochs"]
        self.last = None
        t0 = time.perf_counter()
        with EpochProbe() as probe, contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # counted as failed epochs and reported
                print(f"{self.name}: training raised {exc!r}", file=sys.stderr)
                rc = -1
        seconds = time.perf_counter() - t0
        self.last = probe
        failed = 0 if rc == 0 and len(probe.seconds) == epochs else max(1, epochs - len(probe.seconds))
        return PassResult(
            seconds=seconds,
            op_seconds=probe.seconds,
            attempted=epochs,
            failed=failed,
            output_bytes=dir_bytes(out_dir),
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            out_dir=out_dir,
        )

    def check(self, state: dict, passes: list[PassResult]) -> list[str]:
        data, epochs, out = state["dir"], state["epochs"], passes[-1].out_dir
        tree = checks.Tree(data / "hierarchy.txt")
        feats = checks.read_features(data / "features.bin")
        problems, final = checks.check_metrics_csv(out / "metrics.csv", epochs)
        problems += checks.check_cutoffs(self.last.cutoffs)
        ckpt = out / f"ckpt_epoch{epochs:04d}.bin"
        if not ckpt.is_file() or ckpt.read_bytes()[:4] != b"SHCK":
            problems.append(f"{ckpt} is missing or not a checkpoint")
        first_csv = (passes[0].out_dir / "metrics.csv").read_bytes()
        if any((p.out_dir / "metrics.csv").read_bytes() != first_csv for p in passes[1:]):
            problems.append("metrics.csv differs between passes of the same seed")

        trainer = self.last.trainer
        test, unlabeled = feats.splits == 2, feats.splits == 1
        fused = trainer_mod.predict_dataset(trainer.heads, trainer.hierarchy, feats.x[test])
        problems += checks.check_fused_rows(fused)
        reported = tuple(checks.num(final.get(k, "")) for k in ("bmhd_id", "bmhd_ood", "bmhd_mix"))
        problems += checks.check_reported_bmhd(tree, fused.argmax(axis=1), feats.gts[test], reported, self.mix_limit)
        fused_u = trainer_mod.predict_dataset(trainer.heads, trainer.hierarchy, feats.x[unlabeled])
        chains = spl.compute_spls_batch(fused_u, trainer.hierarchy, 0.95)
        problems += checks.check_chains(tree, [c.nodes for c in chains])
        return problems

    # tracing runs in this process
    def start_trace(self, scratch: Path) -> None:
        self.tracer = tracing.Tracer()
        self.tracer.install()

    def take_trace(self) -> dict:
        return tracing.merge([self.tracer.take()])

    def stop_trace(self) -> None:
        self.tracer.uninstall()


class RefTrain(TrainingWorkload):
    """The reference `semihoc` arm: 100 epochs on `reference_dataset(seed)`."""

    def __init__(self):
        super().__init__("ref-train", mix_limit=1.0)

    def make(self, seed: int):
        hier, dataset = benchmark.reference_dataset(seed)
        return hier, dataset, benchmark.reference_train_config("semihoc", seed)


class WideTree(TrainingWorkload):
    """Branching 5, depth 4 (656 nodes, 500 ID leaves) under a 64-unit head."""

    def __init__(self):
        super().__init__("wide-tree", mix_limit=None)

    def make(self, seed: int):
        config = datagen.SyntheticConfig(
            branching=5,
            depth=4,
            feature_dim=32,
            train_per_leaf=6,
            test_per_leaf=2,
            sigma_level=0.5,
            sigma_noise=0.45,
            ood_fraction=0.2,
            seed=seed,
        )
        hier, dataset = datagen.generate(config)
        dataset = datagen.sample_labeled_subset(dataset, hier, 2, seed)
        train = replace(benchmark.reference_train_config("semihoc", seed, epochs=40), hidden_dim=64)
        return hier, dataset, train


# -- eval-cli -----------------------------------------------------------------------


class EvalCli:
    """`semihoc eval` and `inspect` over a large feature file, one process per command."""

    name = "eval-cli"
    setups = 3
    ROUNDS = 8
    GEN = ["--branching", "3", "--depth", "4", "--train-per-leaf", "30", "--test-per-leaf", "380"]
    EPOCHS = 10

    def __init__(self):
        # run.py has fixed the BLAS threads in os.environ; children inherit them
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.trace_dir: Path | None = None
        self.records: list[dict] = []

    def command(self, args: list[str], log: Path) -> tuple[int, int]:
        """Run one semihoc command; return its exit code and peak RSS in KiB."""
        cmd = [sys.executable, "-m", "semihoc.cli", *args]
        if self.trace_dir is not None:
            record = self.trace_dir / f"{len(self.records)}.json"
            cmd = [sys.executable, str(HERE / "clirun.py"), str(record), *args]
        with open(log, "wb") as fh:
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if self.trace_dir is not None and record.is_file():
            self.records.append(json.loads(record.read_text()))
            record.unlink()
        if proc.returncode != 0:
            print(f"{self.name}: `semihoc {' '.join(args)}` exited {proc.returncode}:", file=sys.stderr)
            print(log.read_text()[-2000:], file=sys.stderr)
        return proc.returncode, usage.ru_maxrss

    def setup(self, seed: int, data_dir: Path) -> dict:
        reset_dir(data_dir)
        logs = data_dir / "logs"
        logs.mkdir()
        data, run = data_dir / "data", data_dir / "run"
        config = data_dir / "config.json"
        train = {"method": "semihoc", "epochs": self.EPOCHS, "lr": 0.1, "dropout": 0.3}
        train.update({"ema_momentum": 0.95, "hidden_dim": 64, "seed": seed})
        config.write_text(json.dumps(train))
        gen = ["gen", "--out", str(data), "--seed", str(seed), *self.GEN, "--labels-per-class", "10"]
        fit = ["train", "--features", str(data / "features.bin"), "--hierarchy", str(data / "hierarchy.txt")]
        fit += ["--out", str(run), "--config", str(config), "--quiet"]
        for args in (gen, fit):
            rc, _ = self.command(args, logs / f"{args[0]}.log")
            if rc != 0:
                raise RuntimeError(f"set-up command `semihoc {args[0]}` exited {rc}")
        return {"data": data, "ckpt": run / f"ckpt_epoch{self.EPOCHS:04d}.bin"}

    def run_pass(self, state: dict, out_dir: Path) -> PassResult:
        data, ckpt = state["data"], str(state["ckpt"])
        inputs = ["--features", str(data / "features.bin"), "--hierarchy", str(data / "hierarchy.txt")]
        logs = out_dir / "logs"
        logs.mkdir(parents=True)
        op_seconds, failed, peak, written = [], 0, 0, 0
        t0 = time.perf_counter()
        for r in range(self.ROUNDS):
            rdir = out_dir / f"round{r}"
            commands = [
                ["eval", "--checkpoint", ckpt, *inputs, "--out", str(rdir / "eval"), "--split", "all"],
                ["eval", "--predictions", str(rdir / "eval" / "predictions.txt"), *inputs]
                + ["--out", str(rdir / "rescore"), "--split", "all"],
                ["inspect", *inputs, "--checkpoint", ckpt],
            ]
            start = time.perf_counter()
            codes = []
            for i, args in enumerate(commands):
                rc, rss = self.command(args, logs / f"round{r}-{i}.log")
                codes.append(rc)
                peak = max(peak, rss)
            op_seconds.append(time.perf_counter() - start)
            failed += any(codes)
            written += dir_bytes(rdir) if rdir.exists() else 0
        return PassResult(
            seconds=time.perf_counter() - t0,
            op_seconds=op_seconds,
            attempted=self.ROUNDS,
            failed=failed,
            output_bytes=written,
            peak_rss_kb=peak,
            out_dir=out_dir,
        )

    def check(self, state: dict, passes: list[PassResult]) -> list[str]:
        data = state["data"]
        out = passes[-1].out_dir
        last = out / f"round{self.ROUNDS - 1}"
        tree = checks.Tree(data / "hierarchy.txt")
        feats = checks.read_features(data / "features.bin")
        problems, preds = checks.read_predictions(last / "eval" / "predictions.txt")
        problems += checks.check_predictions(tree, feats, preds)
        problems += checks.check_eval_dir(tree, feats, last / "eval", preds)
        problems += checks.check_eval_dir(tree, feats, last / "rescore", preds)
        inspect_out = (out / "logs" / f"round{self.ROUNDS - 1}-2.log").read_text()
        problems += checks.check_inspect(inspect_out, tree, feats)
        if f"epochs completed: {self.EPOCHS}" not in inspect_out:
            problems.append(f"inspect does not report {self.EPOCHS} completed epochs")
        dumps = {(p.out_dir / f"round{r}" / "eval" / "predictions.txt").read_bytes() for p in passes for r in range(self.ROUNDS)}
        if len(dumps) != 1:
            problems.append("predictions.txt differs between rounds of the same checkpoint")
        return problems

    # tracing runs in each command's process
    def start_trace(self, scratch: Path) -> None:
        self.trace_dir = reset_dir(scratch / "trace-records")

    def take_trace(self) -> dict:
        merged = tracing.merge(self.records)
        self.records = []
        return merged

    def stop_trace(self) -> None:
        self.trace_dir = None


WORKLOADS = {"ref-train": RefTrain, "wide-tree": WideTree, "eval-cli": EvalCli}
