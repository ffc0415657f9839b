"""Command-line entry point: gen, train, eval, inspect, oracle-check.

Exit codes: 0 success, 1 usage or config error, 2 runtime or data error.
"""

from __future__ import annotations

import os
import sys

if "numpy" not in sys.modules:
    # BLAS reads its thread count when numpy first loads. One thread per GEMM unless SEMIHOC_THREADS
    # says otherwise, so a run writes the same bytes on any core count; the depth workers use the cores.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ.get("SEMIHOC_THREADS") or "1")

import argparse
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import oracles
from .datagen import (
    NO_LABEL,
    SPLIT_LABELED,
    SPLIT_TEST,
    SPLIT_UNLABELED,
    SyntheticConfig,
    generate,
    id_rows,
    load_features,
    sample_labeled_subset,
    save_features,
)
from .heads import HEAD_DTYPE, N_LAYERS, ROLES, DepthHeads, entry_shapes
from .hierarchy import exceeds_memory, load_hierarchy, save_hierarchy, sorted_unique
from .metrics import bmhd, confidence_accuracy_bins, decomposition_matrix, gate_fpr_coverage
from .prohoc import format_prediction_block
from .spl import AgeGateState, SplLog, log_summary
from .trainer import LOG_KEYS, METHODS, TrainConfig, format_field, l2_norm, load_checkpoint, predict_rows, run_training
from .trainer import blas_library, blas_threads, depth_workers, keep_freed_memory


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _prepare_out_dir(path: str, force: bool) -> Path:
    out = Path(path)
    if out.exists() and any(out.iterdir()) and not force:
        raise UsageError(f"output directory {out} is not empty (use --force to overwrite)")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_field(v) for v in row) + "\n")


# -- gen --------------------------------------------------------------------------


def cmd_gen(args) -> int:
    try:
        config = SyntheticConfig(**{f.name: getattr(args, f.name) for f in fields(SyntheticConfig)})
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.labels_per_class is not None and args.labels_per_class < 1:
        raise UsageError("--labels-per-class must be >= 1")

    out = _prepare_out_dir(args.out, args.force)
    hierarchy, dataset = generate(config)
    if args.labels_per_class is not None:
        dataset = sample_labeled_subset(dataset, hierarchy, args.labels_per_class, config.seed)
    save_hierarchy(hierarchy, out / "hierarchy.txt")
    save_features(dataset, out / "features.bin")
    print(hierarchy.summary())
    print(dataset.summary(hierarchy))
    print(f"wrote {out / 'hierarchy.txt'} and {out / 'features.bin'}")
    return 0


# -- train ------------------------------------------------------------------------


def _load_train_config(args) -> TrainConfig:
    data: dict = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise UsageError(f"config file {args.config} not found")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {args.config}: {exc}")
        if not isinstance(data, dict):
            raise UsageError("config file must hold a JSON object")
    overrides = {f.name: getattr(args, f.name, None) for f in fields(TrainConfig)}
    data.update({k: v for k, v in overrides.items() if v is not None})
    if args.no_age_gating and data.get("method", "semihoc") == "semihoc":
        data["method"] = "semihoc-no-gate"
    try:
        return TrainConfig.from_dict(data)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc))


def _load(what: str, loader, *args):
    """Run a file loader; an unreadable or malformed file exits 2 with a
    message that starts with `what`."""
    try:
        return loader(*args)
    except (OSError, ValueError) as exc:
        raise DataError(f"{what}: {exc}")


def _load_inputs(args):
    hierarchy = _load("hierarchy file", load_hierarchy, args.hierarchy)
    return hierarchy, _load("feature file", load_features, args.features, hierarchy)


def cmd_train(args) -> int:
    config = _load_train_config(args)
    hierarchy, dataset = _load_inputs(args)
    if problem := exceeds_memory(4 * len(dataset) * dataset.dim, f"the vectors of {len(dataset)} records at dim {dataset.dim}"):
        raise DataError(f"feature file: {problem}")  # training reads them all, eval and inspect one block at most
    nbytes = HEAD_DTYPE.itemsize * sum(map(math.prod, entry_shapes(dataset.dim, hierarchy.classes, config.hidden_dim).values()))
    if problem := exceeds_memory(nbytes, f"the student, teacher and velocity buffers of hidden_dim {config.hidden_dim}"):
        raise UsageError(problem)
    out = _prepare_out_dir(args.out, args.force)

    if not args.quiet:
        n_labeled, n_unlabeled = (len(dataset.indices(split)) for split in (SPLIT_LABELED, SPLIT_UNLABELED))
        workers = depth_workers(config, hierarchy.max_depth, n_labeled, n_unlabeled)
        print(f"blas: {blas_library()}, threads per call: {blas_threads()}, depth workers: {workers}")

    def log_fn(report):
        parts = [f"epoch {report.epoch}"]
        parts.append("loss " + "/".join(f"{l + u:.4f}" for l, u in zip(report.loss_labeled, report.loss_unlabeled)))
        if report.spl_total:
            parts.append(f"spl {report.spl_total} (gated {report.gated_count})")
        if report.bmhd_mix is not None:
            parts.append(f"bmhd-mix {report.bmhd_mix:.4f}")
        print("  ".join(parts))

    try:
        run_training(config, hierarchy, dataset, out_dir=out, resume=args.resume, log_fn=log_fn if not args.quiet else None)
    except ValueError as exc:
        raise DataError(str(exc))
    print(f"run artifacts in {out}")
    return 0


# -- eval -------------------------------------------------------------------------


def _split_indices(dataset, which: str) -> np.ndarray:
    if which == "all":  # the parser allows test, train and all
        return np.arange(len(dataset))
    return dataset.indices(SPLIT_TEST if which == "test" else SPLIT_UNLABELED)


def _write_eval_reports(out, hierarchy, preds, gts, node_conf, sub_conf, bins) -> None:
    """bmhd.csv, decomposition_{id,ood}.csv and confidence_bins.csv."""
    known = gts != NO_LABEL
    if not known.any():
        raise DataError("evaluation subset has no samples with ground truth")
    report = bmhd(preds[known], gts[known], hierarchy)
    _write_csv(out / "bmhd.csv", ["bmhd_id", "bmhd_ood", "bmhd_mix"], [[report.id, report.ood, report.mix]])

    for subset in ("id", "ood"):
        matrix = decomposition_matrix(preds[known], gts[known], hierarchy, subset)
        header = ["under_dist"] + [f"over_{j}" for j in range(matrix.shape[1])]
        _write_csv(out / f"decomposition_{subset}.csv", header, [[i, *map(float, row)] for i, row in enumerate(matrix)])

    exact = preds == gts
    in_subtree = known & hierarchy.in_subtree(np.where(known, gts, 0), preds)
    is_id = hierarchy.is_leaf(preds)
    def bin_rows():  # written as they come, so that only one panel's bins are held
        for mode, confs, correct in (("node", node_conf, exact), ("subtree", sub_conf, in_subtree)):
            for panel in ("id", "ood"):
                sel = known & (is_id if panel == "id" else ~is_id)
                if not sel.any():
                    continue
                table = confidence_accuracy_bins(confs[sel], correct[sel], n_bins=bins)
                for b in range(bins):
                    acc = None if np.isnan(table.accuracy[b]) else float(table.accuracy[b])
                    edges = map(float, table.edges[b : b + 2])
                    yield [mode, panel, *edges, acc, float(table.frequency[b]), int(table.counts[b])]
    header = ["mode", "panel", "bin_lo", "bin_hi", "accuracy", "frequency", "count"]
    _write_csv(out / "confidence_bins.csv", header, bin_rows())


def _eval_checkpoint(out, hierarchy, dataset, idx, heads, bins) -> None:
    """predictions.txt, written chunk by chunk as predict_rows scores the
    split, and the reports of a checkpoint."""
    with open(out / "predictions.txt", "w", encoding="utf-8") as fh:
        def write(block, preds, node_conf, conf):
            fh.write(format_prediction_block(hierarchy, dataset.sample_ids[idx[block]], preds, node_conf, conf))
        preds, node_conf, sub_conf = predict_rows(heads, hierarchy, dataset.features, idx, write)
    _write_eval_reports(out, hierarchy, preds, dataset.labels[idx], node_conf, sub_conf, bins)


def cmd_eval(args) -> int:
    if args.bins < 1:
        raise UsageError("--bins must be >= 1")
    # _write_eval_reports holds 72 bytes a bin at its peak (tracemalloc), two panels' arrays
    if problem := exceeds_memory(80 * args.bins, f"the per-bin arrays of --bins {args.bins}"):
        raise UsageError(problem)
    hierarchy, dataset = _load_inputs(args)
    out = _prepare_out_dir(args.out, args.force)
    idx = _split_indices(dataset, args.split)
    if len(idx) == 0:
        raise DataError(f"split {args.split!r} is empty")

    if args.checkpoint:
        state = _load("checkpoint", load_checkpoint, args.checkpoint, hierarchy, dataset.dim)
        config = TrainConfig.from_dict(state["meta"]["config"])
        heads = DepthHeads(hierarchy, dataset.dim, hidden=config.hidden_dim, dropout=config.dropout)
        heads.load_state_dict(state)
        _eval_checkpoint(out, hierarchy, dataset, idx, heads, args.bins)
        if args.split in ("train", "all"):
            _write_gate_diagnostics(out, hierarchy, dataset, state)
    else:
        _eval_from_predictions(out, hierarchy, dataset, idx, Path(args.predictions), args.bins)
    print(f"evaluation written to {out}")
    return 0


def _write_gate_diagnostics(out, hierarchy, dataset, state) -> None:
    """Purity / FPR / coverage diagnostics of a checkpoint state: FPR and
    coverage count the history's records as stored, and purity is taken over
    the log read as resume reads it and gated as training gates it.

    Correctness comes from the --features ground truth: an assignment is
    incorrect when the sample's ground truth lies outside the node's
    subtree, and of unknown correctness (never a false positive) when the
    sample has no ground truth.
    """
    log_state, history = ({k: state[f"{name}.{k}"] for k in LOG_KEYS} for name in ("log", "history"))
    log = SplLog(sorted_unique(np.concatenate((log_state["sample_id"], history["sample_id"]))), hierarchy.depths)
    log.load_state_dict(log_state, history)
    gate = AgeGateState()
    gate.load_state_dict(state["meta"]["gate"])
    cutoffs = gate.vector(hierarchy.n_nodes)

    gts = dataset.labels_of(history["sample_id"])
    known = gts != NO_LABEL
    incorrect = known & ~hierarchy.in_subtree(np.where(known, gts, 0), history["node"])
    gate_report = gate_fpr_coverage(history["node"], history["epoch"], incorrect, cutoffs)

    _, _, purity, avg_depth = log_summary(log, cutoffs, dataset.labels_of(log.sample_ids), hierarchy)

    header = ["purity", "avg_depth", "gate_fpr", "gate_coverage", "n_assignments", "n_incorrect", "fpr_defined"]
    row = [purity, avg_depth, gate_report.fpr, gate_report.coverage]
    row += [gate_report.n_assignments, gate_report.n_incorrect, int(gate_report.fpr_defined)]
    _write_csv(out / "diagnostics.csv", header, [row])


_DUMP_DTYPE = [("line", "i8"), ("sample_id", "u8"), ("node", "i8"), ("confidence", "f8"), ("subtree_confidence", "f8")]
_DUMP_FIELDS = (("sample id", int), ("node", int), ("confidence", float), ("subtree confidence", float))


def _prediction_fields(line: str, n_nodes: int) -> list:
    """Sample id, node, node confidence and subtree confidence (the last
    chain entry's) of one prediction-dump line; ValueError naming the field."""
    fields = line.split("\t")
    if len(fields) != 4:
        raise ValueError("expected 4 tab-separated fields")
    last = fields[3].rpartition(",")[2]
    if ":" not in last:
        raise ValueError(f"chain entry {last!r} is not node:confidence")
    fields[3] = last.partition(":")[2]
    for i, (name, kind) in enumerate(_DUMP_FIELDS):
        try:
            fields[i] = kind(fields[i])
        except ValueError:
            raise ValueError(f"{name} {fields[i]!r} is not {'an integer' if kind is int else 'a number'}") from None
    if not 0 <= fields[0] < 2**64:
        raise ValueError(f"sample id {fields[0]} is out of range")
    if not 0 <= fields[1] < n_nodes:
        raise ValueError(f"unknown node id {fields[1]}")
    for i in (2, 3):
        if not fields[i] >= 0.0:  # NaN fails too
            raise ValueError(f"{_DUMP_FIELDS[i][0]} {fields[i]!r} is not a probability")
    return fields


_DUMP_READ_BYTES = 1 << 18  # bytes of the dump read at a time


def _read_dump(path: Path, n_nodes: int) -> np.ndarray:
    """The non-blank lines of a prediction dump as a _DUMP_DTYPE array, parsed
    in blocks of lines into one array sized by the file's line breaks. A block
    ends at a newline, so `splitlines` splits it as it splits the whole file."""
    with open(path, "rb") as fh:
        bound = 1 + sum(c.count(b"\n") + c.count(b"\r") for c in iter(lambda: fh.read(_DUMP_READ_BYTES), b""))
        fh.seek(0)
        dump, count, lineno = np.empty(bound, dtype=_DUMP_DTYPE), 0, 0
        for block in iter(lambda: fh.readlines(_DUMP_READ_BYTES), []):
            for lineno, line in enumerate(b"".join(block).splitlines(), start=lineno + 1):
                try:
                    line = line.decode("utf-8")  # a UnicodeDecodeError is a ValueError
                    if line.strip():
                        dump[count] = (lineno, *_prediction_fields(line, n_nodes))
                        count += 1
                except ValueError as exc:
                    raise DataError(f"prediction dump line {lineno}: {exc}") from None
    return dump[:count]


def _eval_from_predictions(out, hierarchy, dataset, idx, path: Path, bins: int) -> None:
    try:
        dump = _read_dump(path, hierarchy.n_nodes)
    except OSError as exc:
        raise DataError(f"prediction dump: {exc}")
    rows = id_rows(dataset.sample_ids, dump["sample_id"])  # each line's dataset row
    if (rows < 0).any():
        first = dump[np.argmax(rows < 0)]
        raise DataError(f"prediction dump line {first['line']}: unknown sample id {first['sample_id']}")
    order = np.argsort(rows, kind="stable")
    repeat = order[1:][rows[order[1:]] == rows[order[:-1]]]
    if len(repeat):
        dup = dump[repeat.min()]
        first = dump["line"][np.argmax(rows == rows[repeat.min()])]
        raise DataError(f"prediction dump line {dup['line']}: duplicate sample id {dup['sample_id']} (first on line {first})")
    in_split = np.zeros(len(dataset), dtype=bool)
    in_split[idx] = True
    keep = in_split[rows]
    if not keep.any():
        raise DataError("prediction dump covers no samples of the selected split")
    dump, gts = dump[keep], dataset.labels[rows[keep]]
    _write_eval_reports(out, hierarchy, dump["node"], gts, dump["confidence"], dump["subtree_confidence"], bins)


# -- inspect ----------------------------------------------------------------------


def cmd_inspect(args) -> int:
    if not (args.hierarchy or args.features or args.checkpoint):
        raise UsageError("nothing to inspect: pass --hierarchy, --features and/or --checkpoint")
    hierarchy = None
    if args.hierarchy:
        hierarchy = _load("hierarchy file", load_hierarchy, args.hierarchy)
        print(f"== {args.hierarchy}")
        print(hierarchy.summary())
        print(f"content hash: {hierarchy.hash:#018x}")
    if args.features:
        dataset = _load("feature file", load_features, args.features, hierarchy)
        print(f"== {args.features}")
        print(dataset.summary(hierarchy))
        print(f"hierarchy hash: {dataset.hierarchy_hash:#018x}")
    if args.checkpoint:
        dim = dataset.dim if args.features else None
        state = _load("checkpoint", load_checkpoint, args.checkpoint, hierarchy, dim)
        meta = state["meta"]
        print(f"== {args.checkpoint}")
        print(f"epochs completed: {meta['epoch']}")
        print(f"hierarchy hash: {meta['hierarchy_hash']:#018x}")
        print(f"config: {json.dumps(meta['config'], sort_keys=True)}")
        print(f"log entries: {len(state['log.node'])}")
        finite = [t for t in meta["gate"]["cutoffs"].values() if t != float("inf")]
        print(f"finite cutoffs: {len(finite)}")
        print(f"head dtype: {HEAD_DTYPE}")  # load_checkpoint has checked every head entry's
        for d in range(1, len(meta["classes"]) + 1):
            student, teacher = (l2_norm([state[f"{role}.d{d}.w{i}"] for i in range(N_LAYERS)]) for role in ROLES[:2])
            print(f"depth {d} weight norm: student {student:.6g}  teacher {teacher:.6g}")
    return 0


# -- oracle-check -------------------------------------------------------------------


def cmd_oracle_check(args) -> int:
    if args.cases < 1:
        raise UsageError("--cases must be >= 1")
    results = oracles.run_all(args.cases, args.seed, fault=args.inject_fault)
    all_ok = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        line = f"{status}  {result.name}: {result.cases} cases, {result.failures} failures"
        if result.detail:
            line += f"  [{result.detail}]"
        print(line)
        all_ok = all_ok and result.passed
    return 0 if all_ok else 2


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semihoc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic hierarchy + feature file")
    p.add_argument("--out", required=True)
    renamed = {"feature_dim": "--dim", "root_ood_per_split": "--root-ood"}
    for f in sorted(fields(SyntheticConfig), key=lambda f: f.name != "seed"):  # a flag per field, --seed first
        p.add_argument(renamed.get(f.name, "--" + f.name.replace("_", "-")), type=type(f.default), default=f.default, dest=f.name)
    p.add_argument("--labels-per-class", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model on a feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file with TrainConfig keys")
    for f in fields(TrainConfig):  # a flag per field, except the two momenta
        if f.name not in ("momentum", "ema_momentum"):
            choices = METHODS if f.name == "method" else None
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), choices=choices, default=None)
    p.add_argument("--no-age-gating", action="store_true")
    p.add_argument("--resume", help="checkpoint file to continue from")
    p.add_argument("--force", action="store_true")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or a prediction dump")
    p.add_argument("--features", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--out", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--checkpoint")
    group.add_argument("--predictions")
    p.add_argument("--split", default="test", choices=("test", "train", "all"), help="train: the unlabeled split, no labeled rows")
    p.add_argument("--bins", type=int, default=30)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="summarize hierarchy/feature/checkpoint files")
    p.add_argument("--hierarchy")
    p.add_argument("--features")
    p.add_argument("--checkpoint")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("oracle-check", help="run the built-in brute-force oracles")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--inject-fault", choices=sorted(oracles.ALL_CHECKS), help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
