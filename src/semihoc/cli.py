"""Command-line entry point: gen, train, eval, inspect, oracle-check.

Exit codes: 0 success, 1 usage or config error, 2 runtime or data error.
"""

from __future__ import annotations

import os

if os.environ.get("SEMIHOC_THREADS"):
    # Cap BLAS worker pools; must happen before numpy is first imported.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["SEMIHOC_THREADS"])

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import oracles
from .datagen import (
    NO_LABEL,
    SPLIT_TEST,
    SPLIT_UNLABELED,
    SyntheticConfig,
    generate,
    load_features,
    sample_labeled_subset,
    save_features,
)
from .heads import DepthHeads
from .hierarchy import hierarchy_hash, load_hierarchy, save_hierarchy
from .metrics import bmhd, confidence_accuracy_bins, decomposition_matrix, gate_fpr_coverage, spl_purity_and_depth
from .prohoc import format_prediction_line, predict_nodes, subtree_confidences
from .spl import AgeGateState
from .trainer import METHODS, TrainConfig, format_field, load_checkpoint, predict_dataset, run_training


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
        config = SyntheticConfig(
            branching=args.branching,
            depth=args.depth,
            feature_dim=args.dim,
            train_per_leaf=args.train_per_leaf,
            test_per_leaf=args.test_per_leaf,
            sigma_level=args.sigma_level,
            sigma_noise=args.sigma_noise,
            ood_fraction=args.ood_fraction,
            root_ood_per_split=args.root_ood,
            seed=args.seed,
        )
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc))

    out = _prepare_out_dir(args.out, args.force)
    hierarchy, dataset = generate(config)
    if args.labels_per_class is not None:
        if args.labels_per_class < 1:
            raise UsageError("--labels-per-class must be >= 1")
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
    out = _prepare_out_dir(args.out, args.force)

    resume = _load("checkpoint", load_checkpoint, args.resume) if args.resume else None

    def log_fn(report):
        parts = [f"epoch {report.epoch}"]
        parts.append("loss " + "/".join(f"{l + u:.4f}" for l, u in zip(report.loss_labeled, report.loss_unlabeled)))
        if report.spl_total:
            parts.append(f"spl {report.spl_total} (gated {report.gated_count})")
        if report.bmhd_mix is not None:
            parts.append(f"bmhd-mix {report.bmhd_mix:.4f}")
        print("  ".join(parts))

    try:
        run_training(config, hierarchy, dataset, out_dir=out, resume=resume, log_fn=log_fn if not args.quiet else None)
    except ValueError as exc:
        raise DataError(str(exc))
    print(f"run artifacts in {out}")
    return 0


# -- eval -------------------------------------------------------------------------


def _split_indices(dataset, which: str) -> np.ndarray:
    if which == "test":
        return dataset.indices(SPLIT_TEST)
    if which == "train":
        return dataset.indices(SPLIT_UNLABELED)
    if which == "all":
        return np.arange(len(dataset))
    raise UsageError("--split must be test, train or all")


def _write_eval_reports(out, hierarchy, preds, gts, node_conf, sub_conf, bins) -> None:
    """bmhd.csv, decomposition_{id,ood}.csv and confidence_bins.csv."""
    known = gts != NO_LABEL
    if not known.any():
        raise DataError("evaluation subset has no samples with ground truth")
    report = bmhd(preds[known], gts[known], hierarchy)
    mix = 0.5 * (report.id + report.ood) if report.id is not None and report.ood is not None else None
    _write_csv(out / "bmhd.csv", ["bmhd_id", "bmhd_ood", "bmhd_mix"], [[report.id, report.ood, mix]])

    for subset in ("id", "ood"):
        matrix = decomposition_matrix(preds[known], gts[known], hierarchy, subset)
        header = ["under_dist"] + [f"over_{j}" for j in range(matrix.shape[1])]
        _write_csv(out / f"decomposition_{subset}.csv", header, [[i, *map(float, row)] for i, row in enumerate(matrix)])

    exact = preds == gts
    in_subtree = known & hierarchy.in_subtree(np.where(known, gts, 0), preds)
    is_id = hierarchy.is_leaf(preds)
    bin_rows = []
    for mode, confs, correct in (("node", node_conf, exact), ("subtree", sub_conf, in_subtree)):
        for panel in ("id", "ood"):
            sel = known & (is_id if panel == "id" else ~is_id)
            if not sel.any():
                continue
            table = confidence_accuracy_bins(confs[sel], correct[sel], n_bins=bins)
            for b in range(bins):
                acc = None if np.isnan(table.accuracy[b]) else float(table.accuracy[b])
                edges = map(float, table.edges[b : b + 2])
                bin_rows.append([mode, panel, *edges, acc, float(table.frequency[b]), int(table.counts[b])])
    header = ["mode", "panel", "bin_lo", "bin_hi", "accuracy", "frequency", "count"]
    _write_csv(out / "confidence_bins.csv", header, bin_rows)


def _eval_from_probs(out, hierarchy, dataset, idx, probs, bins):
    preds = predict_nodes(probs)
    conf = np.empty_like(probs)
    for i in range(0, len(probs), 1024):  # in blocks, like predict_dataset, so temporaries stay small
        conf[i : i + 1024] = subtree_confidences(probs[i : i + 1024], hierarchy)
    sample_ids = dataset.sample_ids[idx]

    lines = [format_prediction_line(hierarchy, int(g), probs[i], conf[i]) for i, g in enumerate(sample_ids)]
    (out / "predictions.txt").write_text("\n".join(lines) + "\n")

    gts = dataset.labels[idx]
    node_conf = probs[np.arange(len(preds)), preds]
    sub_conf = conf[np.arange(len(preds)), preds]
    _write_eval_reports(out, hierarchy, preds, gts, node_conf, sub_conf, bins)


def cmd_eval(args) -> int:
    hierarchy, dataset = _load_inputs(args)
    out = _prepare_out_dir(args.out, args.force)
    idx = _split_indices(dataset, args.split)
    if len(idx) == 0:
        raise DataError(f"split {args.split!r} is empty")

    if args.checkpoint:
        state = _load("checkpoint", load_checkpoint, args.checkpoint)
        meta = state["meta"]
        # load_features has matched the feature file's hash to the hierarchy
        if meta["hierarchy_hash"] != hierarchy_hash(hierarchy):
            raise DataError("checkpoint hierarchy hash does not match --hierarchy")
        config = TrainConfig.from_dict(meta["config"])
        heads = DepthHeads(hierarchy, dataset.dim, hidden=config.hidden_dim, dropout=config.dropout)
        _load(f"checkpoint: {args.checkpoint}", heads.load_state_dict, state)
        probs = predict_dataset(heads, hierarchy, dataset.features[idx])
        _eval_from_probs(out, hierarchy, dataset, idx, probs, args.bins)
        if args.split in ("train", "all"):
            _write_gate_diagnostics(out, hierarchy, dataset, state)
    else:
        _eval_from_predictions(out, hierarchy, dataset, idx, Path(args.predictions), args.bins)
    print(f"evaluation written to {out}")
    return 0


def _write_gate_diagnostics(out, hierarchy, dataset, state) -> None:
    """Purity / FPR / coverage diagnostics from the checkpointed log state.

    Correctness comes from the --features ground truth: an assignment is
    incorrect when the sample's ground truth lies outside the node's
    subtree, and of unknown correctness (never a false positive) when the
    sample has no ground truth.
    """
    log, history = ({k: state[f"{name}.{k}"] for k in ("sample_id", "node", "epoch")} for name in ("log", "history"))
    if not len(history["node"]) and not len(log["node"]):
        return
    gate = AgeGateState()
    gate.load_state_dict(state["meta"]["gate"])
    cutoffs = gate.vector(hierarchy.n_nodes)

    gts = dataset.labels_of(history["sample_id"])
    known = gts != NO_LABEL
    incorrect = known & ~hierarchy.in_subtree(np.where(known, gts, 0), history["node"])
    gate_report = gate_fpr_coverage(history["node"], history["epoch"], incorrect, cutoffs)

    # the gated current log of samples whose ground truth is an internal node
    gts = dataset.labels_of(log["sample_id"])
    known = gts != NO_LABEL
    keep = known & ~hierarchy.is_leaf(np.where(known, gts, 0)) & (log["epoch"] <= cutoffs[log["node"]])
    _, first, rows = np.unique(log["sample_id"][keep], return_index=True, return_inverse=True)
    gated = np.zeros((len(first), hierarchy.n_nodes), dtype=bool)
    gated[rows, log["node"][keep]] = True
    purity_depth = spl_purity_and_depth(gated, gts[keep][first], hierarchy)
    purity, avg_depth = (None, None) if purity_depth is None else purity_depth

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
    return fields


def _eval_from_predictions(out, hierarchy, dataset, idx, path: Path, bins: int) -> None:
    try:
        lines = path.read_bytes().splitlines()
    except OSError as exc:
        raise DataError(f"prediction dump: {exc}")
    records = []
    for lineno, line in enumerate(lines, start=1):
        try:
            line = line.decode("utf-8")  # a UnicodeDecodeError is a ValueError
            if line.strip():
                records.append((lineno, *_prediction_fields(line, hierarchy.n_nodes)))
        except ValueError as exc:
            raise DataError(f"prediction dump line {lineno}: {exc}") from None
    if not records:
        raise DataError("prediction dump covers no samples of the selected split")

    dump = np.array(records, dtype=_DUMP_DTYPE)
    unknown = ~np.isin(dump["sample_id"], dataset.sample_ids)
    if unknown.any():
        first = dump[np.argmax(unknown)]
        raise DataError(f"prediction dump line {first['line']}: unknown sample id {first['sample_id']}")
    dump = dump[np.isin(dump["sample_id"], dataset.sample_ids[idx])]
    if not len(dump):
        raise DataError("prediction dump covers no samples of the selected split")
    gts = dataset.labels_of(dump["sample_id"])
    _write_eval_reports(out, hierarchy, dump["node"], gts, dump["confidence"], dump["subtree_confidence"], bins)


# -- inspect ----------------------------------------------------------------------


def cmd_inspect(args) -> int:
    shown = False
    hierarchy = None
    if args.hierarchy:
        hierarchy = _load("hierarchy file", load_hierarchy, args.hierarchy)
        print(f"== {args.hierarchy}")
        print(hierarchy.summary())
        print(f"content hash: {hierarchy_hash(hierarchy):#018x}")
        shown = True
    if args.features:
        dataset = _load("feature file", load_features, args.features, hierarchy)
        print(f"== {args.features}")
        print(dataset.summary(hierarchy))
        print(f"hierarchy hash: {dataset.hierarchy_hash:#018x}")
        shown = True
    if args.checkpoint:
        state = _load("checkpoint", load_checkpoint, args.checkpoint)
        meta = state["meta"]
        print(f"== {args.checkpoint}")
        print(f"epochs completed: {meta['epoch']}")
        print(f"hierarchy hash: {meta['hierarchy_hash']:#018x}")
        print(f"config: {json.dumps(meta['config'], sort_keys=True)}")
        print(f"log entries: {len(state['log.node'])}")
        finite = [t for t in meta["gate"]["cutoffs"].values() if t != float("inf")]
        print(f"finite cutoffs: {len(finite)}")
        shown = True
    if not shown:
        raise UsageError("nothing to inspect: pass --hierarchy, --features and/or --checkpoint")
    return 0


# -- oracle-check -------------------------------------------------------------------


def cmd_oracle_check(args) -> int:
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--branching", type=int, default=3)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--train-per-leaf", type=int, default=14)
    p.add_argument("--test-per-leaf", type=int, default=8)
    p.add_argument("--sigma-level", type=float, default=1.0)
    p.add_argument("--sigma-noise", type=float, default=0.9)
    p.add_argument("--ood-fraction", type=float, default=0.2)
    p.add_argument("--root-ood", type=int, default=0)
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
    p.add_argument("--split", default="test", choices=("test", "train", "all"))
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
