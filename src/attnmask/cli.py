"""Command-line front end: evaluate, train-toy, compare, gradcheck.

Exit codes: 0 success, 1 failed checks or diverged training, 2 malformed
inputs (the diagnostic names the offending file, record or section, and
field).
The ATTNMASK_SEED environment variable overrides any --seed flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from .attention import VARIANTS
from .checks import MODULES, run_checks
from .coco_io import CocoFormatError, load_detections, load_gt, save_json
from .metrics import COCO_SWEEP, format_table, map_report
from .model import Model, ModelConfig, build_model, infer, save_checkpoint
from .synth import SynthSpec, dataset_hash, synth_dataset, to_ground_truth
from .train import TrainConfig, train, write_trace_csv

__all__ = ["cli", "main"]


class CLIError(ValueError):
    """Input problem with a user-facing diagnostic."""


# -- config plumbing -----------------------------------------------------------


def _fits(kind: str, value) -> bool:
    """Whether a JSON value is of one annotation term: int, float, str, bool
    or None. A float must be finite and an int may stand for it; booleans
    are not numbers. Nested configs (StageConfig, AnchorConfig) have no
    JSON form and fit nothing."""
    if kind == "float":
        return type(value) is int or (type(value) is float and math.isfinite(value))
    return type(value) is {"int": int, "str": str, "bool": bool, "None": type(None)}.get(kind)


def _checked_value(annotation: str, value, where: str):
    """value, a list turned into a tuple, if it fits the field annotation
    ("int | None", "tuple[float, float]", "tuple[str, ...]"); otherwise a
    CLIError naming where."""
    for kind in annotation.split(" | "):
        if kind.startswith("tuple[") and isinstance(value, list):
            kinds = kind[6:-1].split(", ")
            if kinds[-1] == "...":
                kinds = kinds[:1] * len(value)
            if len(kinds) == len(value) and all(map(_fits, kinds, value)):
                return tuple(value)
        elif _fits(kind, value):
            return value
    raise CLIError(f"{where} must be {annotation}, got {value!r}")


def _replace_checked(obj, overrides: dict, where: str, section: str | None = None):
    """dataclasses.replace after checking every override against its field's
    annotation. where names the config file; section is "model" or "train",
    or None for top-level fields."""
    dot = f"{section}." if section else ""
    types = {f.name: f.type for f in dataclasses.fields(obj)}
    fixed = {}
    for key, value in overrides.items():
        if key not in types:
            raise CLIError(f"{where}: unknown field {dot + key!r}")
        fixed[key] = _checked_value(types[key], value, f"{where}: {dot}{key}")
    try:
        return dataclasses.replace(obj, **fixed)
    except (TypeError, ValueError) as exc:
        raise CLIError(f"{where}: {section}: {exc}" if section else f"{where}: {exc}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIError(f"config {path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    if not isinstance(cfg, dict):
        raise CLIError(f"config {path}: top level must be an object")
    return cfg


def _split_config(cfg: dict, path: str) -> tuple[SynthSpec, dict, dict, dict]:
    """A config file carries synth fields at top level plus optional
    "model"/"train" sections and run-scale knobs. The sections are checked
    when they are applied, by _train_one."""
    run = {"train_images": 24, "val_images": 8, "train_seed": 1001, "val_seed": 2002,
           "conf_threshold": 0.5}
    model_overrides = cfg.pop("model", {})
    train_overrides = cfg.pop("train", {})
    if not isinstance(model_overrides, dict):
        raise CLIError(f"config {path}: \"model\" must be an object")
    if not isinstance(train_overrides, dict):
        raise CLIError(f"config {path}: \"train\" must be an object")
    for key, default in run.items():
        if key in cfg:
            # each knob takes the type of its default
            run[key] = _checked_value(type(default).__name__, cfg.pop(key), f"config {path}: {key}")
    spec = _replace_checked(SynthSpec(), cfg, f"config {path}")
    return spec, model_overrides, train_overrides, run


def _resolve_seed(flag_seed: int) -> int:
    env = os.environ.get("ATTNMASK_SEED")
    if env is None:
        return flag_seed
    try:
        return int(env)
    except ValueError as exc:
        raise CLIError(f"ATTNMASK_SEED={env!r} is not an integer") from exc


# -- subcommands -----------------------------------------------------------------


def _parse_thresholds(text: str) -> tuple[float, ...]:
    out: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "coco":
            out.extend(COCO_SWEEP)
            continue
        try:
            value = float(token)
        except ValueError as exc:
            raise CLIError(f"--thresholds: {token!r} is not a number or 'coco'") from exc
        if not 0.0 < value < 1.0:
            raise CLIError(f"--thresholds: {value} outside (0, 1)")
        out.append(round(value, 2))
    if not out:
        raise CLIError("--thresholds: no values given")
    return tuple(sorted(set(out)))


def _cmd_evaluate(args) -> int:
    gt = load_gt(args.gt)
    dets = load_detections(args.det, categories=gt.categories)
    thresholds = _parse_thresholds(args.thresholds)
    report = map_report(dets, gt.records, thresholds=thresholds)
    print(format_table([(os.path.basename(args.det), report)]))
    if args.out:
        save_json(report.to_json(), args.out)
        print(f"report written to {args.out}")
    return 0


def _self_evaluate(model: Model, val_ds, spec: SynthSpec, conf: float):
    dets = []
    for img_id, sample in enumerate(val_ds):
        preds = infer(model, sample.image, image_id=img_id, conf_threshold=conf)
        dets.extend(p.detection for p in preds)
    gt = to_ground_truth(val_ds, spec.classes)
    return map_report(dets, gt.records), len(dets)


def _train_one(variant: str, seed: int, path: str, spec, model_overrides, train_overrides, run):
    where = f"config {path}"
    mcfg = ModelConfig.toy(variant, num_classes=spec.num_classes)
    mcfg = _replace_checked(mcfg, model_overrides, where, "model")
    tcfg = _replace_checked(TrainConfig.toy(seed=seed), train_overrides, where, "train")
    train_ds = synth_dataset(spec, run["train_seed"], run["train_images"])
    val_ds = synth_dataset(spec, run["val_seed"], run["val_images"])
    model = build_model(mcfg, seed=seed)
    result = train(model, train_ds, tcfg)
    report, n_dets = _self_evaluate(model, val_ds, spec, run["conf_threshold"])
    return model, result, report, n_dets, dataset_hash(train_ds)


def _cmd_train_toy(args) -> int:
    seed = _resolve_seed(args.seed)
    path = args.config or "<default>"
    spec, model_overrides, train_overrides, run = _split_config(_load_config(args.config), path)
    os.makedirs(args.out, exist_ok=True)
    t0 = time.perf_counter()
    model, result, report, n_dets, ds_hash = _train_one(
        args.attention, seed, path, spec, model_overrides, train_overrides, run
    )
    elapsed = time.perf_counter() - t0

    save_checkpoint(model, os.path.join(args.out, "model.npz"))
    write_trace_csv(result.records, os.path.join(args.out, "loss_trace.csv"))
    payload = report.to_json()
    payload.update({
        "variant": args.attention, "seed": seed, "detections": n_dets,
        "train_dataset_sha256": ds_hash, "train_seconds": round(elapsed, 2),
    })
    save_json(payload, os.path.join(args.out, "eval.json"))

    print(format_table([(args.attention, report)]))
    print(f"{len(result.records)} steps in {elapsed:.1f}s; artifacts in {args.out}")
    return 0


def _cmd_compare(args) -> int:
    seed = _resolve_seed(args.seed)
    path = args.config or "<default>"
    spec, model_overrides, train_overrides, run = _split_config(_load_config(args.config), path)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    summary = {}
    hashes = set()
    for variant in VARIANTS:
        t0 = time.perf_counter()
        model, result, report, n_dets, ds_hash = _train_one(
            variant, seed, path, spec, model_overrides, train_overrides, run
        )
        elapsed = time.perf_counter() - t0
        hashes.add(ds_hash)
        rows.append((variant, report))
        summary[variant] = {
            "map50": report.map50, "map75": report.map75, "map_coco": report.map_coco,
            "detections": n_dets, "train_seconds": round(elapsed, 2),
        }
        print(f"[{variant}] done in {elapsed:.1f}s ({n_dets} detections)", file=sys.stderr)
    if len(hashes) != 1:
        raise CLIError(f"dataset hash mismatch across variants: {sorted(hashes)}")

    table = format_table(rows)
    print(table)
    with open(os.path.join(args.out, "compare.md"), "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    save_json({"dataset_sha256": hashes.pop(), "seed": seed, "variants": summary},
              os.path.join(args.out, "compare.json"))
    print(f"artifacts in {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    run = run_checks(args.module)
    for line in run.summary_lines():
        print(line)
    return 0 if run.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnmask",
        description="Attention-gated detector: evaluation, toy training, and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="score a COCO-style detection file against ground truth")
    p_eval.add_argument("--gt", required=True, help="ground-truth JSON")
    p_eval.add_argument("--det", required=True, help="detections JSON")
    p_eval.add_argument("--thresholds", default="0.5,0.75,coco",
                        help="comma list of IoU thresholds and/or 'coco'")
    p_eval.add_argument("--out", default=None, help="write the full report JSON here")
    p_eval.set_defaults(fn=_cmd_evaluate)

    p_train = sub.add_parser("train-toy", help="train the toy detector on synthetic scenes")
    p_train.add_argument("--config", default=None, help="JSON overrides (synth/model/train)")
    p_train.add_argument("--attention", default="cbam", choices=VARIANTS)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", required=True, help="artifact directory")
    p_train.set_defaults(fn=_cmd_train_toy)

    p_cmp = sub.add_parser("compare", help="train all four attention variants on identical data")
    p_cmp.add_argument("--config", default=None)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(fn=_cmd_compare)

    p_chk = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p_chk.add_argument("--module", default="all", choices=("all",) + MODULES)
    p_chk.set_defaults(fn=_cmd_gradcheck)
    return parser


def cli(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FloatingPointError as exc:
        # configs, COCO files and checkpoints reject non-finite numbers, so
        # these come from a diverged run, not from malformed input
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
