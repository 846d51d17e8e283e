"""Command-line front end: evaluate, train-toy, compare, gradcheck.

Exit codes: 0 success, 1 failed checks or diverged training, 2 malformed
input. Config files and COCO files are read by `inputs`, so every
diagnostic names the file, the record or section, the field and the value.
The ATTNMASK_SEED environment variable overrides any --seed flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from dataclasses import dataclass

from .attention import VARIANTS
from .checks import MODULES, run_checks
from .coco_io import load_detections, load_gt, save_json
from .inputs import InputError, checked, field, load_json, replace_checked
from .metrics import COCO_SWEEP, format_table, map_report
from .model import Model, ModelConfig, build_model, infer, save_checkpoint
from .synth import SynthSpec, dataset_hash, synth_dataset, to_ground_truth
from .train import TrainConfig, train, write_trace_csv

__all__ = ["cli", "main"]


# -- config plumbing -----------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Run-scale knobs of a config file: dataset sizes and seeds, and the
    score threshold of the self-evaluation."""

    train_images: int = 24
    val_images: int = 8
    train_seed: int = 1001
    val_seed: int = 2002
    conf_threshold: float = 0.5

    def __post_init__(self):
        for name, least in (("train_images", 1), ("val_images", 1), ("train_seed", 0), ("val_seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not 0.0 <= self.conf_threshold <= 1.0:
            raise ValueError(f"conf_threshold must be in [0,1], got {self.conf_threshold}")


def _load_config(path: str | None) -> dict:
    return {} if path is None else load_json(path, lambda doc: checked("object", doc, "top level"))


def _split_config(cfg: dict, path: str) -> tuple[SynthSpec, dict, dict, RunConfig]:
    """A config file holds SynthSpec and RunConfig fields at top level plus
    optional "model"/"train" sections, which _train_one applies."""
    where = f"config {path}"
    model_overrides = field(cfg, "model", "object", where, {})
    train_overrides = field(cfg, "train", "object", where, {})
    run_keys = {f.name for f in dataclasses.fields(RunConfig)}
    run = replace_checked(RunConfig(), {k: v for k, v in cfg.items() if k in run_keys}, where)
    rest = {k: v for k, v in cfg.items() if k not in run_keys and k not in ("model", "train")}
    return replace_checked(SynthSpec(), rest, where), model_overrides, train_overrides, run


def _resolve_seed(flag_seed: int) -> int:
    env = os.environ.get("ATTNMASK_SEED")
    if env is None:
        source, seed = "--seed", flag_seed
    else:
        source = f"ATTNMASK_SEED={env!r}"
        try:
            seed = int(env)
        except ValueError as exc:
            raise InputError(f"{source} is not an integer") from exc
    if seed < 0:
        raise InputError(f"{source}: seed must be at least 0, got {seed}")
    return seed


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
            raise InputError(f"--thresholds: {token!r} is not a number or 'coco'") from exc
        rounded = round(value, 2)
        if not 0.0 < rounded < 1.0:
            raise InputError(f"--thresholds: {value} rounds to {rounded}, outside (0, 1)")
        out.append(rounded)
    if not out:
        raise InputError("--thresholds: no values given")
    return tuple(sorted(set(out)))


def _cmd_evaluate(args) -> int:
    gt = load_gt(args.gt)
    dets = load_detections(args.det, gt)
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
    mcfg = ModelConfig.toy(variant, num_classes=spec.num_classes)
    mcfg = replace_checked(mcfg, model_overrides, f"config {path}: model")
    if mcfg.num_classes < spec.num_classes:
        raise InputError(f"config {path}: model: num_classes must be at least the scenes' "
                         f"{spec.num_classes} classes, got {mcfg.num_classes}")
    tcfg = replace_checked(TrainConfig.toy(seed=seed), train_overrides, f"config {path}: train")
    train_ds = synth_dataset(spec, run.train_seed, run.train_images)
    val_ds = synth_dataset(spec, run.val_seed, run.val_images)
    model = build_model(mcfg, seed=seed)
    result = train(model, train_ds, tcfg)
    report, n_dets = _self_evaluate(model, val_ds, spec, run.conf_threshold)
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
        raise InputError(f"dataset hash mismatch across variants: {sorted(hashes)}")

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
