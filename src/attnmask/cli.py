"""Command-line front end: evaluate, train-toy, compare, gradcheck.

`train-toy` (one attention variant) and `compare` (all four) run on one
path, `_run`: the scenes and the validation ground truth are built once per
command, and every variant is trained and scored the same way on them.

Exit codes: 0 success, 1 failed checks or diverged training, 2 malformed
input. Config files and COCO files are read by `inputs`, so every
diagnostic names the file, the record or section, the field and the value.
A malformed config exits 2 before `--out` is made or any scene is built,
and `evaluate` checks `--thresholds` before it reads either file.
The command owns the attention variant and the seed: a config that sets
`model.variant` or `train.seed` exits 2. The ATTNMASK_SEED environment
variable overrides any --seed flag.
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
from .inputs import InputError, checked, field, load_json, replace_checked, require
from .metrics import COCO_SWEEP, DetTable, GTTable, format_table, map_report
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
        require(self, "at least 1", lambda v: v >= 1, "train_images", "val_images")
        require(self, "at least 0", lambda v: v >= 0, "train_seed", "val_seed")
        require(self, "in [0,1]", lambda v: 0.0 <= v <= 1.0, "conf_threshold")


# section -> (field, where the command takes it from): what a config may not set
_COMMAND_OWNS = {"model": ("variant", "train-toy --attention, or all four in compare"),
                 "train": ("seed", "--seed or ATTNMASK_SEED")}


def _split_config(cfg: dict, path: str, variants: tuple[str, ...], seed: int):
    """The one reader of a run's settings, before anything is made: SynthSpec and RunConfig fields at
    top level, optional "model"/"train" sections, never what the command owns (every row keeps the
    variant it was trained under, and the recorded seed is the one training used). No model rule
    reads the variant, so one checked ModelConfig is copied per variant."""
    where = f"config {path}"
    sections = {}
    for name, (key, source) in _COMMAND_OWNS.items():
        sections[name] = field(cfg, name, "object", where, {})
        if key in sections[name]:
            raise InputError(f"{where}: {name}: {key} comes from the command ({source}), not the config, "
                             f"got {sections[name][key]!r}")
    run_keys = {f.name for f in dataclasses.fields(RunConfig)}
    run = replace_checked(RunConfig(), {k: v for k, v in cfg.items() if k in run_keys}, where)
    rest = {k: v for k, v in cfg.items() if k not in run_keys and k not in sections}
    spec = replace_checked(SynthSpec(), rest, where)
    mcfg = replace_checked(ModelConfig.toy(num_classes=spec.num_classes), sections["model"], f"{where}: model")
    if mcfg.num_classes < spec.num_classes:
        raise InputError(f"{where}: model: num_classes must be at least the scenes' "
                         f"{spec.num_classes} classes, got {mcfg.num_classes}")
    models = tuple(dataclasses.replace(mcfg, variant=variant) for variant in variants)
    tcfg = replace_checked(TrainConfig.toy(seed=seed), sections["train"], f"{where}: train")
    return spec, run, models, tcfg


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
    thresholds = _parse_thresholds(args.thresholds)
    gt = load_gt(args.gt)
    dets = load_detections(args.det, gt)
    report = map_report(dets, gt.records, thresholds=thresholds)
    print(format_table([(os.path.basename(args.det), report)]))
    if args.out:
        save_json(report.to_json(), args.out)
        print(f"report written to {args.out}")
    return 0


def _self_evaluate(model: Model, val_ds, val_gt: GTTable, conf: float):
    dets = [p.detection for img_id, sample in enumerate(val_ds)
            for p in infer(model, sample.image, image_id=img_id, conf_threshold=conf)]
    return map_report(DetTable.of(dets), val_gt), len(dets)


def _run(args, variants: tuple[str, ...]):
    """The one run path of `train-toy` and `compare`: resolve the seed and
    read every setting of the config, then make `--out` and build the scenes
    and the val ground truth once. Returns the seed, the train scenes' hash
    and a generator that trains and scores each variant in turn on those
    same scenes (`train` and `infer` leave them unchanged), yielding
    (variant, model, train result, report, detections, seconds)."""
    seed = _resolve_seed(args.seed)
    cfg = {} if args.config is None else load_json(args.config, lambda doc: checked("object", doc, "top level"))
    spec, run, models, tcfg = _split_config(cfg, args.config or "<default>", variants, seed)
    os.makedirs(args.out, exist_ok=True)
    train_ds = synth_dataset(spec, run.train_seed, run.train_images)
    val_ds = synth_dataset(spec, run.val_seed, run.val_images)
    val_gt = to_ground_truth(val_ds, spec.classes).records

    def rows():
        for mcfg in models:
            t0 = time.perf_counter()
            model = build_model(mcfg, seed=seed)
            result = train(model, train_ds, tcfg)
            report, n_dets = _self_evaluate(model, val_ds, val_gt, run.conf_threshold)
            yield mcfg.variant, model, result, report, n_dets, time.perf_counter() - t0

    return seed, dataset_hash(train_ds), rows()


def _cmd_train_toy(args) -> int:
    seed, train_sha, rows = _run(args, (args.attention,))
    [(variant, model, result, report, n_dets, elapsed)] = rows
    save_checkpoint(model, os.path.join(args.out, "model.npz"))
    write_trace_csv(result.records, os.path.join(args.out, "loss_trace.csv"))
    payload = report.to_json()
    payload.update({
        "variant": variant, "seed": seed, "detections": n_dets,
        "train_dataset_sha256": train_sha, "train_seconds": round(elapsed, 2),
    })
    save_json(payload, os.path.join(args.out, "eval.json"))

    print(format_table([(variant, report)]))
    print(f"{len(result.records)} steps in {elapsed:.1f}s; artifacts in {args.out}")
    return 0


def _cmd_compare(args) -> int:
    seed, train_sha, rows = _run(args, VARIANTS)
    reports, summary = [], {}
    for variant, _, _, report, n_dets, elapsed in rows:
        reports.append((variant, report))
        summary[variant] = {
            "map50": report.map50, "map75": report.map75, "map_coco": report.map_coco,
            "detections": n_dets, "train_seconds": round(elapsed, 2),
        }
        print(f"[{variant}] done in {elapsed:.1f}s ({n_dets} detections)", file=sys.stderr)

    table = format_table(reports)
    print(table)
    with open(os.path.join(args.out, "compare.md"), "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    save_json({"dataset_sha256": train_sha, "seed": seed, "variants": summary},
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
