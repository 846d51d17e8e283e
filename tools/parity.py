"""Print sha256 digests of the package's product outputs, so that "byte for
byte the same as another tree" is a `diff` of two runs.

    PYTHONPATH=src python tools/parity.py > tools/parity.txt
    PYTHONPATH=src python tools/parity.py --check

The first line is the numeric environment (NumPy version, OpenBLAS core and
thread count), since a float64 GEMM's last bits depend on it; then one
`sha256  name` line per output. The command pins NumPy's OpenBLAS to the
console script's count (`cli.BLAS_THREADS`) first, so OPENBLAS_NUM_THREADS
moves neither line. `tools/parity.txt` is the committed record;
a change that means to move an output rewrites it in the same diff.
`--check` compares this tree with the record: it exits 0 when every line
matches, 1 after printing the lines that differ (`-` recorded, `+` now), and
2 without running anything when the environment line differs, since the
record then says nothing about this host. The outputs are:

- `train-toy` and `compare` on a small fixed config: every artifact, with
  the `train_seconds` fields dropped, and stdout and stderr with printed
  timings and the temporary paths masked;
- the exit code and diagnostic of each malformed `train-toy` or `compare`
  run in `ERROR_RUNS`, budget caps and unreadable config files included;
- `attnmask evaluate` reports and stdout on seeded COCO files at three
  threshold sets;
- the gradcheck battery's errors;
- `infer` with the bench fixture checkpoint at conf 0.0 and 0.5.

It uses the standard library, NumPy, the package and the tests' environment
record, reads `bench/fixtures` and writes only into a temporary directory.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import itertools
import json
import os
import re
import sys
import tempfile
import warnings

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from attnmask.checks import run_checks  # noqa: E402
from attnmask.cli import cli, pin_blas_threads  # noqa: E402
from attnmask.model import ModelConfig, build_model, infer, load_checkpoint  # noqa: E402
from attnmask.synth import SynthSpec, synth_dataset  # noqa: E402
from numeric_env import environment  # noqa: E402

SEED = "3"
# the tests' tiny config: 3 epochs of 3 steps, 2 validation images
RUN_CONFIG = {"train_images": 6, "val_images": 2, "train": {"epochs": 3, "step_epochs": [1, 2]},
              "model": {"fpn_dim": 16}}
# name, config written to a file (None: no --config; bytes: written as they
# are), ATTNMASK_SEED, extra flags
ERROR_RUNS = (
    ("seed-env-text", None, "twelve", []),
    ("seed-flag-negative", None, None, ["--seed", "-1"]),
    ("unknown-field", {"n_object": [1, 2]}, None, []),
    ("text-int", {"train": {"batch_size": "2"}}, None, []),
    ("too-few-classes", {"model": {"num_classes": 2}}, None, []),
    ("bad-model-and-train", {"model": {"fpn_dim": 0}, "train": {"batch_size": 0}}, None, []),
    ("diverged", {"train_images": 2, "val_images": 1, "model": {"fpn_dim": 16},
                  "train": {"lr": 1e6, "epochs": 3, "step_epochs": []}}, None, []),
    ("seed-in-config", {**RUN_CONFIG, "train": {**RUN_CONFIG["train"], "seed": 7}}, None, []),
    ("hflip-prob", {"train": {"hflip_prob": 0.5}}, None, []),
    ("oversized-model", {"model": {"head_width": 10**12}}, None, []),
    ("oversized-batch", {"train_images": 2, "model": {"fpn_dim": 16}, "train": {"batch_size": 10**12}}, None, []),
    ("oversized-train-images", {"train_images": 10**12}, None, []),
    ("not-utf8", b"\xff{}", None, []),
    ("nested-too-deeply", b"[" * 100_000, None, []),
)
EVAL_SEEDS = (0, 1, 2)
EVAL_THRESHOLDS = ("coco", "0.5", "0.75,0.3")
FIXTURE = os.path.join(ROOT, "bench", "fixtures", "cbam_toy.json")
RECORD = os.path.join(ROOT, "tools", "parity.txt")
INFER_SCENES = (7, 32)  # synth_dataset seed and count
INFER_CONFS = (0.0, 0.5)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _mask(text: str, tmp: str) -> str:
    """Printed timings and temporary paths differ on every run."""
    return re.sub(r"in \d+\.\ds", "in <t>s", text.replace(tmp, "<tmp>"))


def _cli(argv: list[str], tmp: str, seed_env: str | None = None) -> tuple[int, str, str]:
    """One in-process CLI call: its exit code and its masked stdout and
    stderr. As in the tests, a warning is an error: its text would name
    source paths and lines."""
    out, err = io.StringIO(), io.StringIO()
    os.environ.pop("ATTNMASK_SEED", None)
    if seed_env is not None:
        os.environ["ATTNMASK_SEED"] = seed_env
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli(argv)
    finally:
        os.environ.pop("ATTNMASK_SEED", None)
    return code, _mask(out.getvalue(), tmp), _mask(err.getvalue(), tmp)


def _write_json(path: str, doc) -> str:
    """doc as JSON, or as it is if it is bytes."""
    with open(path, "wb") as fh:
        fh.write(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    return path


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _untimed(path: str) -> bytes:
    """A JSON artifact without the `train_seconds` fields, which differ on
    every run; key order is kept."""
    doc = json.loads(_read(path))
    for record in (doc, *doc.get("variants", {}).values()):
        record.pop("train_seconds", None)
    return json.dumps(doc).encode()


def runs(tmp: str):
    """`train-toy` and `compare` on RUN_CONFIG at SEED."""
    cfg = _write_json(os.path.join(tmp, "run.json"), RUN_CONFIG)
    out = os.path.join(tmp, "train-toy")
    code, stdout, stderr = _cli(["train-toy", "--config", cfg, "--seed", SEED, "--out", out], tmp)
    yield "train-toy exit stdout stderr", f"{code}\n{stdout}\n{stderr}".encode()
    for name in ("model.npz", "loss_trace.csv"):
        yield f"train-toy {name}", _read(os.path.join(out, name))
    yield "train-toy eval.json", _untimed(os.path.join(out, "eval.json"))

    out = os.path.join(tmp, "compare")
    code, stdout, stderr = _cli(["compare", "--config", cfg, "--seed", SEED, "--out", out], tmp)
    yield "compare exit stdout stderr", f"{code}\n{stdout}\n{stderr}".encode()
    yield "compare compare.md", _read(os.path.join(out, "compare.md"))
    yield "compare compare.json", _untimed(os.path.join(out, "compare.json"))


def error_runs(tmp: str):
    """Each malformed run's exit code and diagnostic, for both commands."""
    for command in ("train-toy", "compare"):
        for name, cfg, seed_env, flags in ERROR_RUNS:
            argv = [command, "--out", os.path.join(tmp, "err")] + flags
            if cfg is not None:
                argv += ["--config", _write_json(os.path.join(tmp, f"{name}.json"), cfg)]
            code, _, stderr = _cli(argv, tmp, seed_env)
            yield f"{command} {name}", f"{code}\n{stderr}".encode()


def _coco_pair(seed: int) -> tuple[dict, list]:
    """20 images of 3 classes: boxes (one in eight a crowd region), jittered
    and relabelled copies and random false positives, scored on a 0.1 grid
    so that score ties are common."""
    rng = np.random.default_rng(seed)
    images, anns, dets = [], [], []
    for img in range(20):
        images.append({"id": img, "width": 96, "height": 96})
        for _ in range(int(rng.integers(0, 6))):
            x, y, w, h = (float(v) for v in np.concatenate([rng.uniform(0, 60, 2), rng.uniform(4, 30, 2)]))
            cid = int(rng.integers(1, 4))
            anns.append({"id": len(anns) + 1, "image_id": img, "category_id": cid, "bbox": [x, y, w, h],
                         "area": w * h, "iscrowd": int(rng.uniform() < 1 / 8)})
            for shift in rng.uniform(0.0, 0.6, int(rng.integers(0, 4))):
                cls = cid if rng.uniform() < 0.85 else int(rng.integers(1, 4))
                dets.append({"image_id": img, "category_id": cls, "score": round(float(rng.uniform()), 1),
                             "bbox": [x + shift * w, y + shift * h / 2, w, h]})
        for _ in range(int(rng.integers(0, 4))):
            x, y, w, h = (float(v) for v in np.concatenate([rng.uniform(0, 60, 2), rng.uniform(4, 30, 2)]))
            dets.append({"image_id": img, "category_id": int(rng.integers(1, 4)),
                         "score": round(float(rng.uniform(0, 0.6)), 1), "bbox": [x, y, w, h]})
    cats = [{"id": i, "name": name} for i, name in enumerate(("rectangle", "disk", "triangle"), 1)]
    return {"images": images, "categories": cats, "annotations": anns}, dets


def evaluations(tmp: str):
    """`attnmask evaluate` on each seeded pair at each threshold set."""
    for seed in EVAL_SEEDS:
        gt, dets = _coco_pair(seed)
        gt_path = _write_json(os.path.join(tmp, f"gt{seed}.json"), gt)
        det_path = _write_json(os.path.join(tmp, f"det{seed}.json"), dets)
        for thresholds in EVAL_THRESHOLDS:
            out = os.path.join(tmp, f"report{seed}.json")
            code, stdout, stderr = _cli(["evaluate", "--gt", gt_path, "--det", det_path,
                                         "--thresholds", thresholds, "--out", out], tmp)
            yield f"evaluate seed {seed} at {thresholds}", f"{code}\n{stdout}\n{stderr}".encode() + _read(out)


def gradchecks():
    """Every case's name, seed and relative error."""
    run = run_checks("all")
    yield f"gradcheck {len(run.cases)} errors", repr(
        [(c.suite, c.name, c.seed, c.max_rel_err) for c in run.cases]).encode()


def inferences():
    """The fixture model's detections and masks on INFER_SCENES."""
    with open(FIXTURE, encoding="utf-8") as fh:
        meta = json.load(fh)
    cfg = meta["model_config"]
    model = build_model(ModelConfig.toy(cfg["variant"], num_classes=cfg["num_classes"]), seed=meta["model_seed"])
    load_checkpoint(model, os.path.join(os.path.dirname(FIXTURE), meta["checkpoint"]))
    scenes = synth_dataset(SynthSpec(), *INFER_SCENES)
    for conf in INFER_CONFS:
        rows = [np.int64(p.detection.class_id).tobytes() + np.array([p.detection.score, *p.detection.box]).tobytes()
                + p.mask.tobytes()
                for image_id, sample in enumerate(scenes)
                for p in infer(model, sample.image, image_id=image_id, conf_threshold=conf)]
        yield f"infer fixture at conf {conf} ({len(rows)} detections)", b"".join(rows)


def lines():
    """The environment line, then one `sha256  name` line per output."""
    yield f"# environment {environment()}"
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in itertools.chain(runs(tmp), error_runs(tmp), evaluations(tmp), gradchecks(), inferences()):
            yield f"{_sha(data)}  {name}"


def check() -> int:
    """Compare this tree's lines with RECORD; see the module docstring."""
    with open(RECORD, encoding="utf-8") as fh:
        recorded = fh.read().splitlines()
    now = lines()
    here = next(now)  # the environment line; no output is made before the second
    if recorded[:1] != [here]:
        print(f"not checked: {RECORD} was recorded in\n  {recorded[0] if recorded else '(empty)'}\n"
              f"and this host is\n  {here}", file=sys.stderr)
        return 2
    diff = [d for d in difflib.unified_diff(recorded[1:], list(now), lineterm="", n=0)
            if d.startswith(("+", "-")) and not d.startswith(("+++", "---"))]
    print("\n".join(diff) if diff else f"all {len(recorded)} lines match {RECORD}")
    return 1 if diff else 0


def main(argv: list[str]) -> int:
    pin_blas_threads()
    if argv == ["--check"]:
        return check()
    if argv:
        print("usage: tools/parity.py [--check]", file=sys.stderr)
        return 2
    for line in lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
