"""The five benchmark workloads: input generators, timed loops and checks.

Each workload turns the benchmark seed into its inputs (`setup`), runs
operations until told to stop (`run`), and checks every output. The unit of
one operation is a train step, one inferred image, one `attnmask evaluate`
call, or one gradient-check case. Nothing here changes attnmask; the timing
hooks are wrappers swapped in from outside (see spans.py), and attnmask
functions are called through their modules so that those wrappers see
the benchmark's own calls too.

Why each workload exists is written down in WORKLOADS.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import shutil
import sys
import time
import zipfile
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from attnmask import checks as checks_mod  # noqa: E402
from attnmask import cli as cli_mod  # noqa: E402
from attnmask import model as model_mod  # noqa: E402
from attnmask import synth as synth_mod  # noqa: E402
from attnmask import train as train_mod  # noqa: E402
from attnmask.model import ModelConfig  # noqa: E402
from attnmask.synth import SynthSpec  # noqa: E402
from attnmask.train import TrainConfig  # noqa: E402

from spans import Installed, Tracer  # noqa: E402

FIXTURE_META = os.path.join(HERE, "fixtures", "cbam_toy.json")

TRAIN_IMAGES = 48
TRAIN_STEPS_PER_CALL = 6
VAL_IMAGES = 32
EVAL_FILES = 4
EVAL_IMAGES_PER_FILE = 20
EVAL_DETS_PER_IMAGE = 100
EVAL_THRESHOLDS = "0.5,0.75,coco"
EVAL_CANVAS = (640, 480)
# steps replayed from the checkpoint after a train run, whose loss trace
# must repeat the run's first steps bit for bit
RERUN_STEPS = 2
# mAP@0.5 floor for the frozen checkpoint on the validation scenes, the
# acceptance gate's bar. At the seed commit seeds 0-19 gave 0.65-0.83 at
# conf 0.5 and 0.69-0.85 at conf 0.0 on 32 scenes.
INFER_MAP50_BAR = 0.5


def derive(seed: int, *tags: int) -> int:
    """A 32-bit seed for one input stream of one workload seed."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def load_oracles():
    """tests/oracles.py, the brute-force references the test suite uses."""
    path = os.path.join(ROOT, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("attnmask_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- results -----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one pass of a workload did.

    op_s: seconds per operation; items: work items per operation (images,
    detections or cases); speed: the reference loop's speed around each
    operation when the run samples it (see OpTimer). All aligned with op_s.
    """

    op_s: list = field(default_factory=list)
    items: list = field(default_factory=list)
    speed: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    wall_s: float = 0.0

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)


class OpTimer:
    """Times operations into an Outcome. With a `reference` (a callable that
    runs a fixed loop and returns its speed), it samples the host's speed
    after every operation, outside the timed span, and records the mean of
    the samples before and after each operation."""

    def __init__(self, out: Outcome, reference=None):
        self.out = out
        self.reference = reference
        self._last = reference() if reference is not None else None

    def stop(self, t0: float) -> None:
        self.out.op_s.append(time.perf_counter() - t0)
        if self.reference is not None:
            now = self.reference()
            self.out.speed.append((self._last + now) / 2.0)
            self._last = now


class Stop:
    """Stop rule: at least `seconds` of measuring and `min_ops` operations
    (capped at `cap_s`), or exactly `ops` operations when given."""

    def __init__(self, seconds: float = 0.0, min_ops: int = 0, ops: int | None = None,
                 cap_s: float = math.inf):
        self.seconds, self.min_ops, self.ops, self.cap_s = seconds, min_ops, ops, cap_s
        self.t0 = time.perf_counter()

    def remaining(self, done: int) -> int | None:
        """Operations still owed under a fixed count, else None."""
        return None if self.ops is None else max(self.ops - done, 0)

    def done(self, n_ops: int) -> bool:
        if self.ops is not None:
            return n_ops >= self.ops
        elapsed = time.perf_counter() - self.t0
        if elapsed >= self.cap_s:
            return True
        return elapsed >= self.seconds and n_ops >= self.min_ops


# -- shared set-up --------------------------------------------------------------------


def fixture_meta() -> dict:
    with open(FIXTURE_META, encoding="utf-8") as fh:
        return json.load(fh)


def load_frozen_model(checkpoint: str | None = None):
    """Build the fixture's model and load its weights.

    Returns (model, problem): problem names a checksum or config mismatch,
    which the caller counts as a failure, and model is None when the file
    does not load at all. The benchmark never retrains.
    """
    meta = fixture_meta()
    path = checkpoint or os.path.join(os.path.dirname(FIXTURE_META), meta["checkpoint"])
    problem = None
    digest = file_sha256(path)
    if digest != meta["sha256"]:
        problem = f"checkpoint {os.path.basename(path)} sha256 {digest[:12]} != recorded {meta['sha256'][:12]}"
    cfg = ModelConfig.toy(meta["model_config"]["variant"], num_classes=meta["model_config"]["num_classes"])
    if json.loads(json.dumps(dataclasses.asdict(cfg))) != meta["model_config"]:
        problem = problem or "ModelConfig.toy no longer matches the fixture's recorded config"
    model = model_mod.build_model(cfg, seed=meta["model_seed"])
    try:
        model_mod.load_checkpoint(model, path)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        return None, problem or f"checkpoint {os.path.basename(path)} does not load: {exc}"
    return model, problem


class Workload:
    name = ""
    trace_ops = 0  # operations in each pass of a traced run

    def __init__(self, seed: int, workdir: str, checkpoint: str | None = None):
        self.seed = seed
        self.workdir = workdir
        self.checkpoint = checkpoint

    def setup(self):
        raise NotImplementedError

    def run(self, state, stop: Stop, tracer: Tracer | None = None, reference=None) -> Outcome:
        raise NotImplementedError

    def verify(self, state, out: Outcome) -> None:
        """Checks that need the whole pass (run after the timed loop)."""


# -- train ----------------------------------------------------------------------------


class TrainWorkload(Workload):
    """Warm-started SGD steps on scenes from the seed.

    train() is called repeatedly, each call running TRAIN_STEPS_PER_CALL steps
    of the toy recipe (batch 2, base rate) from the model's current weights;
    momentum restarts with each call. Step boundaries come from a wrapper
    around train._sgd_step, the last thing a step does.
    """

    name, trace_ops = "train", 18

    def setup(self):
        model, problem = load_frozen_model(self.checkpoint)
        data = synth_mod.synth_dataset(SynthSpec(), derive(self.seed, 1), TRAIN_IMAGES)
        return {"model": model, "data": data, "problem": problem}

    def _config(self, call: int, steps: int = TRAIN_STEPS_PER_CALL) -> TrainConfig:
        base = TrainConfig.toy(seed=derive(self.seed, 2, call))
        return dataclasses.replace(base, epochs=1, step_epochs=(), steps_per_epoch=steps)

    def run(self, state, stop, tracer=None, reference=None):
        out = Outcome()
        if state["problem"]:
            out.attempted += 1
            out.fail(1, state["problem"])
        if state["model"] is None:
            return out
        timer = OpTimer(out, reference)
        real_sgd = train_mod._sgd_step
        step_start = [0.0]

        def sgd_probe(*args, **kwargs):
            real_sgd(*args, **kwargs)
            timer.stop(step_start[0])
            out.items.append(2)
            if tracer is not None:
                tracer.cut("train.step")
            step_start[0] = time.perf_counter()

        state["first_records"] = None
        t_start = time.perf_counter()
        with Installed() as patch:
            patch.patch(train_mod, "_sgd_step", sgd_probe)
            call = 0
            while not stop.done(len(out.op_s)):
                left = stop.remaining(len(out.op_s))
                steps = TRAIN_STEPS_PER_CALL if left is None else min(left, TRAIN_STEPS_PER_CALL)
                outer = tracer.open("train.train") if tracer is not None else None
                if tracer is not None:
                    tracer.open("train.step")
                step_start[0] = time.perf_counter()
                try:
                    result = train_mod.train(state["model"], state["data"], self._config(call, steps))
                except (FloatingPointError, ValueError) as exc:
                    result = None
                    out.attempted += steps
                    out.fail(steps, f"train call {call}: {exc}")
                finally:
                    if tracer is not None:
                        tracer.close_open("train.step", rename="train.tail")
                        tracer.close(outer)
                if result is None:
                    break
                out.attempted += len(result.records)
                for r in result.records:
                    if not all(math.isfinite(v) for v in (r.l_cls, r.l_reg, r.l_mask, r.l_total)):
                        out.fail(1, f"call {call} step {r.step}: non-finite loss")
                if call == 0:
                    state["first_records"] = result.records
                call += 1
        out.wall_s = time.perf_counter() - t_start
        return out

    def verify(self, state, out):
        """Replay the first steps from the same starting weights: the loss
        trace must repeat bit for bit."""
        first = state.get("first_records")
        if not first:
            return
        n = min(RERUN_STEPS, len(first))
        model, _ = load_frozen_model(self.checkpoint)
        again = train_mod.train(model, state["data"], self._config(0, n)).records
        for a, b in zip(first[:n], again):
            if dataclasses.astuple(a) != dataclasses.astuple(b):
                out.fail(1, f"step {a.step}: loss trace differs on a repeated run")


# -- infer ----------------------------------------------------------------------------


class InferWorkload(Workload):
    """`infer` on validation scenes from the seed, one image per operation,
    cycling through the scenes; every pass must repeat the first one."""

    conf = 0.5

    def setup(self):
        model, problem = load_frozen_model(self.checkpoint)
        spec = SynthSpec()
        val = synth_mod.synth_dataset(spec, derive(self.seed, 3), VAL_IMAGES)
        gt = synth_mod.to_ground_truth(val, spec.classes)
        return {"model": model, "val": val, "gt": gt, "problem": problem}

    def run(self, state, stop, tracer=None, reference=None):
        out = Outcome()
        if state["problem"]:
            out.attempted += 1
            out.fail(1, state["problem"])
        if state["model"] is None:
            return out
        timer = OpTimer(out, reference)
        model, val = state["model"], state["val"]
        first = state.setdefault("first_pass", {})
        t_start = time.perf_counter()
        i = 0
        while not stop.done(i):
            k = i % len(val)
            image = val[k].image
            t0 = time.perf_counter()
            try:
                preds = model_mod.infer(model, image, image_id=k, conf_threshold=self.conf)
            except (ValueError, FloatingPointError) as exc:
                preds = None
                problem = f"image {k}: infer raised {exc}"
            timer.stop(t0)
            out.items.append(1)
            out.attempted += 1
            if preds is not None:
                problem = self._invalid(preds, image.shape, model.cfg.num_classes)
            if problem is None:
                key = [(p.detection.class_id, p.detection.score, p.detection.box, p.mask.tobytes())
                       for p in preds]
                if k not in first:
                    first[k] = (preds, key)
                elif first[k][1] != key:
                    problem = f"image {k}: detections differ from the first pass"
            if problem is not None:
                out.fail(1, problem)
            i += 1
        out.wall_s = time.perf_counter() - t_start
        return out

    def _invalid(self, preds, shape, num_classes: int) -> str | None:
        _, h, w = shape
        for n, p in enumerate(preds):
            d, b = p.detection, p.detection.box
            coords = (b.x1, b.y1, b.x2, b.y2)
            if not all(math.isfinite(v) for v in coords):
                return f"detection {n}: non-finite box"
            if not (0 <= b.x1 < b.x2 <= w and 0 <= b.y1 < b.y2 <= h):
                return f"detection {n}: box {coords} outside the {w}x{h} image"
            if not (self.conf <= d.score <= 1.0):
                return f"detection {n}: score {d.score} below threshold {self.conf}"
            if not 1 <= d.class_id <= num_classes:
                return f"detection {n}: class {d.class_id} outside 1..{num_classes}"
            if p.mask.shape != (h, w) or p.mask.dtype != bool:
                return f"detection {n}: mask {p.mask.shape} {p.mask.dtype}"
        if len(preds) > 100:
            return f"{len(preds)} detections exceed the cap of 100"
        return None

    def verify(self, state, out):
        """mAP@0.5 of the first pass, scored by the brute-force oracle."""
        first = state.get("first_pass", {})
        if not first:
            return
        oracles = load_oracles()
        images = sorted(first)
        dets = [(k, p.detection.class_id, p.detection.score,
                 (p.detection.box.x1, p.detection.box.y1, p.detection.box.x2, p.detection.box.y2))
                for k in images for p in first[k][0]]
        gts = [(g.image_id, g.class_id, (g.box.x1, g.box.y1, g.box.x2, g.box.y2), g.iscrowd)
               for g in state["gt"].records if g.image_id in first]
        map50 = oracles.map_reference(dets, gts, 0.5)
        state["map50"] = map50
        state["dets_per_image"] = len(dets) / len(images)
        if map50 < INFER_MAP50_BAR:
            out.fail(len(images), f"mAP@0.5 {map50:.4f} below the bar {INFER_MAP50_BAR}")


class InferSparseWorkload(InferWorkload):
    name, conf, trace_ops = "infer_sparse", 0.5, 32


class InferDenseWorkload(InferWorkload):
    name, conf, trace_ops = "infer_dense", 0.0, 16


# -- evaluate -------------------------------------------------------------------------


def _jitter(box, target_iou: float, rng) -> list[float]:
    """Shift a COCO [x, y, w, h] box along one axis so its IoU with the
    original is target_iou: a shift of f extents gives (1 - f) / (1 + f)."""
    x, y, w, h = box
    f = (1.0 - target_iou) / (1.0 + target_iou)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    if rng.random() < 0.5:
        x += sign * f * w
    else:
        y += sign * f * h
    return [x, y, w, h]


def make_coco_pair(seed: int, n_images: int, dets_per_image: int = EVAL_DETS_PER_IMAGE):
    """Ground truth and detections for n_images, fully determined by seed.

    Each image holds 1-4 objects of 3 classes (one in ten a crowd region).
    Its detections are jittered copies of its objects at graded IoU, one in
    ten with the wrong class, plus random false positives up to the count.
    """
    rng = np.random.default_rng(np.random.PCG64(seed))
    width, height = EVAL_CANVAS
    images, annotations, dets = [], [], []
    for img in range(1, n_images + 1):
        images.append({"id": img, "width": width, "height": height})
        objects = []
        for _ in range(int(rng.integers(1, 5))):
            w, h = float(rng.uniform(24, 200)), float(rng.uniform(24, 200))
            x, y = float(rng.uniform(0, width - w)), float(rng.uniform(0, height - h))
            box = [round(x, 2), round(y, 2), round(w, 2), round(h, 2)]
            cid = int(rng.integers(1, 4))
            crowd = int(rng.random() < 0.1)
            annotations.append({"id": len(annotations) + 1, "image_id": img, "category_id": cid,
                                "bbox": box, "area": round(w * h, 2), "iscrowd": crowd})
            objects.append((box, cid))
        mine = []
        for box, cid in objects:
            for target in (0.95, 0.85, 0.75, 0.65, 0.55, 0.45):
                jb = _jitter(box, target, rng)
                cls = cid if rng.random() < 0.9 else int(rng.integers(1, 4))
                score = min(1.0, max(0.0, target - 0.3 + float(rng.normal(0, 0.15))))
                mine.append((jb, cls, score))
        while len(mine) < dets_per_image:
            w, h = float(rng.uniform(16, 200)), float(rng.uniform(16, 200))
            jb = [float(rng.uniform(0, width - w)), float(rng.uniform(0, height - h)), w, h]
            mine.append((jb, int(rng.integers(1, 4)), float(rng.uniform(0.0, 0.6))))
        for jb, cls, score in mine[:dets_per_image]:
            dets.append({"image_id": img, "category_id": cls,
                         "bbox": [round(v, 2) for v in jb], "score": round(score, 4)})
    gt = {"images": images, "annotations": annotations,
          "categories": [{"id": c, "name": n} for c, n in ((1, "rectangle"), (2, "disk"), (3, "triangle"))]}
    return gt, dets


def iou_as_evaluator(a, b) -> float:
    """IoU of two COCO [x, y, w, h] boxes in the evaluator's arithmetic:
    corners from the center form (x + w/2) -/+ w/2 and areas w*h. Written
    independently of attnmask.boxes, for known_defect_oracle."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    acx, acy, bcx, bcy = ax + aw / 2.0, ay + ah / 2.0, bx + bw / 2.0, by + bh / 2.0
    ix = min(acx + aw / 2.0, bcx + bw / 2.0) - max(acx - aw / 2.0, bcx - bw / 2.0)
    iy = min(acy + ah / 2.0, bcy + bh / 2.0) - max(acy - ah / 2.0, bcy - bh / 2.0)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (aw * ah + bw * bh - inter)


def known_defect_oracle():
    """A private copy of the oracle with the evaluator's two known deviations
    from it, used only to label a disagreement as one of them:

    - recall is sampled at np.linspace(0, 1, 101) (metrics.RECALL_POINTS),
      which exceeds k/100 at k = 35, 41, 47, 57, 69, 70, 82, 83, 94, 95, so
      a class whose recall lands exactly on one of those points is sampled
      at the next curve point;
    - IoU is computed from the center form (iou_as_evaluator; give this
      oracle [x, y, w, h] boxes), so an IoU that is exactly a threshold in
      decimal can land on either side of it in floating point.
    """
    variant = load_oracles()
    variant.iou_xyxy = iou_as_evaluator
    grid = np.linspace(0.0, 1.0, 101)

    def ap_on_grid(flags, n_gt):
        kept = [f for f in flags if f != -1]
        if n_gt <= 0:
            return 0.0
        precision, recall = [], []
        tp = fp = 0
        for f in kept:
            tp, fp = tp + (f == 1), fp + (f != 1)
            precision.append(tp / (tp + fp))
            recall.append(tp / n_gt)
        total = 0.0
        for r in grid:
            total += max([p for p, rc in zip(precision, recall) if rc >= r], default=0.0)
        return total / 101.0

    variant.ap_reference = ap_on_grid
    return variant


def write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))


class EvaluateWorkload(Workload):
    """`attnmask evaluate` over generated COCO files, one CLI call per
    operation, cycling through EVAL_FILES file pairs."""

    name, trace_ops = "evaluate", 32

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        pairs = []
        for f in range(EVAL_FILES):
            gt, dets = make_coco_pair(derive(self.seed, 4, f), EVAL_IMAGES_PER_FILE)
            gt_path = os.path.join(self.workdir, f"gt{f}.json")
            det_path = os.path.join(self.workdir, f"det{f}.json")
            write_json(gt, gt_path)
            write_json(dets, det_path)
            pairs.append((gt_path, det_path, len(dets)))
        return {"pairs": pairs}

    def run(self, state, stop, tracer=None, reference=None):
        out = Outcome()
        timer = OpTimer(out, reference)
        pairs = state["pairs"]
        reports = state.setdefault("reports", {})
        t_start = time.perf_counter()
        i = 0
        while not stop.done(i):
            f = i % len(pairs)
            gt_path, det_path, n_dets = pairs[f]
            report_path = os.path.join(self.workdir, f"report{f}.json")
            argv = ["evaluate", "--gt", gt_path, "--det", det_path,
                    "--thresholds", EVAL_THRESHOLDS, "--out", report_path]
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli_mod.cli(argv)
            timer.stop(t0)
            out.items.append(n_dets)
            out.attempted += 1
            if code != 0:
                out.fail(1, f"evaluate on file {f} exited {code}: {sink.getvalue().strip()[:200]}")
            else:
                with open(report_path, encoding="utf-8") as fh:
                    report = json.load(fh)
                if f not in reports:
                    reports[f] = report
                elif reports[f] != report:
                    out.fail(1, f"file {f}: report differs from the first call")
            i += 1
        out.wall_s = time.perf_counter() - t_start
        return out

    def verify(self, state, out):
        """Every threshold's mAP against tests/oracles.map_reference.

        A disagreement that the oracle reproduces once given the evaluator's
        two known deviations (see known_defect_oracle) is counted in
        state["known_defects"] and printed, not failed; any other fails.
        """
        oracles = load_oracles()
        variant = None
        state["known_defects"] = []
        for f, report in sorted(state.get("reports", {}).items()):
            gt_path, det_path, _ = state["pairs"][f]
            with open(gt_path, encoding="utf-8") as fh:
                gt = json.load(fh)
            with open(det_path, encoding="utf-8") as fh:
                dets = json.load(fh)

            def xyxy(b):
                return (b[0], b[1], b[0] + b[2], b[1] + b[3])

            o_gts = [(a["image_id"], a["category_id"], xyxy(a["bbox"]), bool(a["iscrowd"]))
                     for a in gt["annotations"]]
            o_dets = [(d["image_id"], d["category_id"], d["score"], xyxy(d["bbox"])) for d in dets]
            for key, got in report["map_by_thr"].items():
                want = oracles.map_reference(o_dets, o_gts, float(key))
                if abs(got - want) <= 1e-9:
                    continue
                variant = variant or known_defect_oracle()
                known = variant.map_reference(
                    [(d["image_id"], d["category_id"], d["score"], d["bbox"]) for d in dets],
                    [(a["image_id"], a["category_id"], a["bbox"], bool(a["iscrowd"]))
                     for a in gt["annotations"]], float(key))
                if abs(got - known) <= 1e-9:
                    state["known_defects"].append(f"file {f}: mAP@{key} {got:.6f}, oracle {want:.6f}")
                else:
                    out.fail(1, f"file {f}: mAP@{key} {got!r} != oracle {want!r}")


# -- gradcheck ------------------------------------------------------------------------


class GradcheckWorkload(Workload):
    """The finite-difference battery of `checks.run_checks("all")`: its
    DEFAULT_SEEDS instance seeds, one battery per seed, cycled from an offset
    set by the workload seed. One operation is one `checks._case` call (a
    resampled bottleneck instance would be one more; none occur in that
    range)."""

    name, trace_ops = "gradcheck", 16

    def setup(self):
        # no inputs to prepare: the suites build their own instances. Set-up
        # is a warm-up of the cheapest suite, so lazy initialisation in NumPy
        # is not charged to the first timed case.
        warm = checks_mod._SUITES["losses"](self.seed % checks_mod.DEFAULT_SEEDS,
                                            checks_mod.DEFAULT_EPS, checks_mod.DEFAULT_TOL)
        return {"warm_ok": all(c.ok for c in warm)}

    def run(self, state, stop, tracer=None, reference=None):
        out = Outcome()
        if not state["warm_ok"]:
            out.attempted += 1
            out.fail(1, "warm-up losses suite failed")
        timer = OpTimer(out, reference)
        real_case = checks_mod._case

        def case_probe(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return real_case(*args, **kwargs)
            finally:
                timer.stop(t0)
                out.items.append(1)

        t_start = time.perf_counter()
        with Installed() as patch:
            patch.patch(checks_mod, "_case", case_probe)
            battery = 0
            while not stop.done(len(out.op_s)):
                case_seed = (self.seed + battery) % checks_mod.DEFAULT_SEEDS
                for module in checks_mod.MODULES:
                    if stop.remaining(len(out.op_s)) == 0:
                        break
                    span = tracer.open("checks.suite") if tracer is not None else None
                    try:
                        cases = checks_mod._SUITES[module](
                            case_seed, checks_mod.DEFAULT_EPS, checks_mod.DEFAULT_TOL)
                    except (ValueError, FloatingPointError) as exc:
                        cases = []
                        out.attempted += 1
                        out.fail(1, f"battery {battery} {module}: {exc}")
                    finally:
                        if span is not None:
                            tracer.close(span)
                    for c in cases:
                        out.attempted += 1
                        if not c.ok:
                            out.fail(1, f"{c.suite}/{c.name} seed {c.seed}: rel err {c.max_rel_err:.2e}")
                battery += 1
        out.wall_s = time.perf_counter() - t_start
        return out


WORKLOADS = {
    w.name: w
    for w in (TrainWorkload, InferSparseWorkload, InferDenseWorkload, EvaluateWorkload, GradcheckWorkload)
}


def cleanup(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
