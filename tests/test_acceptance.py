"""Acceptance gate: one pass/fail line per shipped guarantee.

Each test prints its verdict directly to the terminal (bypassing capture)
so a plain pytest run shows the ten lines. Criteria 8 and 9 share one
reference training run; its seeds and confidence threshold are frozen
from the reference run that set the bars.
"""

import math
import time

import numpy as np
import pytest

from attnmask.attention import GATES, AttentionConfig, apply_attention, make_attention
from attnmask.boxes import AnchorConfig, Box, box_array, decode, encode, generate_anchors, iou, nms
from attnmask.checks import run_checks
from attnmask.cli import _self_evaluate, cli
from attnmask.losses import cls_loss, mask_loss, reg_loss, total_loss
from attnmask.metrics import COCO_SWEEP, DetTable, GTTable, average_precision, map_report
from attnmask.model import ModelConfig, build_model
from attnmask.roi_align import roi_align
from attnmask.synth import SynthSpec, synth_dataset
from attnmask.tensor import Tensor
from attnmask.train import TrainConfig, lr_at, train
from oracles import map_reference, nms_bruteforce, roi_align_dense


def _verdict(capsys, num: int, name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\ncriterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} {name}: {detail}"


# -- shared reference run (criteria 8 and 9) ------------------------------------

TRAIN_SEED, VAL_SEED = 1001, 2002
TRAIN_IMAGES, VAL_IMAGES = 24, 8
MODEL_SEED = 0
CONF_THRESHOLD = 0.5


@pytest.fixture(scope="module")
def reference_run():
    spec = SynthSpec()
    train_ds = synth_dataset(spec, TRAIN_SEED, TRAIN_IMAGES)
    val_ds = synth_dataset(spec, VAL_SEED, VAL_IMAGES)

    def one_run():
        model = build_model(ModelConfig.toy("cbam"), seed=MODEL_SEED)
        t0 = time.perf_counter()
        result = train(model, train_ds, TrainConfig.toy(seed=MODEL_SEED))
        return model, result, time.perf_counter() - t0

    model_a, result_a, elapsed = one_run()
    model_b, result_b, _ = one_run()
    return {
        "spec": spec, "val": val_ds, "elapsed": elapsed,
        "model_a": model_a, "result_a": result_a,
        "model_b": model_b, "result_b": result_b,
    }


# -- criteria --------------------------------------------------------------------


def test_criterion_01_gradient_suite(capsys):
    run = run_checks("all")
    ok = run.ok and run.elapsed < 120.0
    _verdict(capsys, 1, "gradient suite", ok,
             f"{len(run.cases)} cases, worst rel err {run.worst().max_rel_err:.2e}, "
             f"{run.elapsed:.1f}s, tol 1e-3")


def test_criterion_02_closed_form_attention(capsys):
    worst = 0.0
    gates_half = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 8, 6, 6))
        zero = lambda v: make_attention(
            AttentionConfig(channels=8, reduction=4, variant=v, init="zeros"), rng
        )
        for variant, closed_form in (("cbam", 0.25), ("se", 0.5), ("eca", 0.5)):
            params = zero(variant)
            out = apply_attention(Tensor(x), params).data
            worst = max(worst, np.abs(out - closed_form * x).max())
            # with zero parameters every gate is sigmoid(0) = 0.5 exactly
            gates_half &= all((gate(Tensor(x), params).data == 0.5).all() for gate in GATES[variant][1])
    _verdict(capsys, 2, "closed-form attention", worst <= 1e-15 and gates_half,
             f"max deviation {worst:.1e} from 0.25F / 0.5F, every gate 0.5: {gates_half}")


def test_criterion_03_geometry_oracles(capsys):
    rng = np.random.default_rng(7)
    nms_agree = True
    for _ in range(500):
        n = int(rng.integers(1, 201))
        coco = np.column_stack([rng.uniform(0, 80, (n, 2)), rng.uniform(1, 40, (n, 2))])
        scores = np.round(rng.uniform(0, 1, n), 2)
        boxes = np.column_stack([coco[:, :2], coco[:, :2] + coco[:, 2:]])
        thr = float(rng.uniform(0.2, 0.7))
        got = nms(boxes, scores, thr)
        want = nms_bruteforce(boxes.tolist(), scores, thr, score_threshold=0.0)
        nms_agree = nms_agree and got == want

    round_err = 0.0
    for _ in range(200):
        a, t = ([rng.uniform(5, 50), rng.uniform(5, 50), rng.uniform(1, 30), rng.uniform(1, 30)] for _ in range(2))
        a, t = (np.array([[x, y, x + w, y + h]]) for x, y, w, h in (a, t))
        back = decode(a, encode(a, t))
        round_err = max(round_err, (np.abs(back - t) / np.maximum(1.0, np.abs(t))).max())

    iou_err = abs(iou(Box(0, 0, 10, 10), Box(5, 5, 15, 15)) - 1.0 / 7.0)

    cfg = AnchorConfig()
    anchors = generate_anchors({2: (4, 6), 3: (2, 3)}, cfg)
    count_ok = len(anchors) == 3 * (4 * 6 + 2 * 3)
    levels = [2] * (3 * 4 * 6) + [3] * (3 * 2 * 3)
    area_err = max(
        abs((x2 - x1) * (y2 - y1) - cfg.scale_for(lvl) ** 2) / cfg.scale_for(lvl) ** 2
        for (x1, y1, x2, y2), lvl in zip(anchors, levels)
    )
    ok = nms_agree and round_err < 1e-9 and iou_err <= 1e-12 and count_ok and area_err <= 1e-6
    _verdict(capsys, 3, "geometry oracles", ok,
             f"nms 500/500 exact={nms_agree}, roundtrip {round_err:.1e}, "
             f"iou |err| {iou_err:.1e}, anchor area {area_err:.1e}")


def test_criterion_04_roi_align(capsys):
    const = roi_align(Tensor(np.full((1, 2, 8, 8), 2.5)), 4.0, np.array([[4.0, 4.0, 20.0, 20.0]]), 3)
    const_err = np.abs(const.data - 2.5).max()

    rng = np.random.default_rng(11)
    feat = rng.standard_normal((1, 4, 8, 8))
    worst = 0.0
    for _ in range(200):
        res = int(rng.integers(2, 5))
        x, y, w, h = rng.uniform(4, 28), rng.uniform(4, 28), rng.uniform(2, 20), rng.uniform(2, 20)
        box = np.array([[x, y, x + w, y + h]])
        got = roi_align(Tensor(feat), 4.0, box, res).data[0]
        want = roi_align_dense(feat[0], 4.0, box[0].tolist(), res)
        worst = max(worst, np.abs(got - want).max())

    grads = run_checks("roialign", seeds=5)
    # bilinear weights of a constant map sum to 1 only up to rounding
    ok = const_err <= 1e-12 and worst <= 1e-6 and grads.ok
    _verdict(capsys, 4, "roi align", ok,
             f"constant-map err {const_err:.1e}, oracle err {worst:.1e}, "
             f"grad worst {grads.worst().max_rel_err:.1e}")


def _tables(dets, gts):
    """map_report's tables of the oracle's (image, class, score, box) and
    (image, class, box, crowd) tuples, with their values in their order."""
    def ints(rows, k):
        return np.array([r[k] for r in rows], dtype=np.int64)

    return (DetTable(ints(dets, 0), ints(dets, 1), box_array([d[3] for d in dets]),
                     np.array([d[2] for d in dets], dtype=np.float64)),
            GTTable(ints(gts, 0), ints(gts, 1), box_array([g[2] for g in gts]),
                    np.array([g[3] for g in gts], dtype=bool)))


def test_criterion_05_metric_suite(capsys):
    ap_tp = average_precision(np.array([[1, 0]]), 1)[0]
    ap_fp = average_precision(np.array([[0, 1]]), 1)[0]
    fixtures_ok = abs(ap_tp - 1.0) <= 1e-12 and abs(ap_fp - 0.5) <= 1e-12

    rng = np.random.default_rng(0)
    gts, dets = [], []
    for img in range(3):
        for cid in (1, 2):
            x, y = rng.uniform(0, 40), rng.uniform(0, 40)
            box = Box(x, y, x + 10.0, y + 8.0)
            gts.append((img, cid, box, False))
            dets.append((img, cid, 1.0, box))
    rep = map_report(*_tables(dets, gts))
    perfect_ok = rep.map50 == 1.0 and rep.map75 == 1.0 and rep.map_coco == 1.0
    mean = np.mean([rep.map_by_thr[t] for t in COCO_SWEEP])
    recompose_err = abs(rep.map_coco - mean)

    worst = 0.0
    rng = np.random.default_rng(23)
    for _ in range(200):
        gt_t, det_t = [], []
        for img in range(int(rng.integers(1, 3))):
            for cid in (1, 2):
                for _ in range(int(rng.integers(0, 4))):
                    x, y, w, h = rng.uniform(0, 30), rng.uniform(0, 30), *rng.uniform(4, 14, 2)
                    crowd = bool(rng.uniform() < 0.2)
                    b = Box(x, y, x + w, y + h)
                    gt_t.append((img, cid, (b.x1, b.y1, b.x2, b.y2), crowd))
                for _ in range(int(rng.integers(0, 5))):
                    x, y, w, h = rng.uniform(0, 30), rng.uniform(0, 30), *rng.uniform(4, 14, 2)
                    s = round(float(rng.uniform(0, 1)), 2)
                    b = Box(x, y, x + w, y + h)
                    det_t.append((img, cid, s, (b.x1, b.y1, b.x2, b.y2)))
        thr = float(rng.choice([0.3, 0.5, 0.75]))
        got = map_report(*_tables(det_t, gt_t), thresholds=[thr]).map_by_thr[round(thr, 2)]
        worst = max(worst, abs(got - map_reference(det_t, gt_t, thr)))

    ok = fixtures_ok and perfect_ok and recompose_err <= 1e-12 and worst <= 1e-9
    _verdict(capsys, 5, "metric suite", ok,
             f"AP fixtures exact, perfect mAPs {perfect_ok}, coco mean err "
             f"{recompose_err:.1e}, oracle err {worst:.1e}")


def test_criterion_06_loss_fixtures(capsys):
    errs = {}
    errs["ln2"] = abs(cls_loss(Tensor(np.array([0.5])), np.array([1.0])).sum().item() - math.log(2.0))
    def sl1(d):
        return reg_loss(Tensor(np.array([d, 0.0, 0.0, 0.0])), np.zeros(4)).item()

    errs["sl1_half"] = abs(sl1(0.5) - 0.125)
    errs["sl1_two"] = abs(sl1(2.0) - 1.5)
    errs["continuity"] = abs(sl1(1.0 - 1e-9) - sl1(1.0 + 1e-9))
    rng = np.random.default_rng(0)
    y = rng.uniform(0.1, 0.9, (4, 4))
    ys = rng.integers(0, 2, (4, 4)).astype(float)
    coarse = mask_loss(Tensor(y), ys).item()
    fine = mask_loss(Tensor(np.kron(y, np.ones((2, 2)))), np.kron(ys, np.ones((2, 2)))).item()
    errs["refine"] = abs(coarse - fine)

    total, _ = total_loss(
        cls_loss(Tensor(np.array([0.5, 0.5])), np.array([1.0, 0.0])),
        reg_loss(Tensor(np.array([[0.5, 0, 0, 0]])), np.zeros((1, 4))),
        mask_loss(Tensor(np.full((2, 2), 0.5)), np.ones((2, 2))),
        n_cls=2, n_reg=100,
    )
    errs["composition"] = abs(total.item() - 1.38754)

    ok = (
        errs["ln2"] <= 1e-12 and errs["sl1_half"] == 0.0 and errs["sl1_two"] == 0.0
        and errs["continuity"] <= 1e-8 and errs["refine"] <= 1e-12
        and errs["composition"] <= 1e-5
    )
    _verdict(capsys, 6, "loss fixtures", ok,
             ", ".join(f"{k} {v:.1e}" for k, v in errs.items()))


def test_criterion_07_lr_schedule(capsys):
    cfg = TrainConfig()
    trace = [lr_at(cfg, e) for e in range(cfg.epochs)]
    ok = (
        sorted(set(trace), reverse=True) == [0.002, 0.0002, 0.00002]
        and trace[15] == 0.002 and trace[16] == 0.0002
        and trace[21] == 0.0002 and trace[22] == 0.00002
    )
    _verdict(capsys, 7, "lr schedule", ok,
             f"values {sorted(set(trace), reverse=True)}, drops at epochs 16 and 22")


def test_criterion_08_training_smoke(capsys, reference_run):
    r = reference_run
    trace = np.array([rec.l_total for rec in r["result_a"].records])
    ratio = trace[-50:].mean() / trace[10:60].mean()
    finite = bool(np.isfinite(trace).all())
    identical = (
        r["result_a"].records == r["result_b"].records
        and all(
            np.array_equal(a.data, b.data)
            for (_, a), (_, b) in zip(r["model_a"].named_params(), r["model_b"].named_params())
        )
    )
    ok = ratio <= 0.5 and finite and identical and r["elapsed"] <= 600.0
    _verdict(capsys, 8, "training smoke", ok,
             f"loss ratio {ratio:.4f} <= 0.5, {len(trace)} steps in {r['elapsed']:.0f}s, "
             f"finite={finite}, rerun identical={identical}")


def test_criterion_09_end_to_end_map(capsys, reference_run):
    r = reference_run
    report, n_dets = _self_evaluate(r["model_a"], r["val"], r["spec"], CONF_THRESHOLD)
    ok = report.map50 >= 0.5
    _verdict(capsys, 9, "end-to-end mAP@0.5", ok,
             f"mAP@0.5 {report.map50:.4f} >= 0.5 with {n_dets} detections at "
             f"confidence {CONF_THRESHOLD}")


def test_criterion_10_compare_harness(capsys, tmp_path, tiny_config):
    out_dir = tmp_path / "cmp"
    code = cli(["compare", "--config", tiny_config, "--out", str(out_dir)])
    table = (out_dir / "compare.md").read_text().splitlines() if code == 0 else []
    rows = table[2:] if len(table) >= 6 else []
    shape_ok = (
        len(rows) == 4
        and [r.split()[0] for r in rows] == ["none", "se", "eca", "cbam"]
        and all(len(r.split()) == 4 for r in rows)
    )
    ok = code == 0 and shape_ok
    _verdict(capsys, 10, "compare harness", ok,
             f"exit {code}, table rows {[r.split()[0] for r in rows]}")
