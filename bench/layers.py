"""Which attnmask functions a traced run wraps, and the per-layer metrics
computed from the spans they record.

Every per-layer metric is reported for every workload, normalised per
operation of that workload (train step, image, evaluate call or gradcheck
case) unless its description says otherwise; a layer a workload never calls
reads 0. Times are inclusive span times unless the name says "self".
"""

from __future__ import annotations

from collections import Counter

from spans import ATTR, NAME, PARENT, Probe, SpanTable, Tracer


def _len_result(args, kwargs, result):
    return len(result)


def _conv_flops(args, kwargs, result):
    # computed from shapes, not measured: 2 * (weights) * (output positions)
    w = args[1] if len(args) > 1 else kwargs["w"]
    return 2 * w.data.size * result.shape[1] * result.shape[2]


def _nms_sizes(args, kwargs, result):
    return (len(args[0]), len(result))


def _gt_records(args, kwargs, result):
    return len(result.records)


def _match_dets(args, kwargs, result):
    return len(args[0])


def _count_forward_evals(tracer: Tracer, args, kwargs):
    fn = args[0]

    def counted(t):
        tracer.count("checks.forward_eval")
        return fn(t)

    return (counted,) + tuple(args[1:]), kwargs


PROBES = (
    Probe("attnmask.tensor:Tensor.__init__", count="tensor.nodes"),
    Probe("attnmask.tensor:Tensor.backward", span="tensor.backward"),
    Probe("attnmask.tensor:conv2d", span="tensor.conv2d", attr=_conv_flops),
    Probe("attnmask.tensor:grad_check", span="checks.grad_check", wrap_args=_count_forward_evals),
    Probe("attnmask.attention:apply_attention", span="attention.gate"),
    Probe("attnmask.backbone:backbone_forward", span="backbone.forward"),
    Probe("attnmask.backbone:fpn_fuse", span="backbone.fpn"),
    Probe("attnmask.model:rpn_forward", span="model.rpn"),
    Probe("attnmask.model:propose", span="model.propose", attr=_len_result),
    Probe("attnmask.model:extract_roi_features", span="model.roi_features"),
    Probe("attnmask.model:box_head_forward", span="model.box_head"),
    Probe("attnmask.model:mask_head_forward", span="model.mask_head"),
    Probe("attnmask.model:paste_mask", span="model.paste_mask"),
    Probe("attnmask.model:infer", span="model.infer", attr=_len_result),
    Probe("attnmask.boxes:iou", span="boxes.iou"),
    Probe("attnmask.boxes:decode", count="boxes.decode"),
    Probe("attnmask.boxes:nms", span="boxes.nms", attr=_nms_sizes),
    Probe("attnmask.boxes:generate_anchors", span="boxes.anchors"),
    Probe("attnmask.roi_align:roi_align", span="roi_align.fwd"),
    Probe("attnmask.losses:assign_anchor_labels", span="losses.anchor_labels"),
    Probe("attnmask.losses:cls_loss", span="losses.terms"),
    Probe("attnmask.losses:softmax_ce", span="losses.terms"),
    Probe("attnmask.losses:reg_loss", span="losses.terms"),
    Probe("attnmask.losses:mask_loss", span="losses.terms"),
    Probe("attnmask.metrics:match", span="metrics.match", attr=_match_dets),
    Probe("attnmask.metrics:map_report", span="metrics.map_report"),
    Probe("attnmask.coco_io:load_gt", span="coco_io.parse", attr=_gt_records),
    Probe("attnmask.coco_io:load_detections", span="coco_io.parse", attr=_len_result),
    Probe("attnmask.coco_io:save_json", span="coco_io.save"),
    Probe("attnmask.cli:cli", span="cli.cli"),
    Probe("attnmask.cli:_cmd_evaluate", span="cli.evaluate"),
    Probe("attnmask.synth:synth_dataset", span="synth.dataset"),
    Probe("attnmask.checks:_case", span="checks.case"),
)

# (name, unit, what the value is); the order is the report's order
PER_LAYER = (
    ("tensor.backward_ms", "ms", "time in Tensor.backward"),
    ("tensor.nodes", "count", "Tensor objects created"),
    ("tensor.conv2d_calls", "count", "conv2d calls"),
    ("tensor.conv2d_ms", "ms", "time in conv2d"),
    ("tensor.conv2d_gflop", "gflop", "conv2d forward operations, computed from shapes"),
    ("attention.gate_ms", "ms", "time in apply_attention"),
    ("attention.gate_calls", "count", "apply_attention calls"),
    ("backbone.forward_ms", "ms", "time in backbone_forward"),
    ("backbone.fpn_ms", "ms", "time in fpn_fuse"),
    ("model.rpn_ms", "ms", "time in rpn_forward"),
    ("model.propose_ms", "ms", "self time of propose (decode loop, clipping)"),
    ("model.proposals_kept_ratio", "ratio", "proposals returned over anchors decoded in propose"),
    ("model.roi_features_ms", "ms", "time in extract_roi_features"),
    ("model.box_head_ms", "ms", "time in box_head_forward"),
    ("model.mask_head_ms", "ms", "time in mask_head_forward"),
    ("model.mask_head_calls", "count", "mask_head_forward calls"),
    ("model.paste_mask_ms", "ms", "time in paste_mask"),
    ("model.dets_per_image", "count", "detections returned per infer call"),
    ("boxes.iou_calls", "count", "boxes.iou calls"),
    ("boxes.iou_ms", "ms", "time in boxes.iou"),
    ("boxes.decode_calls", "count", "boxes.decode calls"),
    ("boxes.nms_calls", "count", "nms calls"),
    ("boxes.nms_ms", "ms", "time in nms"),
    ("boxes.nms_keep_ratio", "ratio", "boxes kept over boxes given to nms"),
    ("boxes.anchors_ms", "ms", "time in generate_anchors"),
    ("roi_align.calls", "count", "roi_align calls"),
    ("roi_align.fwd_ms", "ms", "time in roi_align forward"),
    ("losses.anchor_labels_ms", "ms", "time in assign_anchor_labels"),
    ("losses.terms_ms", "ms", "time in cls_loss, softmax_ce, reg_loss and mask_loss"),
    ("train.step_self_ms", "ms", "step time outside every traced call: SGD, sampling, glue"),
    ("metrics.match_calls", "count", "metrics.match calls"),
    ("metrics.match_ms", "ms", "time in metrics.match"),
    ("metrics.iou_per_det", "ratio", "boxes.iou calls inside match per detection matched"),
    ("metrics.map_report_self_ms", "ms", "self time of map_report"),
    ("coco_io.parse_ms", "ms", "time in load_gt and load_detections"),
    ("coco_io.records_per_s", "records/s", "records parsed per second of parse time"),
    ("coco_io.save_ms", "ms", "time in save_json"),
    ("cli.evaluate_self_ms", "ms", "self time of cli and _cmd_evaluate"),
    ("synth.dataset_ms", "ms", "time in synth_dataset, per set-up"),
    ("checks.grad_check_ms", "ms", "time in grad_check"),
    ("checks.forward_evals", "count", "function evaluations inside grad_check"),
    ("trace.overhead_share", "share", "traced pass wall time over the untraced passes' mean, minus 1"),
    ("trace.self_sum_ratio", "ratio", "sum of all span self times over the traced pass's wall time"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, setup_tracer: Tracer, ops: int,
                  untraced_wall: float, traced_wall: float) -> dict[str, float]:
    """Every PER_LAYER value from one traced pass of `ops` operations."""
    spans = tracer.spans
    t = SpanTable.of(spans)
    attr_sum: Counter = Counter()
    for s in spans:
        a = s[ATTR]
        if isinstance(a, tuple):
            for i, v in enumerate(a):
                attr_sum[(s[NAME], i)] += v
        elif a is not None:
            attr_sum[(s[NAME], 0)] += a
    counts: Counter = Counter()
    for (name, where), n in tracer.counts.items():
        counts[name] += n
    iou_in_match = sum(
        1 for s in spans if s[NAME] == "boxes.iou" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "metrics.match"
    )
    setup = SpanTable.of(setup_tracer.spans)

    def per_op_ms(seconds: float) -> float:
        return _ratio(seconds * 1e3, ops)

    def per_op(n: float) -> float:
        return _ratio(n, ops)

    inc, slf, calls = t.inclusive, t.self_time, t.calls
    values = {
        "tensor.backward_ms": per_op_ms(inc["tensor.backward"]),
        "tensor.nodes": per_op(counts["tensor.nodes"]),
        "tensor.conv2d_calls": per_op(calls["tensor.conv2d"]),
        "tensor.conv2d_ms": per_op_ms(inc["tensor.conv2d"]),
        "tensor.conv2d_gflop": per_op(attr_sum[("tensor.conv2d", 0)] / 1e9),
        "attention.gate_ms": per_op_ms(inc["attention.gate"]),
        "attention.gate_calls": per_op(calls["attention.gate"]),
        "backbone.forward_ms": per_op_ms(inc["backbone.forward"]),
        "backbone.fpn_ms": per_op_ms(inc["backbone.fpn"]),
        "model.rpn_ms": per_op_ms(inc["model.rpn"]),
        "model.propose_ms": per_op_ms(slf["model.propose"]),
        "model.proposals_kept_ratio": _ratio(
            attr_sum[("model.propose", 0)], tracer.counts[("boxes.decode", "model.propose")]),
        "model.roi_features_ms": per_op_ms(inc["model.roi_features"]),
        "model.box_head_ms": per_op_ms(inc["model.box_head"]),
        "model.mask_head_ms": per_op_ms(inc["model.mask_head"]),
        "model.mask_head_calls": per_op(calls["model.mask_head"]),
        "model.paste_mask_ms": per_op_ms(inc["model.paste_mask"]),
        "model.dets_per_image": _ratio(attr_sum[("model.infer", 0)], calls["model.infer"]),
        "boxes.iou_calls": per_op(calls["boxes.iou"]),
        "boxes.iou_ms": per_op_ms(inc["boxes.iou"]),
        "boxes.decode_calls": per_op(counts["boxes.decode"]),
        "boxes.nms_calls": per_op(calls["boxes.nms"]),
        "boxes.nms_ms": per_op_ms(inc["boxes.nms"]),
        "boxes.nms_keep_ratio": _ratio(attr_sum[("boxes.nms", 1)], attr_sum[("boxes.nms", 0)]),
        "boxes.anchors_ms": per_op_ms(inc["boxes.anchors"]),
        "roi_align.calls": per_op(calls["roi_align.fwd"]),
        "roi_align.fwd_ms": per_op_ms(inc["roi_align.fwd"]),
        "losses.anchor_labels_ms": per_op_ms(inc["losses.anchor_labels"]),
        "losses.terms_ms": per_op_ms(inc["losses.terms"]),
        "train.step_self_ms": per_op_ms(slf["train.step"]),
        "metrics.match_calls": per_op(calls["metrics.match"]),
        "metrics.match_ms": per_op_ms(inc["metrics.match"]),
        "metrics.iou_per_det": _ratio(iou_in_match, attr_sum[("metrics.match", 0)]),
        "metrics.map_report_self_ms": per_op_ms(slf["metrics.map_report"]),
        "coco_io.parse_ms": per_op_ms(inc["coco_io.parse"]),
        "coco_io.records_per_s": _ratio(attr_sum[("coco_io.parse", 0)], inc["coco_io.parse"]),
        "coco_io.save_ms": per_op_ms(inc["coco_io.save"]),
        "cli.evaluate_self_ms": per_op_ms(slf["cli.cli"] + slf["cli.evaluate"]),
        "synth.dataset_ms": setup.inclusive["synth.dataset"] * 1e3,
        "checks.grad_check_ms": per_op_ms(inc["checks.grad_check"]),
        "checks.forward_evals": per_op(counts["checks.forward_eval"]),
        "trace.overhead_share": _ratio(traced_wall, untraced_wall) - 1.0,
        "trace.self_sum_ratio": _ratio(sum(slf.values()), traced_wall),
    }
    return values


def module_self_ms(tracer: Tracer, ops: int) -> dict[str, float]:
    """Self time per module (the span name's prefix), per operation."""
    out: Counter = Counter()
    for name, st in SpanTable.of(tracer.spans).self_time.items():
        out[name.split(".")[0]] += st
    return {m: round(v * 1e3 / ops, 3) for m, v in sorted(out.items())} if ops else {}

