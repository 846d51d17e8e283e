"""Toy detector assembly: backbone + FPN, RPN, box head, and mask head.

The pyramid feeds a shared RPN (a 3x3 conv, then 1x1 heads emitting
per-anchor two-way objectness logits and four box offsets). Region
features come from quantization-free ROI pooling at 7x7 for the box head
(two fully connected layers into K+1 class logits plus class-agnostic
offsets) and 14x14 for the mask head (two 3x3 convs, 2x upsample, and a
per-class 1x1 producing 28x28 sigmoid grids).

Parameters live in nested dataclasses; named_params walks them in a
fixed order so training and checkpointing are deterministic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .attention import VARIANTS, init_uniform
from .backbone import (
    BackboneParams,
    ConvParams,
    FPNParams,
    StageConfig,
    backbone_forward,
    fpn_fuse,
    init_backbone,
    init_conv,
    init_fpn,
    stride_of,
)
from .boxes import AnchorConfig, Box, clip_boxes, decode_boxes, generate_anchors, nms
from .metrics import Detection
from .roi_align import ROIAlignConfig, assign_level, roi_align
from .tensor import (
    Tensor, concat, conv2d, gather_rows, linear, log_softmax, relu, sigmoid, upsample_nearest,
)

__all__ = [
    "ModelConfig",
    "RPNParams",
    "BoxHeadParams",
    "MaskHeadParams",
    "Model",
    "InstancePrediction",
    "build_model",
    "pyramid_forward",
    "rpn_forward",
    "objectness",
    "extract_roi_features",
    "box_head_forward",
    "mask_head_forward",
    "propose",
    "paste_mask",
    "infer",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class ModelConfig:
    """Everything that determines the parameter shapes and forward graph."""

    variant: str = "cbam"
    stages: StageConfig = StageConfig.reference()
    fpn_dim: int = 256
    with_p6: bool = True
    anchors: AnchorConfig = AnchorConfig()
    box_resolution: int = 7
    mask_resolution: int = 14
    mask_out: int = 28
    head_width: int = 1024
    num_classes: int = 3
    reduction: int = 16
    eca_kernel: int | str = "adaptive"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.num_classes < 1:
            raise ValueError("need at least one foreground class")

    @classmethod
    def toy(cls, variant: str = "cbam", num_classes: int = 3) -> "ModelConfig":
        """Small widths and anchor scales suited to 64px synthetic scenes."""
        return cls(
            variant=variant,
            stages=StageConfig.toy(),
            fpn_dim=24,
            anchors=AnchorConfig(scales=(16.0, 32.0, 64.0, 128.0, 256.0)),
            head_width=64,
            num_classes=num_classes,
            reduction=4,
        )

    @property
    def num_anchor_shapes(self) -> int:
        return len(self.anchors.effective_ratios())


@dataclass
class RPNParams:
    conv: ConvParams
    cls: ConvParams
    reg: ConvParams


@dataclass
class BoxHeadParams:
    fc1_w: Tensor
    fc1_b: Tensor
    fc2_w: Tensor
    fc2_b: Tensor
    cls_w: Tensor
    cls_b: Tensor
    reg_w: Tensor
    reg_b: Tensor


@dataclass
class MaskHeadParams:
    conv1: ConvParams
    conv2: ConvParams
    out: ConvParams


@dataclass
class Model:
    cfg: ModelConfig
    backbone: BackboneParams
    fpn: FPNParams
    rpn: RPNParams
    box_head: BoxHeadParams
    mask_head: MaskHeadParams

    def named_params(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for name in ("backbone", "fpn", "rpn", "box_head", "mask_head"):
            _walk(getattr(self, name), name, out)
        return out

    def param_count(self) -> int:
        return sum(t.size for _, t in self.named_params())


def _walk(obj, prefix: str, out: list[tuple[str, Tensor]]) -> None:
    if isinstance(obj, Tensor):
        out.append((prefix, obj))
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _walk(getattr(obj, f.name), f"{prefix}.{f.name}", out)
    elif isinstance(obj, dict):
        for k in sorted(obj):
            _walk(obj[k], f"{prefix}.{k}", out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _walk(v, f"{prefix}.{i}", out)


def _init_linear(
    out_dim: int, in_dim: int, rng: np.random.Generator, scheme: str = "he_uniform"
) -> tuple[Tensor, Tensor]:
    w = init_uniform((out_dim, in_dim), in_dim, rng, scheme)
    b = Tensor(np.zeros(out_dim), requires_grad=True)
    return w, b


def build_model(cfg: ModelConfig, seed: int) -> Model:
    """Initialize all parameters deterministically from (cfg, seed)."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    backbone = init_backbone(
        cfg.stages, cfg.variant, rng, reduction=cfg.reduction, eca_kernel=cfg.eca_kernel
    )
    fpn = init_fpn(cfg.stages.widths, cfg.fpn_dim, rng)
    a = cfg.num_anchor_shapes
    # trunk layers keep relu-preserving init; the final prediction layers
    # start near zero so initial scores sit at chance and deltas at identity
    rpn = RPNParams(
        conv=init_conv(cfg.fpn_dim, cfg.fpn_dim, 3, rng),
        cls=init_conv(2 * a, cfg.fpn_dim, 1, rng, scheme="near_zero_uniform"),
        reg=init_conv(4 * a, cfg.fpn_dim, 1, rng, scheme="near_zero_uniform"),
    )
    feat_dim = cfg.fpn_dim * cfg.box_resolution ** 2
    fc1_w, fc1_b = _init_linear(cfg.head_width, feat_dim, rng)
    fc2_w, fc2_b = _init_linear(cfg.head_width, cfg.head_width, rng)
    cls_w, cls_b = _init_linear(cfg.num_classes + 1, cfg.head_width, rng, scheme="near_zero_uniform")
    reg_w, reg_b = _init_linear(4, cfg.head_width, rng, scheme="near_zero_uniform")
    box_head = BoxHeadParams(fc1_w, fc1_b, fc2_w, fc2_b, cls_w, cls_b, reg_w, reg_b)
    mask_head = MaskHeadParams(
        conv1=init_conv(cfg.fpn_dim, cfg.fpn_dim, 3, rng),
        conv2=init_conv(cfg.fpn_dim, cfg.fpn_dim, 3, rng),
        out=init_conv(cfg.num_classes, cfg.fpn_dim, 1, rng, scheme="near_zero_uniform"),
    )
    return Model(cfg=cfg, backbone=backbone, fpn=fpn, rpn=rpn, box_head=box_head, mask_head=mask_head)


def pyramid_forward(model: Model, image: Tensor) -> dict[int, Tensor]:
    cmaps = backbone_forward(image, model.backbone)
    return fpn_fuse(cmaps, model.fpn, with_p6=model.cfg.with_p6)


def rpn_forward(model: Model, pyramid: dict[int, Tensor]) -> dict[int, tuple[Tensor, Tensor]]:
    """Per level: objectness logits (N_l, 2) and offsets (N_l, 4), flattened
    in the same (row, col, anchor-shape) order as generate_anchors."""
    out = {}
    a = model.cfg.num_anchor_shapes
    for level in sorted(pyramid):
        h = relu(conv2d(pyramid[level], model.rpn.conv.w, model.rpn.conv.b, padding=1))
        obj = conv2d(h, model.rpn.cls.w, model.rpn.cls.b)
        reg = conv2d(h, model.rpn.reg.w, model.rpn.reg.b)
        fh, fw = obj.shape[1], obj.shape[2]
        obj = obj.reshape(a, 2, fh, fw).transpose((2, 3, 0, 1)).reshape(fh * fw * a, 2)
        reg = reg.reshape(a, 4, fh, fw).transpose((2, 3, 0, 1)).reshape(fh * fw * a, 4)
        out[level] = (obj, reg)
    return out


def objectness(obj: Tensor) -> Tensor:
    """Foreground probability of two-way logits: sigmoid(z_fg - z_bg),
    identical to the softmax foreground coordinate."""
    signs = np.tile(np.array([-1.0, 1.0]), (obj.shape[0], 1))
    return sigmoid((obj * signs).sum(axis=1))


def extract_roi_features(
    pyramid: dict[int, Tensor], boxes: np.ndarray, resolution: int, aggregation: str = "max"
) -> Tensor:
    """Pool (R, 4) center-form rows into (R, C, p, p), each region from the
    pyramid level chosen by its scale (clamped to the levels present, P6
    excluded). Regions are pooled in one batch per level and returned in
    input order.
    """
    cfg = ROIAlignConfig(resolution=resolution, aggregation=aggregation)
    levels = [lvl for lvl in sorted(pyramid) if lvl <= 5]
    routed = np.clip(assign_level(boxes), levels[0], levels[-1])
    parts, order = [], []
    for lvl in levels:
        idx = np.flatnonzero(routed == lvl)
        if idx.size:
            parts.append(roi_align(pyramid[lvl], float(stride_of(lvl)), boxes[idx], cfg))
            order.append(idx)
    if len(parts) == 1:
        return parts[0]
    return gather_rows(concat(parts, axis=0), np.argsort(np.concatenate(order)))


def box_head_forward(model: Model, feats: Tensor) -> tuple[Tensor, Tensor]:
    """(R, C, p, p) region features -> class logits (R, K+1), offsets (R, 4)."""
    r = feats.shape[0]
    flat = feats.reshape(r, int(np.prod(feats.shape[1:])))
    h = relu(linear(flat, model.box_head.fc1_w, model.box_head.fc1_b))
    h = relu(linear(h, model.box_head.fc2_w, model.box_head.fc2_b))
    logits = linear(h, model.box_head.cls_w, model.box_head.cls_b)
    deltas = linear(h, model.box_head.reg_w, model.box_head.reg_b)
    return logits, deltas


def mask_head_forward(model: Model, feat: Tensor) -> Tensor:
    """(C, p, p) region feature -> (K, 2p, 2p) per-class mask probabilities."""
    h = relu(conv2d(feat, model.mask_head.conv1.w, model.mask_head.conv1.b, padding=1))
    h = relu(conv2d(h, model.mask_head.conv2.w, model.mask_head.conv2.b, padding=1))
    h = upsample_nearest(h, 2)
    return sigmoid(conv2d(h, model.mask_head.out.w, model.mask_head.out.b))


def _clip_or_none(box: Box, width: float, height: float) -> Box | None:
    try:
        return box.clip(width, height)
    except ValueError:
        return None


def _refine(
    boxes: np.ndarray, deltas: np.ndarray, width: float, height: float, min_size: float
) -> tuple[np.ndarray, np.ndarray]:
    """Apply offsets (each component capped at +-10), clip to the image and
    drop results under min_size on a side: the kept boxes and their rows."""
    refined, inside = clip_boxes(decode_boxes(boxes, np.clip(deltas, -10.0, 10.0)), width, height)
    kept = np.flatnonzero(inside & (refined[:, 2] >= min_size) & (refined[:, 3] >= min_size))
    return refined[kept], kept


def propose(
    model: Model,
    pyramid: dict[int, Tensor],
    anchors: np.ndarray,
    rpn_out: dict[int, tuple[Tensor, Tensor]],
    image_hw: tuple[int, int],
    pre_nms: int = 1000,
    post_nms: int = 100,
    nms_iou: float = 0.7,
    min_size: float = 1.0,
) -> np.ndarray:
    """Decode and filter RPN outputs into at most post_nms proposals, as
    (N, 4) center-form rows in descending score order.

    anchors are generate_anchors' rows in RPN order.
    Runs on raw values; no gradient flows through proposal coordinates.
    """
    h, w = image_hw
    scores_parts, delta_parts = [], []
    for level in sorted(rpn_out):
        obj, reg = rpn_out[level]
        z = obj.data
        scores_parts.append(1.0 / (1.0 + np.exp(-(z[:, 1] - z[:, 0]))))
        delta_parts.append(reg.data)
    scores = np.concatenate(scores_parts)
    deltas = np.concatenate(delta_parts)
    if anchors.shape[0] != scores.shape[0]:
        raise ValueError(f"{anchors.shape[0]} anchors vs {scores.shape[0]} RPN positions")

    order = np.argsort(-scores, kind="stable")[:pre_nms]
    boxes, kept = _refine(anchors[order], deltas[order], w, h, min_size)
    keep = nms(boxes, scores[order][kept], nms_iou, score_threshold=0.0)
    return boxes[keep[:post_nms]]


def paste_mask(probs: np.ndarray, box: Box, height: int, width: int, threshold: float = 0.5) -> np.ndarray:
    """Resample a mask grid over the box's pixels and threshold it.

    The grid cell (i, j) is centered at box fraction ((i+0.5)/m, (j+0.5)/m);
    pixel centers inside the clipped box sample the grid bilinearly with
    edge clamping.
    """
    out = np.zeros((height, width), dtype=bool)
    clipped = _clip_or_none(box, float(width), float(height))
    if clipped is None:
        return out
    c0, c1 = int(np.floor(clipped.x1)), int(np.ceil(clipped.x2))
    r0, r1 = int(np.floor(clipped.y1)), int(np.ceil(clipped.y2))
    c0, r0 = max(c0, 0), max(r0, 0)
    c1, r1 = min(c1, width), min(r1, height)
    if c1 <= c0 or r1 <= r0:
        return out
    m = probs.shape[0]
    ys = np.arange(r0, r1) + 0.5
    xs = np.arange(c0, c1) + 0.5
    v = (ys - box.y1) / box.h * m - 0.5
    u = (xs - box.x1) / box.w * m - 0.5
    v = np.clip(v, 0.0, m - 1.0)
    u = np.clip(u, 0.0, m - 1.0)
    v0 = np.floor(v).astype(int)
    u0 = np.floor(u).astype(int)
    v1 = np.minimum(v0 + 1, m - 1)
    u1 = np.minimum(u0 + 1, m - 1)
    fv = (v - v0)[:, None]
    fu = (u - u0)[None, :]
    patch = (
        probs[np.ix_(v0, u0)] * (1 - fv) * (1 - fu)
        + probs[np.ix_(v0, u1)] * (1 - fv) * fu
        + probs[np.ix_(v1, u0)] * fv * (1 - fu)
        + probs[np.ix_(v1, u1)] * fv * fu
    )
    inside_y = (ys >= clipped.y1) & (ys <= clipped.y2)
    inside_x = (xs >= clipped.x1) & (xs <= clipped.x2)
    out[r0:r1, c0:c1] = (patch >= threshold) & inside_y[:, None] & inside_x[None, :]
    return out


# detections whose mask features are pooled in one batch during inference;
# pooling all 100 of infer_dense's detections at once raised its peak RSS
# from about 83 to 90 MB
MASK_CHUNK = 16


@dataclass
class InstancePrediction:
    detection: Detection
    mask: np.ndarray


def infer(
    model: Model,
    image,
    image_id: int = 0,
    conf_threshold: float = 0.5,
    pre_nms: int = 1000,
    post_nms: int = 100,
    rpn_nms_iou: float = 0.7,
    det_nms_iou: float = 0.5,
    max_dets: int = 100,
) -> list[InstancePrediction]:
    """Full detection pass on one 3xHxW image in [0,1]."""
    x = image if isinstance(image, Tensor) else Tensor(np.asarray(image, dtype=np.float64))
    height, width = x.shape[1], x.shape[2]
    pyramid = pyramid_forward(model, x)
    level_shapes = {lvl: (f.shape[1], f.shape[2]) for lvl, f in pyramid.items()}
    anchors = generate_anchors(level_shapes, model.cfg.anchors)
    rpn_out = rpn_forward(model, pyramid)
    proposals = propose(
        model, pyramid, anchors, rpn_out, (height, width),
        pre_nms=pre_nms, post_nms=post_nms, nms_iou=rpn_nms_iou,
    )
    if proposals.shape[0] == 0:
        return []
    feats = extract_roi_features(pyramid, proposals, model.cfg.box_resolution)
    logits, deltas = box_head_forward(model, feats)
    probs = np.exp(log_softmax(logits).data)
    refined, kept = _refine(proposals, deltas.data, float(width), float(height), 1.0)

    final: list[tuple[int, np.ndarray, float]] = []
    for k in range(1, model.cfg.num_classes + 1):
        scores = probs[kept, k]
        fire = np.flatnonzero(scores >= conf_threshold)
        boxes, scores = refined[fire], scores[fire]
        for i in nms(boxes, scores, det_nms_iou, score_threshold=0.0):
            final.append((k, boxes[i], float(scores[i])))
    final.sort(key=lambda t: -t[2])
    final = final[:max_dets]

    preds = []
    for lo in range(0, len(final), MASK_CHUNK):
        chunk = final[lo : lo + MASK_CHUNK]
        mfeats = extract_roi_features(
            pyramid, np.array([row for _, row, _ in chunk]), model.cfg.mask_resolution
        )
        for (k, row, score), mfeat in zip(chunk, mfeats.data):
            mprobs = mask_head_forward(model, Tensor(mfeat)).data[k - 1]
            box = Box(*row.tolist())
            mask = paste_mask(mprobs, box, height, width)
            det = Detection(image_id=image_id, class_id=k, box=box, score=score)
            preds.append(InstancePrediction(detection=det, mask=mask))
    return preds


def save_checkpoint(model: Model, path: str) -> None:
    arrays = {name: t.data for name, t in model.named_params()}
    np.savez(path, **arrays)


def load_checkpoint(model: Model, path: str) -> None:
    """Copy stored arrays into the model's parameters in place."""
    with np.load(path) as archive:
        params = dict(model.named_params())
        missing = set(params) - set(archive.files)
        extra = set(archive.files) - set(params)
        if missing or extra:
            raise ValueError(f"checkpoint mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for name, tensor in params.items():
            stored = archive[name]
            if stored.shape != tensor.data.shape:
                raise ValueError(f"{name}: stored shape {stored.shape} != model {tensor.data.shape}")
            tensor.data = stored.astype(np.float64)
