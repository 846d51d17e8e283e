"""Toy detector assembly: backbone + FPN, RPN, box head, and mask head.

The pyramid feeds a shared RPN (a 3x3 conv, then 1x1 heads emitting
per-anchor two-way objectness logits and four box offsets). rpn_forward
alone knows the anchor order: it returns the anchors of the whole pyramid,
each anchor's foreground probability (the softmax foreground coordinate of
its two logits) and its offsets, in that order. Region features come from
quantization-free ROI pooling (each bin the max of four bilinear samples)
at 7x7 for the box head (two fully connected layers into K+1 class logits
plus class-agnostic offsets) and 14x14 for the mask head (two 3x3 convs and
a per-class 1x1, of which each region keeps its class's channel; sigmoid,
then 2x upsample to a 28x28 grid), each over a batch of regions. The mask
loss in training and the pasted mask in inference both read one class
channel per region: the target class and the predicted class. Inference
runs the mask head once per chunk of 16 distinct proposal rows, so a row
detected in several classes is pooled and convolved once, and each of its
detections reads its own class channel from that row's logits.

Maps are (N, C, H, W): N = 1 for an image's pyramid, the regions in the
mask head. Regions travel as (N, 4) corner rows (x1, y1, x2, y2) from the
anchors to the pasted masks; `infer` makes each returned `Detection`'s
`Box` from its row.

Parameters live in nested dataclasses; named_params walks them in a
fixed order so training and checkpointing are deterministic.
"""

from __future__ import annotations

import dataclasses
import zipfile
from dataclasses import dataclass

import numpy as np

from .attention import VARIANTS, check_eca_kernel, init_uniform
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
)
from .boxes import AnchorConfig, Box, clip_boxes, decode, generate_anchors, nms, stride_of
from .metrics import Detection
from .roi_align import assign_level, bilinear_weights, roi_align
from .tensor import (
    Tensor, concat, conv2d, gather_rows, linear, log_softmax, no_grad, relu, sigmoid, upsample_nearest,
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
        for name in ("fpn_dim", "box_resolution", "mask_resolution", "head_width", "reduction"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if any(w % self.reduction for w in self.stages.widths):
            raise ValueError(f"reduction {self.reduction} must divide every stage width {self.stages.widths}")
        if self.mask_out != 2 * self.mask_resolution:
            raise ValueError(f"mask_out must be 2 * mask_resolution = {2 * self.mask_resolution}, "
                             f"got {self.mask_out}")
        check_eca_kernel(self.eca_kernel)

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


def rpn_forward(model: Model, pyramid: dict[int, Tensor]) -> tuple[np.ndarray, Tensor, Tensor]:
    """The RPN over one image's pyramid of (1, C, H, W) maps: anchors (A, 4)
    from generate_anchors, foreground probabilities (A,) and offsets (A, 4).
    All three share one row order: level by level ascending, then (row,
    col, anchor shape).

    An anchor's probability is the foreground coordinate of the softmax of
    its (background, foreground) logits, sigmoid(z_fg - z_bg)."""
    a = model.cfg.num_anchor_shapes
    logits, offsets = [], []
    for level in sorted(pyramid):
        h = relu(conv2d(pyramid[level], model.rpn.conv.w, model.rpn.conv.b, padding=1))
        obj = conv2d(h, model.rpn.cls.w, model.rpn.cls.b)
        reg = conv2d(h, model.rpn.reg.w, model.rpn.reg.b)
        fh, fw = obj.shape[2:]
        logits.append(obj.reshape(a, 2, fh, fw).transpose((2, 3, 0, 1)).reshape(fh * fw * a, 2))
        offsets.append(reg.reshape(a, 4, fh, fw).transpose((2, 3, 0, 1)).reshape(fh * fw * a, 4))
    anchors = generate_anchors({lvl: f.shape[2:] for lvl, f in pyramid.items()}, model.cfg.anchors)
    signs = np.tile([-1.0, 1.0], (anchors.shape[0], 1))
    return anchors, sigmoid((concat(logits, axis=0) * signs).sum(axis=1)), concat(offsets, axis=0)


def extract_roi_features(pyramid: dict[int, Tensor], boxes: np.ndarray, resolution: int) -> Tensor:
    """Pool (R, 4) corner rows into (R, C, p, p), each region from the
    pyramid level in P2-P5 that assign_level picks by its scale. Regions are
    pooled in one batch per level and returned in input order.
    """
    routed = assign_level(boxes)
    parts, order = [], []
    for lvl in np.unique(routed).tolist():
        idx = np.flatnonzero(routed == lvl)
        parts.append(roi_align(pyramid[lvl], float(stride_of(lvl)), boxes[idx], resolution))
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


def mask_head_forward(model: Model, feats: Tensor, regions: np.ndarray, classes: np.ndarray) -> Tensor:
    """(R, C, p, p) region features, (D,) indices into them and (D,) classes
    in 1..K -> (D, 2p, 2p) mask probabilities: row i is region regions[i]'s
    grid for class classes[i]. Training passes np.arange(R); infer passes
    each detection's proposal row, so the convs run once per distinct row.

    The per-class 1x1 conv runs at p x p, the sigmoid and the 2x upsampling
    on each output row's (1, p, p) class channel only. Both commute with nearest
    upsampling, so this equals upsampling first up to the last-place
    rounding of the 1x1 product, which BLAS may block differently at 2p x 2p.
    A class outside 1..K, a region index outside [0, R) or a length mismatch
    raises ValueError.
    """
    if len(regions) != len(classes):
        raise ValueError(f"{len(regions)} region indices vs {len(classes)} classes")
    if np.any((classes < 1) | (classes > model.cfg.num_classes)):
        raise ValueError(f"classes must lie in 1..{model.cfg.num_classes}, got {classes}")
    if np.any((regions < 0) | (regions >= feats.shape[0])):
        raise ValueError(f"region indices must lie in [0, {feats.shape[0]}), got {regions}")
    h = relu(conv2d(feats, model.mask_head.conv1.w, model.mask_head.conv1.b, padding=1))
    h = relu(conv2d(h, model.mask_head.conv2.w, model.mask_head.conv2.b, padding=1))
    z = conv2d(h, model.mask_head.out.w, model.mask_head.out.b)
    r, k, p, _ = z.shape
    # row i * K + class - 1 of the (R*K, 1, p, p) logits is region i's class channel
    z = gather_rows(z.reshape(r * k, 1, p, p), regions * k + classes - 1)
    return upsample_nearest(sigmoid(z)).reshape(len(regions), 2 * p, 2 * p)


# smallest side in pixels of a proposal or a refined detection, the IoU above
# which NMS drops a lower-scored proposal or same-class detection, and the
# number of detections (best scores first) that infer keeps per image
MIN_SIZE = 1.0
RPN_NMS_IOU = 0.7
DET_NMS_IOU = 0.5
MAX_DETS = 100


def _refine(
    boxes: np.ndarray, deltas: np.ndarray, width: float, height: float
) -> tuple[np.ndarray, np.ndarray]:
    """Apply offsets (each component capped at +-10), clip to the image and
    drop results under MIN_SIZE on a side: the kept boxes and their rows."""
    refined, inside = clip_boxes(decode(boxes, np.clip(deltas, -10.0, 10.0)), width, height)
    sides = refined[:, 2:] - refined[:, :2]
    kept = np.flatnonzero(inside & (sides >= MIN_SIZE).all(axis=1))
    return refined[kept], kept


def propose(
    anchors: np.ndarray,
    scores: Tensor,
    offsets: Tensor,
    image_hw: tuple[int, int],
    pre_nms: int,
    post_nms: int,
) -> np.ndarray:
    """Decode and filter RPN outputs into at most post_nms proposals, as
    (N, 4) corner rows in descending score order: the pre_nms best
    anchors are refined, and NMS at RPN_NMS_IOU picks among them, stopping
    once it has kept post_nms. Both caps must be at least 1.

    anchors, scores (A,) and offsets (A, 4) are rpn_forward's rows.
    Runs on raw values; no gradient flows through proposal coordinates.
    """
    h, w = image_hw
    scores = scores.data
    if anchors.shape[0] != scores.shape[0]:
        raise ValueError(f"{anchors.shape[0]} anchors vs {scores.shape[0]} RPN positions")
    for name, cap in (("pre_nms", pre_nms), ("post_nms", post_nms)):
        if cap < 1:
            raise ValueError(f"{name} must be at least 1, got {cap}")

    order = np.argsort(-scores, kind="stable")[:pre_nms]
    boxes, kept = _refine(anchors[order], offsets.data[order], w, h)
    keep = nms(boxes, scores[order][kept], RPN_NMS_IOU, max_keep=post_nms)
    return boxes[keep]


def paste_mask(probs: np.ndarray, boxes: np.ndarray, height: int, width: int) -> np.ndarray:
    """Resample (R, m, m) mask grids over the pixels of their (R, 4) corner
    rows and threshold them at 0.5: (R, height, width) bool.

    The grid cell (i, j) is centered at box fraction ((i+0.5)/m, (j+0.5)/m);
    pixel centers inside the clipped box sample the grid bilinearly with
    edge clamping. Each grid P is read as Wy P Wx^T over the whole image,
    with ROI Align's bilinear weights, so a row's mask does not depend on
    the other rows.
    """
    m = probs.shape[-1]
    clipped, _ = clip_boxes(boxes, float(width), float(height))
    x1, y1, x2, y2 = (v[:, None] for v in boxes.T)
    cx1, cy1, cx2, cy2 = (v[:, None] for v in clipped.T)
    ys = np.arange(height) + 0.5
    xs = np.arange(width) + 0.5
    wy = bilinear_weights(np.clip((ys - y1) / (y2 - y1) * m, 0.5, m - 0.5), m)
    wx = bilinear_weights(np.clip((xs - x1) / (x2 - x1) * m, 0.5, m - 0.5), m)
    inside_y = (ys >= cy1) & (ys <= cy2)
    inside_x = (xs >= cx1) & (xs <= cx2)
    return (wy @ probs @ wx.transpose(0, 2, 1) >= 0.5) & inside_y[:, :, None] & inside_x[:, None, :]


# distinct proposal rows pooled and run through the mask head as one batch in
# inference; with no chunks, infer_dense's peak RSS rose from about 79 to 122-126 MB
MASK_CHUNK = 16


@dataclass
class InstancePrediction:
    detection: Detection
    mask: np.ndarray


@no_grad()
def infer(model: Model, image, image_id: int = 0, conf_threshold: float = 0.5) -> list[InstancePrediction]:
    """Full detection pass on one (3, H, W) image array in [0,1]: up to 100
    proposals from the 1000 best anchors, then at most MAX_DETS detections:
    the (class, box) pairs scoring at least conf_threshold, which must be in
    [0, 1], after one NMS call that suppresses within each class only.

    Masks come from one mask-head call per chunk of MASK_CHUNK distinct
    proposal rows: a row kept in several classes is pooled and convolved
    once, and each of its detections pastes its own class channel."""
    if not 0.0 <= conf_threshold <= 1.0:
        raise ValueError(f"conf_threshold must be in [0, 1], got {conf_threshold}")
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"image must be (3, H, W), got shape {image.shape}")
    height, width = image.shape[1:]
    pyramid = pyramid_forward(model, Tensor(image[None]))
    anchors, scores, offsets = rpn_forward(model, pyramid)
    proposals = propose(anchors, scores, offsets, (height, width), pre_nms=1000, post_nms=100)
    if proposals.shape[0] == 0:
        return []
    feats = extract_roi_features(pyramid, proposals, model.cfg.box_resolution)
    logits, deltas = box_head_forward(model, feats)
    probs = np.exp(log_softmax(logits).data)
    refined, kept = _refine(proposals, deltas.data, float(width), float(height))

    # class-major candidates, so nms's stable sort breaks score ties by class, then row
    classes, rows = np.nonzero(probs[kept, 1:].T >= conf_threshold)
    scores = probs[kept[rows], classes + 1]
    keep = nms(refined[rows], scores, DET_NMS_IOU, max_keep=MAX_DETS, labels=classes)
    rows, scores, classes = rows[keep], scores[keep].tolist(), classes[keep] + 1

    # detection i reads the mask trunk's output for distinct[region[i]]
    distinct, region = np.unique(rows, return_inverse=True)
    masks = np.empty((len(rows), height, width), dtype=bool)
    for lo in range(0, len(distinct), MASK_CHUNK):
        dets = np.flatnonzero((region >= lo) & (region < lo + MASK_CHUNK))
        chunk = refined[distinct[lo : lo + MASK_CHUNK]]
        feats = extract_roi_features(pyramid, chunk, model.cfg.mask_resolution)
        grids = mask_head_forward(model, feats, region[dets] - lo, classes[dets]).data
        masks[dets] = paste_mask(grids, refined[rows[dets]], height, width)
    return [
        InstancePrediction(Detection(image_id, k, Box(*row), score), mask)
        for k, row, score, mask in zip(classes.tolist(), refined[rows].tolist(), scores, masks)
    ]


def save_checkpoint(model: Model, path: str) -> None:
    arrays = {name: t.data for name, t in model.named_params()}
    np.savez(path, **arrays)


def load_checkpoint(model: Model, path: str) -> None:
    """Copy stored arrays into the model's parameters in place. The file
    must be a readable .npz archive, and every array must hold real numbers
    (integer or float dtype), match its parameter's shape and be finite;
    otherwise nothing is copied."""
    try:
        with open(path, "rb") as fh, np.load(fh) as archive:
            stored = {name: archive[name] for name in archive.files}
    except (zipfile.BadZipFile, EOFError, TypeError, ValueError) as exc:  # TypeError: a bare .npy array
        raise ValueError(f"{path}: unreadable checkpoint archive: {exc}") from exc
    params = dict(model.named_params())
    missing = set(params) - set(stored)
    extra = set(stored) - set(params)
    if missing or extra:
        raise ValueError(f"checkpoint mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    for name, tensor in params.items():
        if stored[name].dtype.kind not in "iuf":
            raise ValueError(f"{name}: stored dtype {stored[name].dtype} is not integer or float")
        if stored[name].shape != tensor.data.shape:
            raise ValueError(f"{name}: stored shape {stored[name].shape} != model {tensor.data.shape}")
        if not np.isfinite(stored[name]).all():
            raise ValueError(f"{name}: stored array holds non-finite values")
    for name, tensor in params.items():
        tensor.data = stored[name].astype(np.float64)
