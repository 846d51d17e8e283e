"""Command-line behavior: exit codes, diagnostics, artifacts."""

import dataclasses
import json
import re
import warnings

import pytest

from attnmask import cli as cli_mod
from attnmask.cli import RunConfig, _parse_thresholds, _split_config, cli
from attnmask.inputs import InputError
from attnmask.metrics import COCO_SWEEP
from attnmask.model import ModelConfig
from attnmask.synth import SynthSpec, dataset_hash, synth_dataset
from attnmask.train import TrainConfig
from oracles import map_reference


def _write_eval_pair(tmp_path):
    gt = {
        "images": [{"id": 0, "width": 64, "height": 64}],
        "categories": [{"id": 1, "name": "disk"}],
        "annotations": [
            {"id": 1, "image_id": 0, "category_id": 1, "bbox": [4.0, 6.0, 10.0, 8.0]}
        ],
    }
    det = [{"image_id": 0, "category_id": 1, "score": 0.9, "bbox": [4.0, 6.0, 10.0, 8.0]}]
    gt_path, det_path = tmp_path / "gt.json", tmp_path / "det.json"
    gt_path.write_text(json.dumps(gt))
    det_path.write_text(json.dumps(det))
    return str(gt_path), str(det_path)


def test_evaluate_perfect_pair(tmp_path, capsys):
    gt, det = _write_eval_pair(tmp_path)
    out = tmp_path / "report.json"
    assert cli(["evaluate", "--gt", gt, "--det", det, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "mAP@0.5" in text and "1.0000" in text
    report = json.loads(out.read_text())
    assert report["map_coco"] == pytest.approx(1.0)


def test_evaluate_reports_malformed_json(tmp_path, capsys):
    gt, det = _write_eval_pair(tmp_path)
    broken = tmp_path / "broken.json"
    broken.write_text('{"images": [\n  {"id": }\n]}')
    assert cli(["evaluate", "--gt", str(broken), "--det", det]) == 2
    err = capsys.readouterr().err
    assert "broken.json" in err and "line 2" in err


def test_evaluate_reports_missing_file(tmp_path, capsys):
    gt, det = _write_eval_pair(tmp_path)
    assert cli(["evaluate", "--gt", str(tmp_path / "absent.json"), "--det", det]) == 2
    assert "absent.json" in capsys.readouterr().err


def test_evaluate_rejects_unknown_category(tmp_path, capsys):
    gt, _ = _write_eval_pair(tmp_path)
    det = tmp_path / "badcat.json"
    det.write_text(json.dumps(
        [{"image_id": 0, "category_id": 9, "score": 0.9, "bbox": [1, 1, 4, 4]}]
    ))
    assert cli(["evaluate", "--gt", gt, "--det", str(det)]) == 2
    assert "detections[0]" in capsys.readouterr().err


def test_evaluate_rejects_unlisted_image(tmp_path, capsys):
    # a detection on an image the ground truth does not list is an input
    # error, not a false positive that halves mAP@0.5
    gt, det = _write_eval_pair(tmp_path)
    path = tmp_path / "det.json"
    dets = json.loads(path.read_text())
    path.write_text(json.dumps(dets + [{**dets[0], "image_id": 2}]))
    assert cli(["evaluate", "--gt", gt, "--det", det]) == 2
    assert "det.json: detections[1]: unknown image_id 2" in capsys.readouterr().err


@pytest.mark.parametrize("categories", [None, []], ids=["absent", "empty"])
def test_evaluate_without_categories_accepts_any_category_id(tmp_path, capsys, categories):
    # ground truth and detections share one rule: no categories, no id check
    gt = {"images": [{"id": 0, "width": 10, "height": 10}],
          "annotations": [{"id": 1, "image_id": 0, "category_id": 1, "bbox": [0, 0, 4, 4]}]}
    if categories is not None:
        gt["categories"] = categories
    gt_path, det_path, out = tmp_path / "gt.json", tmp_path / "det.json", tmp_path / "report.json"
    gt_path.write_text(json.dumps(gt))
    det_path.write_text(json.dumps([{"image_id": 0, "category_id": 1, "score": 0.9, "bbox": [0, 0, 4, 4]}]))
    assert cli(["evaluate", "--gt", str(gt_path), "--det", str(det_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["map50"] == 1.0


def test_evaluate_rejects_a_bbox_whose_corners_collapse(tmp_path, capsys):
    # 1e17 + 1 == 1e17 in float: the box would have no width and a 0/0 IoU
    gt, det = _write_eval_pair(tmp_path)
    path = tmp_path / "det.json"
    dets = json.loads(path.read_text())
    path.write_text(json.dumps(dets + [{**dets[0], "bbox": [1e17, 0, 1, 1]}]))
    assert cli(["evaluate", "--gt", gt, "--det", det]) == 2
    assert "det.json: detections[1]: bbox corners collapse in float" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, shown", [("image_id", 2**64, "18446744073709551616"),
                                               ("category_id", 1e300, "1e+300"),
                                               ("image_id", -2**63 - 1, "-9223372036854775809")],
                         ids=["huge-int", "huge-integral-float", "below-int64"])
def test_evaluate_rejects_an_id_outside_int64(tmp_path, capsys, key, value, shown):
    # without images or categories in the ground truth no id is looked up,
    # yet an id that no int64 holds is still malformed input
    gt_path, det_path = tmp_path / "gt.json", tmp_path / "det.json"
    gt_path.write_text(json.dumps({"annotations": [{"id": 1, "image_id": 0, "category_id": 1, "bbox": [0, 0, 4, 4]}]}))
    det = {"image_id": 0, "category_id": 1, "score": 0.9, "bbox": [0, 0, 4, 4]}
    det_path.write_text(json.dumps([det, {**det, key: value}]))
    assert cli(["evaluate", "--gt", str(gt_path), "--det", str(det_path)]) == 2
    assert f"det.json: detections[1]: {key} must be within int64, got {shown}" in capsys.readouterr().err
    gt_path.write_text(json.dumps({"annotations": [{"id": 1, "image_id": 0, "category_id": 1, "bbox": [0, 0, 4, 4],
                                                    key: value}]}))
    assert cli(["evaluate", "--gt", str(gt_path), "--det", str(det_path)]) == 2
    assert f"gt.json: annotations[0] (id=1): {key} must be within int64, got {shown}" in capsys.readouterr().err


def test_evaluate_agrees_with_the_oracle_where_float_rounding_meets_a_threshold(tmp_path):
    # each detection is its box shifted by 1/7 of its width: IoU 0.75 in
    # decimal. In float the corner IoU of the first pair is exactly 0.75 and
    # that of the second just below it, while the center form cx -/+ w/2
    # rounds them the other way; a search over 2-decimal coordinates found
    # both pairs
    boxes = [([1.47, 0.0, 7.0, 10.0], [2.47, 0.0, 7.0, 10.0]), ([1.05, 0.0, 7.0, 10.0], [2.05, 0.0, 7.0, 10.0])]
    gt = {"images": [{"id": 1, "width": 20, "height": 20}, {"id": 2, "width": 20, "height": 20}],
          "categories": [{"id": 1, "name": "disk"}],
          "annotations": [{"id": i, "image_id": i, "category_id": 1, "bbox": g} for i, (g, _) in enumerate(boxes, 1)]}
    dets = [{"image_id": i, "category_id": 1, "score": s, "bbox": d}
            for i, ((_, d), s) in enumerate(zip(boxes, (0.9, 0.8)), 1)]
    gt_path, det_path, out = tmp_path / "gt.json", tmp_path / "det.json", tmp_path / "report.json"
    gt_path.write_text(json.dumps(gt))
    det_path.write_text(json.dumps(dets))
    assert cli(["evaluate", "--gt", str(gt_path), "--det", str(det_path), "--thresholds", "0.5,0.75",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())

    def xyxy(b):
        return (b[0], b[1], b[0] + b[2], b[1] + b[3])

    o_gts = [(a["image_id"], a["category_id"], xyxy(a["bbox"]), False) for a in gt["annotations"]]
    o_dets = [(d["image_id"], d["category_id"], d["score"], xyxy(d["bbox"])) for d in dets]
    for key, thr in (("0.50", 0.5), ("0.75", 0.75)):
        assert abs(report["map_by_thr"][key] - map_reference(o_dets, o_gts, thr)) <= 1e-9
    # at 0.75 the first detection is a hit and the second a miss
    assert report["counts"]["0.75"] == {"tp": 1, "fp": 1, "fn": 1}


def test_evaluate_rejects_non_object_record(tmp_path, capsys):
    _, det = _write_eval_pair(tmp_path)
    gt = tmp_path / "badrecord.json"
    gt.write_text(json.dumps({"images": [{"id": 0, "width": 64, "height": 64}], "annotations": [5]}))
    assert cli(["evaluate", "--gt", str(gt), "--det", det]) == 2
    assert "badrecord.json: annotations[0] must be object, got 5" in capsys.readouterr().err


def test_evaluate_rejects_bad_thresholds(tmp_path, capsys):
    gt, det = _write_eval_pair(tmp_path)
    assert cli(["evaluate", "--gt", gt, "--det", det, "--thresholds", "0.5,high"]) == 2
    assert "'high'" in capsys.readouterr().err
    assert cli(["evaluate", "--gt", gt, "--det", det, "--thresholds", "1.5"]) == 2
    assert "outside" in capsys.readouterr().err
    # the thresholds are read before either file
    absent = str(tmp_path / "absent.json")
    assert cli(["evaluate", "--gt", absent, "--det", absent, "--thresholds", "0.999"]) == 2
    assert capsys.readouterr().err == "error: --thresholds: 0.999 rounds to 1.0, outside (0, 1)\n"
    # the range check reads the rounded value that map_report would score
    for token, rounded in (("0.999", "1.0"), ("0.001", "0.0"), ("0.004", "0.0")):
        assert cli(["evaluate", "--gt", gt, "--det", det, "--thresholds", token]) == 2
        err = capsys.readouterr().err
        assert f"--thresholds: {token} rounds to {rounded}, outside (0, 1)" in err


def test_parse_thresholds_expands_coco():
    assert _parse_thresholds("coco") == COCO_SWEEP
    assert _parse_thresholds("0.75, 0.5") == (0.5, 0.75)
    assert _parse_thresholds("0.5,0.5,coco") == COCO_SWEEP  # dedup keeps the sweep
    with pytest.raises(InputError):
        _parse_thresholds(",")


def test_split_config_routes_sections(tmp_path):
    cfg = {"canvas": 32, "train_images": 4, "model": {"fpn_dim": 16},
           "train": {"epochs": 2, "step_epochs": [1]}}
    spec, run, models, tcfg = _split_config(cfg, "x.json", ("none", "cbam"), 7)
    assert spec.canvas == 32
    assert run.train_images == 4 and run.val_images == 8
    # one model config per variant, each with its own variant and the override
    assert models == (dataclasses.replace(ModelConfig.toy("none"), fpn_dim=16),
                      dataclasses.replace(ModelConfig.toy("cbam"), fpn_dim=16))
    assert tcfg == dataclasses.replace(TrainConfig.toy(seed=7), epochs=2, step_epochs=(1,))

    with pytest.raises(InputError, match="unknown field 'max_boxes'"):
        _split_config({"max_boxes": 3}, "x.json", ("none",), 0)
    with pytest.raises(InputError, match="x.json: model must be object, got 5"):
        _split_config({"model": 5}, "x.json", ("none",), 0)


def test_gradcheck_subcommand_passes(capsys):
    assert cli(["gradcheck", "--module", "attention"]) == 0
    out = capsys.readouterr().out
    assert "PASS total" in out
    assert "worst rel err" in out


def test_train_toy_writes_artifacts(tmp_path, monkeypatch, tiny_config, capsys):
    monkeypatch.setenv("ATTNMASK_SEED", "42")
    out_dir = tmp_path / "run"
    code = cli(["train-toy", "--config", tiny_config, "--attention", "none",
                "--seed", "0", "--out", str(out_dir)])
    assert code == 0
    for name in ("model.npz", "loss_trace.csv", "eval.json"):
        assert (out_dir / name).exists(), name
    payload = json.loads((out_dir / "eval.json").read_text())
    assert payload["variant"] == "none"
    assert payload["seed"] == 42  # environment beats the flag
    assert "train_dataset_sha256" in payload and "map50" in payload
    trace = (out_dir / "loss_trace.csv").read_text().splitlines()
    assert trace[0].startswith("step,epoch,")
    assert len(trace) == 1 + 3 * 3  # 3 epochs x ceil(6/2) steps
    assert "steps in" in capsys.readouterr().out


def test_bad_seed_env_fails_fast(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ATTNMASK_SEED", "twelve")
    assert cli(["train-toy", "--out", str(tmp_path / "x")]) == 2
    assert "ATTNMASK_SEED" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, env, message",
    [("-1", None, "--seed: seed must be at least 0, got -1"),
     ("0", "-2", "ATTNMASK_SEED='-2': seed must be at least 0, got -2")],
    ids=["flag", "env"],
)
def test_negative_seed_exits_2_naming_its_source(tmp_path, monkeypatch, capsys, flag, env, message):
    if env is None:
        monkeypatch.delenv("ATTNMASK_SEED", raising=False)
    else:
        monkeypatch.setenv("ATTNMASK_SEED", env)
    assert cli(["train-toy", "--seed", flag, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_train_toy_rejects_unknown_config_field(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"n_object": [1, 2]}))
    assert cli(["train-toy", "--config", str(cfg), "--out", str(tmp_path / "y")]) == 2
    assert "unknown field 'n_object'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"train": {"batch_size": "2"}}, "train: batch_size must be int, got '2'"),
        ({"model": {"fpn_dim": 24.5}}, "model: fpn_dim must be int, got 24.5"),
        ({"train_images": "2"}, "train_images must be int, got '2'"),
        ({"train": {"hflip_prob": float("nan")}}, "train: hflip_prob must be float, got nan"),
        ({"model": {"stages": {"blocks": [1, 1, 1, 1]}}}, r"model: stages must be StageConfig, got \{'blocks'"),
        ({"model": {"anchors": {"ratios": [1.0]}}}, r"model: anchors must be AnchorConfig, got \{'ratios'"),
        ({"model": {"with_p6": 1}}, "model: with_p6 must be bool, got 1"),
        ({"train": {"step_epochs": [1, "2"]}}, r"train: step_epochs must be tuple\[int, ...\], got \[1, '2'\]"),
        ({"train_images": 0}, "train_images must be at least 1, got 0"),
        ({"conf_threshold": 2.5}, r"conf_threshold must be in \[0,1\], got 2.5"),
        ({"train": {"batch_size": 0}}, "train: batch_size must be at least 1, got 0"),
        ({"train": {"epochs": 0, "step_epochs": []}}, "train: epochs must be at least 1, got 0"),
        ({"train": {"rpn_batch": 0}}, "train: rpn_batch must be at least 1, got 0"),
        ({"train": {"steps_per_epoch": 0}}, "train: steps_per_epoch must be null or at least 1, got 0"),
        ({"train": {"hflip_prob": 7}}, r"train: hflip_prob must be in \[0,1\], got 7"),
        ({"model": {"reduction": 0}}, "model: reduction must be at least 1, got 0"),
        ({"model": {"box_resolution": 0}}, "model: box_resolution must be at least 1, got 0"),
        ({"model": {"fpn_dim": 0}}, "model: fpn_dim must be at least 1, got 0"),
        ({"model": {"head_width": 0}}, "model: head_width must be at least 1, got 0"),
        ({"model": {"mask_out": 20}}, "model: mask_out must be 2 \\* mask_resolution = 28, got 20"),
        ({"model": {"eca_kernel": "foo"}}, "model: eca_kernel must be an odd positive int or 'adaptive', got 'foo'"),
        ({"model": {"reduction": 3}}, r"model: reduction 3 must divide every stage width \(8, 16, 32, 64\)"),
        ({"model": {"reduction": 128}}, r"model: reduction 128 must divide every stage width \(8, 16, 32, 64\)"),
        ({"train": {"roi_batch": 0}}, "train: roi_batch must be at least 1, got 0"),
        ({"train": {"train_pre_nms": 0}}, "train: train_pre_nms must be at least 1, got 0"),
        ({"train": {"train_post_nms": -1}}, "train: train_post_nms must be at least 1, got -1"),
        ({"train": {"rpn_pos_fraction": 1.5}}, r"train: rpn_pos_fraction must be in \[0,1\], got 1.5"),
        ({"train": {"roi_pos_fraction": -0.25}}, r"train: roi_pos_fraction must be in \[0,1\], got -0.25"),
        ({"train": {"roi_pos_iou": 0}}, r"train: roi_pos_iou must be in \(0,1\], got 0"),
        ({"train": {"roi_pos_iou": 1.5}}, r"train: roi_pos_iou must be in \(0,1\], got 1.5"),
        ({"train": {"step_factor": 0}}, "train: step_factor must be positive, got 0"),
        ({"train_seed": -5}, "train_seed must be at least 0, got -5"),
        ({"val_seed": -1}, "val_seed must be at least 0, got -1"),
        ({"train": {"seed": -3}},
         r"train: seed comes from the command \(--seed or ATTNMASK_SEED\), not the config, got -3"),
        ({"train": {"momentum": 1.5}}, r"train: momentum must be in \[0,1\), got 1.5"),
        ({"train": {"weight_decay": -0.1}}, "train: weight_decay must be at least 0, got -0.1"),
        ({"train": {"rpn_reg_weight": -1}}, "train: rpn_reg_weight must be at least 0, got -1"),
        ({"train": {"step_epochs": [-3]}}, r"train: step_epochs must be in \[0,26\), got \[-3\]"),
        ({"noise": -0.5}, "noise must be finite and at least 0, got -0.5"),
        ({"classes": ["disk", "disk"]}, r"classes must not repeat a name, got \['disk', 'disk'\]"),
        ({"size_range": [0.9, 0.99]}, r"size_range must satisfy 0 < low <= high <= 0.96875 \(canvas 64 .*\(0.9, 0.99\)"),
        ({"model": {"num_classes": 2}}, "model: num_classes must be at least the scenes' 3 classes, got 2"),
        ({"model": {"fpn_dim": 0}, "train": {"batch_size": 0}}, "model: fpn_dim must be at least 1, got 0"),
        ({"model": {"num_classes": 0}}, "model: num_classes must be at least 1, got 0"),
        ({"classes": []}, r"classes must be at least one shape name, got \(\)"),
        ({"n_objects": [3, 1]}, r"n_objects must be a pair 0 <= low <= high, got \(3, 1\)"),
    ],
    ids=["text-int", "fractional-int", "text-run-knob", "nan-float", "object-stages", "object-anchors",
         "int-bool", "text-in-tuple", "zero-train-images", "conf-above-1", "zero-batch", "zero-epochs",
         "zero-rpn-batch", "zero-steps-per-epoch", "hflip-above-1", "zero-reduction", "zero-box-resolution",
         "zero-fpn-dim", "zero-head-width", "mask-out-mismatch", "text-eca-kernel", "reduction-not-dividing",
         "reduction-too-wide-for-none", "zero-roi-batch", "zero-pre-nms", "negative-post-nms",
         "rpn-pos-fraction-above-1", "negative-roi-pos-fraction", "zero-roi-pos-iou", "roi-pos-iou-above-1",
         "zero-step-factor", "negative-train-seed", "negative-val-seed", "negative-train-config-seed",
         "momentum-above-1", "negative-weight-decay", "negative-rpn-reg-weight", "negative-step-epoch",
         "negative-noise", "repeated-class", "size-range-past-margin", "too-few-model-classes",
         "model-before-train", "zero-model-classes", "no-classes", "reversed-n-objects"],
)
def test_malformed_config_values_exit_2_naming_file_and_field(tmp_path, capsys, cfg, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))  # json writes nan as NaN, which json.load reads back
    # "none" builds no gate, and every model rule still holds without one
    argv = ["train-toy", "--attention", "none", "--config", str(path), "--out", str(tmp_path / "y")]
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert f"config {path}: " in err
    assert re.search(message, err), err
    assert not (tmp_path / "y").exists()  # every setting is read before --out is made


@pytest.mark.parametrize("argv", [["compare"], ["train-toy", "--attention", "cbam"]], ids=["compare", "train-toy"])
@pytest.mark.parametrize(
    "section, key, value, source",
    [("model", "variant", "se", "the command (train-toy --attention, or all four in compare)"),
     ("train", "seed", 7, "the command (--seed or ATTNMASK_SEED)")],
    ids=["model.variant", "train.seed"],
)
def test_config_cannot_set_what_the_command_owns(tmp_path, monkeypatch, capsys, argv, section, key, value, source):
    # the command names the variants and the seed, so a row is never labelled
    # with one variant while holding a model of another, and eval.json and
    # compare.json record the seed that training used
    built = []
    monkeypatch.setattr(cli_mod, "build_model", lambda cfg, seed: built.append(cfg.variant))
    path = tmp_path / "owned.json"
    path.write_text(json.dumps({section: {key: value}}))
    out = tmp_path / "run"
    assert cli(argv + ["--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: config {path}: {section}: {key} comes from {source}, "
                                       f"not the config, got {value!r}\n")
    assert built == [] and not out.exists()


@pytest.mark.parametrize("argv", [["compare"], ["train-toy", "--attention", "cbam"]], ids=["compare", "train-toy"])
@pytest.mark.parametrize(
    "text, message",
    [('{"model": {"num_classes": 2}}', "model: num_classes must be at least the scenes' 3 classes, got 2"),
     ('{"model": {"eca_kernel": 2}}', "model: eca_kernel must be an odd positive int or 'adaptive', got 2"),
     ('{"train": {"batch_size": 0}}', "train: batch_size must be at least 1, got 0"),
     ('{"train": {"lr": Infinity}}', "train: lr must be float, got inf")],
    ids=["too-few-classes", "even-eca-kernel", "zero-batch", "infinite-lr"],
)
def test_bad_sections_fail_before_anything_is_made(tmp_path, monkeypatch, capsys, argv, text, message):
    # the model and train sections are read with the rest of the config, so
    # a bad one leaves no --out and builds no scene and no model
    calls = []
    monkeypatch.setattr(cli_mod, "synth_dataset", lambda *args: calls.append("synth_dataset"))
    monkeypatch.setattr(cli_mod, "build_model", lambda cfg, seed: calls.append("build_model"))
    path = tmp_path / "bad.json"
    path.write_text(text)
    out = tmp_path / "run"
    assert cli(argv + ["--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: config {path}: {message}\n"
    assert calls == [] and not out.exists()


def test_diverged_training_exits_1(tmp_path, capsys):
    path = tmp_path / "hot.json"
    path.write_text(json.dumps({
        "train_images": 2, "val_images": 1, "model": {"fpn_dim": 16},
        "train": {"lr": 1e6, "epochs": 3, "step_epochs": []},
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli(["train-toy", "--config", str(path), "--out", str(tmp_path / "y")]) == 1
    assert capsys.readouterr().err == "error: training diverged: tensor holds non-finite values\n"


def _micro_config(tmp_path):
    cfg = tmp_path / "micro.json"
    cfg.write_text(json.dumps({
        "train_images": 2, "val_images": 1,
        "model": {"fpn_dim": 16},
        "train": {"epochs": 1, "step_epochs": [], "rpn_batch": 16,
                  "roi_batch": 4, "train_post_nms": 4},
    }))
    return cfg


def test_compare_writes_all_variants(tmp_path, capsys):
    cfg = _micro_config(tmp_path)
    out_dir = tmp_path / "cmp"
    assert cli(["compare", "--config", str(cfg), "--out", str(out_dir)]) == 0
    table = (out_dir / "compare.md").read_text().splitlines()
    assert table[0].split()[0] == "Model"
    assert [row.split()[0] for row in table[2:6]] == ["none", "se", "eca", "cbam"]
    summary = json.loads((out_dir / "compare.json").read_text())
    assert set(summary["variants"]) == {"none", "se", "eca", "cbam"}
    assert summary["dataset_sha256"] == dataset_hash(synth_dataset(SynthSpec(), RunConfig.train_seed, 2))
    # every variant trained on identical scenes, so one hash for all
    assert capsys.readouterr().out.count("Model") == 1
    # train-toy runs the same path: at the same config and seed its one
    # variant trains on the same scenes and scores the same as in compare
    one_dir = tmp_path / "one"
    assert cli(["train-toy", "--config", str(cfg), "--attention", "cbam", "--out", str(one_dir)]) == 0
    single = json.loads((one_dir / "eval.json").read_text())
    keys = ("map50", "map75", "map_coco", "detections")
    assert {k: single[k] for k in keys} == {k: summary["variants"]["cbam"][k] for k in keys}
    assert single["train_dataset_sha256"] == summary["dataset_sha256"]


@pytest.mark.parametrize("argv, variants", [(["compare"], 4), (["train-toy", "--attention", "eca"], 1)],
                         ids=["compare", "train-toy"])
def test_each_command_builds_its_scenes_once(tmp_path, monkeypatch, capsys, argv, variants):
    # the train and val scenes and the val ground truth are made once, every
    # variant trains on the same list and is scored against the same table
    made, trained_on, truths, scored_on = [], [], [], []
    real_synth, real_train = cli_mod.synth_dataset, cli_mod.train
    real_truth, real_report = cli_mod.to_ground_truth, cli_mod.map_report

    def synth(*args):
        made.append(real_synth(*args))
        return made[-1]

    def train(model, dataset, cfg):
        trained_on.append(dataset)
        return real_train(model, dataset, cfg)

    def to_ground_truth(*args):
        truths.append(real_truth(*args))
        return truths[-1]

    def map_report(dets, gt, **kwargs):
        scored_on.append(gt)
        return real_report(dets, gt, **kwargs)

    monkeypatch.setattr(cli_mod, "synth_dataset", synth)
    monkeypatch.setattr(cli_mod, "train", train)
    monkeypatch.setattr(cli_mod, "to_ground_truth", to_ground_truth)
    monkeypatch.setattr(cli_mod, "map_report", map_report)
    assert cli(argv + ["--config", str(_micro_config(tmp_path)), "--out", str(tmp_path / "run")]) == 0
    assert len(made) == 2
    assert len(trained_on) == variants and all(ds is made[0] for ds in trained_on)
    assert len(truths) == 1
    assert len(scored_on) == variants and all(gt is truths[0].records for gt in scored_on)


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        cli(["frobnicate"])
    with pytest.raises(SystemExit):
        cli(["train-toy"])  # --out is required
