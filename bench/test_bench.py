"""Tests of the benchmark itself (not of attnmask).

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

import run
import spans
import workloads
from layers import PER_LAYER, PROBES, layer_metrics
from spans import Probe, SpanTable, Tracer, install, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- span arithmetic ------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    s = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 9.0, 0, None],
    ]
    assert self_times(s) == [3.0, 2.0, 1.0, 4.0]
    table = SpanTable.of(s)
    assert sum(table.self_time.values()) == pytest.approx(10.0)  # the top-level span
    assert table.inclusive["a"] == 3.0 and table.calls["b"] == 1


def test_tracer_nests_cuts_and_counts():
    clock = iter(range(100)).__next__
    t = Tracer(clock=clock)
    outer = t.open("loop")
    t.open("step")
    t.count("work")
    t.cut("step")
    t.count("work")
    t.close_open("step", rename="tail")
    t.close(outer)
    names = [s[spans.NAME] for s in t.spans]
    assert names == ["loop", "step", "tail"]
    assert [s[spans.PARENT] for s in t.spans] == [-1, 0, 0]
    assert t.counts[("work", "step")] == 2  # keyed by the name when counted


def test_install_wraps_every_binding_and_restores_it():
    from attnmask import boxes, losses, metrics

    original = boxes.iou
    t = Tracer()
    with install([Probe("attnmask.boxes:iou", span="boxes.iou")], t):
        assert boxes.iou is not original
        assert metrics.iou is boxes.iou and losses.iou is boxes.iou
        b = boxes.Box(5.0, 5.0, 4.0, 4.0)
        metrics.iou(b, b)
    assert boxes.iou is original and metrics.iou is original
    assert [s[spans.NAME] for s in t.spans] == ["boxes.iou"]


def test_every_probe_target_resolves():
    for probe in PROBES:
        owner, name = spans._resolve(probe.target)
        assert callable(getattr(owner, name)), probe.target


# -- statistics -----------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 101))  # 1..100
    assert run.percentile(samples, 90) == 90  # ten samples (91..100) beyond
    assert run.percentile(samples[:99], 90) is None  # nine beyond
    assert run.percentile(samples, 50) == 50
    assert run.percentile(samples[:19], 50) is None
    assert run.percentile([], 50) is None


def test_median_rate_ignores_one_slow_stretch():
    op_s = [0.1] * 8 + [1.0] * 2  # five groups of two; the last one is slow
    assert run.median_rate(op_s, [2] * 10) == pytest.approx(20.0)
    assert run.median_rate([], []) == 0.0


# -- determinism of the inputs ------------------------------------------------------------


def test_coco_files_are_byte_identical_for_one_seed(tmp_path):
    paths = []
    for d in ("a", "b"):
        w = workloads.EvaluateWorkload(7, str(tmp_path / d))
        paths.append(w.setup()["pairs"])
    for (g1, d1, n1), (g2, d2, n2) in zip(*paths):
        with open(g1, "rb") as f1, open(g2, "rb") as f2:
            assert f1.read() == f2.read()
        with open(d1, "rb") as f1, open(d2, "rb") as f2:
            assert f1.read() == f2.read()
        assert n1 == n2 == workloads.EVAL_IMAGES_PER_FILE * workloads.EVAL_DETS_PER_IMAGE
    other = workloads.EvaluateWorkload(8, str(tmp_path / "c")).setup()["pairs"]
    with open(paths[0][0][1], "rb") as f1, open(other[0][1], "rb") as f2:
        assert f1.read() != f2.read()


def test_scenes_are_identical_for_one_seed(tmp_path):
    from attnmask.synth import dataset_hash

    a = workloads.TrainWorkload(3, str(tmp_path)).setup()
    b = workloads.TrainWorkload(3, str(tmp_path)).setup()
    c = workloads.TrainWorkload(4, str(tmp_path)).setup()
    assert dataset_hash(a["data"]) == dataset_hash(b["data"]) != dataset_hash(c["data"])
    v1 = workloads.InferSparseWorkload(3, str(tmp_path)).setup()
    v2 = workloads.InferSparseWorkload(3, str(tmp_path)).setup()
    assert dataset_hash(v1["val"]) == dataset_hash(v2["val"])


# -- failures are counted -------------------------------------------------------------------


def test_corrupted_detection_file_counts_as_failed(tmp_path):
    w = workloads.EvaluateWorkload(1, str(tmp_path))
    state = w.setup()
    _, det_path, _ = state["pairs"][0]
    with open(det_path, encoding="utf-8") as fh:
        dets = json.load(fh)
    dets[3]["bbox"][2] = -1.0  # negative width: the CLI must reject the file
    with open(det_path, "w", encoding="utf-8") as fh:
        json.dump(dets, fh)
    out = w.run(state, workloads.Stop(ops=len(state["pairs"])))
    assert out.attempted == len(state["pairs"])
    assert out.failed / out.attempted > 0


def test_tampered_checkpoint_counts_as_failed(tmp_path):
    meta = workloads.fixture_meta()
    src = os.path.join(os.path.dirname(workloads.FIXTURE_META), meta["checkpoint"])
    with np.load(src) as archive:
        arrays = {k: archive[k] for k in archive.files}
    first = sorted(arrays)[0]
    arrays[first] = arrays[first] + 1e-3  # loads fine, but is not the fixture
    tampered = str(tmp_path / "tampered.npz")
    np.savez(tampered, **arrays)
    w = workloads.InferSparseWorkload(1, str(tmp_path), checkpoint=tampered)
    state = w.setup()
    out = w.run(state, workloads.Stop(ops=1))
    assert out.failed > 0 and "sha256" in out.problems[0]


def test_truncated_checkpoint_counts_as_failed(tmp_path):
    meta = workloads.fixture_meta()
    src = os.path.join(os.path.dirname(workloads.FIXTURE_META), meta["checkpoint"])
    broken = str(tmp_path / "broken.npz")
    shutil.copyfile(src, broken)
    with open(broken, "r+b") as fh:
        fh.truncate(4096)
    w = workloads.TrainWorkload(1, str(tmp_path), checkpoint=broken)
    state = w.setup()
    out = w.run(state, workloads.Stop(ops=2))
    assert state["model"] is None
    assert out.attempted >= 1 and out.failed / out.attempted > 0


def test_fixture_checksum_matches_metadata():
    meta = workloads.fixture_meta()
    model, problem = workloads.load_frozen_model()
    assert problem is None and model is not None
    assert model.param_count() == meta["param_count"]


# -- traced runs --------------------------------------------------------------------------


def _traced_counts(seed: int) -> dict:
    w = workloads.EvaluateWorkload(seed, os.path.join(ROOT, ".bench_out", f"test-{os.getpid()}"))
    try:
        out, metrics, notes, tracer = run.run_traced(w)
    finally:
        workloads.cleanup(w.workdir)
    assert out.failed == 0
    return metrics


def test_traced_run_reports_every_layer_and_repeats_its_counts():
    a, b = _traced_counts(2), _traced_counts(2)
    assert list(a) == [name for name, _, _ in PER_LAYER]
    units = {name: unit for name, unit, _ in PER_LAYER}
    counted = [k for k in a if units[k] in ("count", "ratio") and k != "trace.self_sum_ratio"]
    assert {k: a[k] for k in counted} == {k: b[k] for k in counted}
    assert a["metrics.match_calls"] > 0 and a["coco_io.parse_ms"] > 0
    assert a["tensor.nodes"] == 0  # evaluate runs no tensor code


def test_layer_metrics_on_an_empty_trace_are_zero():
    values = layer_metrics(Tracer(), Tracer(), ops=0, untraced_wall=0.0, traced_wall=0.0)
    assert set(values) == {name for name, _, _ in PER_LAYER}
    assert all(v == 0.0 or k == "trace.overhead_share" for k, v in values.items())


def test_self_sum_ratio_measures_coverage_and_overhead_is_separate():
    # top-level spans cover 0.9 s of a 1.0 s traced pass; untraced passes took 0.8 s
    tracer = Tracer()
    tracer.spans = [["train.step", 0.0, 0.5, -1, None], ["boxes.iou", 0.1, 0.2, 0, None],
                    ["train.step", 0.6, 1.0, -1, None]]
    values = layer_metrics(tracer, Tracer(), ops=2, untraced_wall=0.8, traced_wall=1.0)
    assert values["trace.self_sum_ratio"] == pytest.approx(0.9)
    assert values["trace.overhead_share"] == pytest.approx(0.25)


# -- BENCHMARK.json -------------------------------------------------------------------------


def test_benchmark_json_names_what_run_py_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(n, u) for n, u, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in PER_LAYER]
    assert set(run.ALIASES) == set(workloads.WORKLOADS)
    assert all(set(alias) <= {n for n, _, _ in run.END_TO_END} for alias in run.ALIASES.values())


def test_adjusted_times_scale_with_the_reference_speed():
    half = run.REF_NOMINAL_PER_S / 2
    assert run.adjusted([0.2, 0.2], [half, run.REF_NOMINAL_PER_S]) == pytest.approx([0.1, 0.2])
