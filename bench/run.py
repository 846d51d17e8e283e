"""attnmask benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload train --seed 1 --seconds 20 --trace 0

With --trace 0 the run measures the end-to-end metrics with nothing wrapped
but the operation boundaries. With --trace 1 it runs a fixed number of
operations in four passes (warm-up, untraced, traced, untraced; the traced
one records spans around the calls into each attnmask module) and reports
the per-layer metrics plus the tracing overhead. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
environment, every metric by name and unit, and any failed check.
Workloads, metrics and the reasons for both are in bench/WORKLOADS.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy loads, and let only the benchmark's
# own seed decide the inputs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("ATTNMASK_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

# set-ups before and after the measured loop: the host's speed drifts over
# seconds, so the median should not come from one moment of the run
SETUP_REPEATS = (3, 2)
# The reference loop's speed on a host running at full speed (this one, in
# its fast stretches); adjusted times are raw times scaled to that speed.
REF_ITERATIONS = 200
REF_NOMINAL_PER_S = 80_000.0
MIN_SAMPLES = 100  # p90 needs 10 samples beyond it
TAIL_PERCENTILE = 90
THROUGHPUT_GROUPS = 5

# name, unit, what it counts on each workload (see WORKLOADS.md); the three
# timings and setup_s are host-adjusted (see `adjusted`)
END_TO_END = (
    ("throughput", "items/s", "train and infer: images/s; evaluate: detections/s; gradcheck: cases/s"),
    ("op_ms_p50", "ms", "median time of one train step, image, evaluate call or gradcheck case"),
    ("op_ms_p90", "ms", "90th percentile of the same"),
    ("setup_s", "s", "median of the set-up repeats"),
    ("peak_rss_mb", "MB", "peak resident memory of the process"),
)
# the same numbers under the names a reader of one workload looks for
ALIASES = {
    "train": {"throughput": "train_images_per_s", "op_ms_p50": "train_step_ms_p50",
              "op_ms_p90": "train_step_ms_p90"},
    "infer_sparse": {"throughput": "infer_images_per_s", "op_ms_p50": "infer_image_ms_p50",
                     "op_ms_p90": "infer_image_ms_p90"},
    "infer_dense": {"throughput": "infer_images_per_s", "op_ms_p50": "infer_image_ms_p50",
                    "op_ms_p90": "infer_image_ms_p90"},
    "evaluate": {"throughput": "evaluate_dets_per_s"},
    "gradcheck": {"throughput": "gradcheck_cases_per_s"},
}


# -- statistics ------------------------------------------------------------------------


def percentile(samples, p: float, min_beyond: int = 10):
    """Nearest-rank p-th percentile, or None when fewer than `min_beyond`
    samples lie beyond its rank (a tail read from too few samples)."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def median_rate(op_s, items, groups: int = THROUGHPUT_GROUPS) -> float:
    """Work items per second as the median over `groups` consecutive runs of
    operations, so that one slow stretch of a shared machine moves it little."""
    n = len(op_s)
    k = min(groups, n)
    rates = []
    for g in range(k):
        lo, hi = g * n // k, (g + 1) * n // k
        rates.append(sum(items[lo:hi]) / sum(op_s[lo:hi]))
    return statistics.median(rates) if rates else 0.0


# -- environment -----------------------------------------------------------------------


def _git_commit(root: str):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = os.path.join(root, ".git", ref[5:])
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(ref[5:]):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _src_stats(root: str):
    import hashlib

    h = hashlib.sha256()
    lines = 0
    src = os.path.join(root, "src", "attnmask")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                data = fh.read()
            h.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return lines, h.hexdigest()


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        pass
    lines, src_sha = _src_stats(ROOT)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": BLAS_THREADS,
        "git_commit": _git_commit(ROOT),
        "src_lines": lines,
        "src_sha256": src_sha,
        "loadavg_start": [round(v, 2) for v in os.getloadavg()],
        "ref_loop_per_s_start": reference_speed(),
    }


def reference_burst(iterations: int = REF_ITERATIONS) -> float:
    """Iterations per second of a fixed loop of small NumPy and Python work,
    the mix the workloads run. Sampled between operations, it measures how
    fast the shared host is running this process at that moment."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    t0 = time.perf_counter()
    for _ in range(iterations):
        a @ a
        sum(range(200))
    return iterations / (time.perf_counter() - t0)


def reference_speed(samples: int = 25) -> float:
    return round(statistics.median(reference_burst() for _ in range(samples)), 1)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- runs ------------------------------------------------------------------------------


def timed_setups(workload, repeats: int, tracer=None, reference=None):
    """Run set-up `repeats` times; returns (last state, seconds each, and
    the reference speed around each when `reference` is given)."""
    from spans import install
    from layers import PROBES

    times, speeds, state = [], [], None
    for _ in range(repeats):
        state = None
        before = reference() if reference is not None else None
        t0 = time.perf_counter()
        if tracer is not None:
            with install(PROBES, tracer):
                state = workload.setup()
        else:
            state = workload.setup()
        times.append(time.perf_counter() - t0)
        if reference is not None:
            speeds.append((before + reference()) / 2.0)
    return state, times, speeds


def adjusted(seconds, speeds):
    """Raw times scaled to the nominal host speed: a time measured while the
    reference loop ran at half its nominal speed counts half."""
    return [t * s / REF_NOMINAL_PER_S for t, s in zip(seconds, speeds)]


def timing_metrics(op_s, items, setup_s) -> dict:
    ms = [t * 1e3 for t in op_s]
    return {
        "throughput": median_rate(op_s, items),
        "op_ms_p50": percentile(ms, 50),
        "op_ms_p90": percentile(ms, TAIL_PERCENTILE),
        "setup_s": statistics.median(setup_s),
    }


def run_untraced(workload, seconds: float):
    from workloads import Stop

    before, after = SETUP_REPEATS
    state, setup_times, setup_speeds = timed_setups(workload, before, reference=reference_burst)
    stop = Stop(seconds=seconds, min_ops=MIN_SAMPLES, cap_s=max(4 * seconds, 90.0))
    out = workload.run(state, stop, reference=reference_burst)
    workload.verify(state, out)
    _, more_times, more_speeds = timed_setups(workload, after, reference=reference_burst)
    setup_times, setup_speeds = setup_times + more_times, setup_speeds + more_speeds

    metrics = timing_metrics(adjusted(out.op_s, out.speed), out.items, adjusted(setup_times, setup_speeds))
    metrics["peak_rss_mb"] = peak_rss_mb()
    raw = timing_metrics(out.op_s, out.items, setup_times)
    notes = {
        "samples": len(out.op_s),
        "measured_s": out.wall_s,
        "raw": raw,
        "speed_vs_nominal": [round(min(out.speed) / REF_NOMINAL_PER_S, 3),
                             round(statistics.median(out.speed) / REF_NOMINAL_PER_S, 3),
                             round(max(out.speed) / REF_NOMINAL_PER_S, 3)] if out.speed else None,
        "setup_runs_s": setup_times,
    }
    for key in ("map50", "dets_per_image", "known_defects"):
        if key in state:
            notes[key] = state[key]
    if metrics["op_ms_p90"] is None:
        out.problems.append(f"only {len(out.op_s)} samples: too few for a p{TAIL_PERCENTILE}")
    return out, metrics, notes, None


def run_traced(workload):
    from layers import PROBES, layer_metrics, module_self_ms
    from spans import Tracer, install
    from workloads import Outcome, Stop

    # Four passes of the same operations, each from a fresh set-up: a warm-up
    # for caches and lazy initialisation, then untraced, traced, untraced.
    # The two untraced passes bracket the traced one, so a machine that
    # speeds up or slows down steadily does not bias the overhead.
    ops = workload.trace_ops
    passes = []
    setup_tracer, tracer = Tracer(), Tracer()
    for kind in ("warm", "plain", "traced", "plain"):
        if kind == "traced":
            state, _, _ = timed_setups(workload, 1, tracer=setup_tracer)
            with install(PROBES, tracer):
                out = workload.run(state, Stop(ops=ops), tracer=tracer)
        else:
            state, _, _ = timed_setups(workload, 1)
            out = workload.run(state, Stop(ops=ops))
        if kind != "warm":
            workload.verify(state, out)
        passes.append((kind, out))

    traced = passes[2][1]
    plain_walls = [out.wall_s for kind, out in passes if kind == "plain"]
    untraced_wall = statistics.mean(plain_walls)
    n_ops = len(traced.op_s)
    metrics = layer_metrics(tracer, setup_tracer, n_ops, untraced_wall, traced.wall_s)
    merged = Outcome()
    for kind, out in passes:
        merged.attempted += out.attempted
        merged.failed += out.failed
        merged.problems += out.problems
        if len(out.op_s) != n_ops:
            merged.problems.append(f"{kind} pass ran {len(out.op_s)} operations, traced {n_ops}")
    notes = {
        "untraced_wall_s": plain_walls,
        "traced_wall_s": traced.wall_s,
        "module_self_ms_per_op": module_self_ms(tracer, n_ops),
        "self_sum_within_10pct": abs(metrics["trace.self_sum_ratio"] - 1.0) <= 0.10,
        "spans": len(tracer.spans),
    }
    return merged, metrics, notes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="attnmask benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "attnmask")):
        print(f"error: no attnmask sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads  # noqa: E402
    from layers import PER_LAYER  # noqa: E402

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = environment()
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            out, metrics, notes, tracer = run_traced(workload)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            out, metrics, notes, tracer = run_untraced(workload, args.seconds)
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        workloads.cleanup(workdir)
    env["loadavg_end"] = [round(v, 2) for v in os.getloadavg()]
    env["ref_loop_per_s_end"] = reference_speed()

    complete = all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values())
    correct = out.failed == 0 and not out.problems and complete and out.attempted > 0
    result = {
        "correct": correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed if out.attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if v is not None},
    }

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "env": env, "notes": notes, "problems": out.problems, **result}, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(OUT_DIR, f"spans-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh, separators=(",", ":"))

    print("env " + json.dumps(env, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True, default=str))
    for why in out.problems:
        print(f"FAILED {why}")
    for why in notes.get("known_defects", []):
        print(f"KNOWN DEFECT {why}")
    failed_share = result["failed"] / result["attempted"]
    print(f"{args.workload:12s} failed_share {failed_share:.6g} ({result['failed']}/{result['attempted']})")
    alias = ALIASES[args.workload]
    for name, m in result["metrics"].items():
        label = f"{name} ({alias[name]})" if name in alias and not args.trace else name
        print(f"{args.workload:12s} {label:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
