"""Collect the result files of several runs into one summary.

    python3 bench/summarize.py --out bench/baseline/seed.json [result files...]

With no files it reads every .bench_out/result-*.json. For each workload
and metric it records the median, the quartiles and the spread (the
interquartile range over the median), as the benchmark's acceptance rule
computes them, plus the runs' environments.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(paths: list[str]) -> dict:
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            r = json.load(fh)
        runs.setdefault((r["workload"], r["trace"]), []).append(r)
    out: dict = {"workloads": {}}
    for (workload, traced), group in sorted(runs.items()):
        entry = out["workloads"].setdefault(workload, {})
        metrics: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for r in group:
            for name, m in r["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        table = {}
        for name, values in metrics.items():
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) >= 2 else [med, med, med]
            table[name] = {
                "unit": units[name], "median": med, "q1": q[0], "q3": q[2],
                "spread": (q[2] - q[0]) / med if med else 0.0, "runs": len(values),
            }
        entry["per_layer" if traced else "end_to_end"] = table
        entry["seeds_traced" if traced else "seeds"] = sorted(r["seed"] for r in group)
        entry["failed" if not traced else "failed_traced"] = sum(r["failed"] for r in group)
        entry["attempted" if not traced else "attempted_traced"] = sum(r["attempted"] for r in group)
        if not traced:
            entry["known_defects"] = sum(len(r["notes"].get("known_defects", [])) for r in group)
    envs = [r["env"] for group in runs.values() for r in group]
    if envs:
        first = envs[0]
        out["env"] = {k: v for k, v in first.items() if not k.startswith(("loadavg", "ref_loop"))}
        out["loadavg_range"] = [
            min(min(e["loadavg_start"][0], e["loadavg_end"][0]) for e in envs),
            max(max(e["loadavg_start"][0], e["loadavg_end"][0]) for e in envs),
        ]
        out["ref_loop_per_s_range"] = [
            min(min(e["ref_loop_per_s_start"], e["ref_loop_per_s_end"]) for e in envs),
            max(max(e["ref_loop_per_s_start"], e["ref_loop_per_s_end"]) for e in envs),
        ]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="summarize benchmark result files")
    parser.add_argument("--out", required=True)
    parser.add_argument("files", nargs="*")
    args = parser.parse_args(argv)
    files = args.files or glob.glob(os.path.join(ROOT, ".bench_out", "result-*.json"))
    if not files:
        print("no result files", file=sys.stderr)
        return 2
    summary = summarize(files)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(files)} runs summarized into {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
