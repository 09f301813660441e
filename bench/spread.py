"""Run workloads once per seed and report each metric's spread.

    python3 bench/spread.py --seeds 1 2 3 [--workloads NAME ...] [--trace 0|1] [--save FILE]
    python3 bench/spread.py --compare FIRST.json SECOND.json

Runs ``bench/run.py`` for each workload (all of BENCHMARK.json's by
default) and seed, one run at a time, with BENCHMARK.json's
``run_seconds``.  It reads the JSON object on the last line of each run
and prints, per workload, every metric by name with its unit: the
median, the first and third quartiles as ``statistics.quantiles(n=4)``
gives them, and the distance between the quartiles as a share of the
median, checked against a third of the metric's bound.  ``--save``
writes the machine record, the per-seed values, the summaries and part
of each run's record from ``.bench_out/`` to a JSON file.  ``--compare``
reads two saved sets and shows, per workload and end-to-end metric, how
far the second median is from the first against the bound, and whether
the tiny-train checkpoint digests and the exact counts are identical
seed by seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# what --save keeps of each run's record from .bench_out/
KEPT = ("seed", "cycles", "attempted", "failed", "failures", "final_nnck_sha256", "counts",
        "peak_rss_mb_after_setup", "samples")


def summarize(vals: list[float]) -> dict:
    median = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(vals)}


def compare(first_path: Path, second_path: Path, spec: dict) -> int:
    """Second set against the first: medians within bounds, same digests and counts."""
    first, second = (json.loads(p.read_text()) for p in (first_path, second_path))
    worse_is = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    status = 0
    for workload, one in first["workloads"].items():
        two = second["workloads"].get(workload)
        if two is None:
            continue
        print(workload)
        for name, (better, bound) in worse_is.items():
            if name not in one["summary"] or name not in two["summary"]:
                continue
            a, b = one["summary"][name]["median"], two["summary"][name]["median"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            ok = worse <= bound
            status |= not ok
            print(f"  {name:16s} {a:12.5g} -> {b:12.5g}  worse by {worse:7.2%}  "
                  f"bound {bound}: {'ok' if ok else 'OVER'}")
        for key in ("final_nnck_sha256", "counts"):
            pairs = [(r1.get(key), r2.get(key)) for r1, r2 in zip(one["runs"], two["runs"])
                     if r1["seed"] == r2["seed"] and key in r1]
            if pairs:
                same = all(x == y for x, y in pairs)
                status |= not same
                print(f"  {key}: {'identical' if same else 'DIFFERENT'} across {len(pairs)} seeds")
    return status


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        return compare(Path(sys.argv[2]), Path(sys.argv[3]), spec)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    saved = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        records = []
        for seed in args.seeds:
            tag = f"{workload}-seed{seed}-trace{args.trace}"
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stdout + done.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(done.stdout)
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            record = json.loads((ROOT / ".bench_out" / f"{tag}.json").read_text())
            saved["machine"] = record.pop("machine")
            records.append({k: record[k] for k in KEPT if k in record})
            if args.trace == 0:
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

        print(f"{workload}: {len(args.seeds)} seeds")
        print(f"  {'metric':30s} {'unit':8s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        summary = {}
        for name, vals in values.items():
            summary[name] = dict(summarize(vals), unit=units[name])
            s = summary[name]
            note = ""
            if name in bounds:
                bound = bounds[name]
                note = (f"  bound {bound}: {'within' if s['spread'] <= bound else 'OVER'}, "
                        f"{'within' if s['spread'] <= bound / 3 else 'wider than'} a third")
            print(f"  {name:30s} {units[name]:8s} {s['median']:12.5g} {s['q1']:12.5g} "
                  f"{s['q3']:12.5g} {s['spread']:8.2%}{note}")
        saved["workloads"][workload] = {"seeds": args.seeds, "values": values,
                                        "summary": summary, "runs": records}
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
