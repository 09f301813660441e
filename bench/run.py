"""Run one tumorkit benchmark workload and print its result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and the test-suite generators from ``tests/``, so nothing needs
installing.  The workload's inputs are generated from ``--seed`` before
any timed call.  Cycles of the workload (see workloads.py) repeat while
the next one is expected to end within ``--seconds``, and at least
MIN_CYCLES run, so every median has several samples.

``--trace 0`` times untraced cycles and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced cycles (at least two of
each, so that a change in machine speed during the run hits both),
reports the per-layer metrics, prints each layer's self time and its
share of the traced ``run_s``, and gives the tracing overhead as the
median traced ``run_s`` minus the median untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(machine, samples, counts, failures) goes to ``.bench_out/`` together
with the spans of a traced run; per-cycle run directories are made
under ``.bench_out/`` and removed at the end.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy is imported; one thread keeps runs
# steady on a shared machine and is never more than the machine has.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, TinyTrain  # noqa: E402

MIN_CYCLES = 3
MIN_TRACED_CYCLES = 4
OUT_DIR = ROOT / ".bench_out"
END_TO_END = (
    ("setup_s", "s"),
    ("epoch_s", "s"),
    ("run_s", "s"),
    ("eval_img_per_s", "1/s"),
    ("predict_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def machine_record() -> dict:
    """What the numbers were measured on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "timer_hook": "none: spans are taken from outside the package; a Model timer "
                      "hook is left to a later change",
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, float(np.percentile(values, pct))


def run_cycles(workload, inputs, seconds: float, tracer):
    """Closed loop: the next cycle starts when the last has ended.  With a
    tracer, untraced and traced cycles alternate."""
    done, errors = [], []
    least = MIN_CYCLES if tracer is None else MIN_TRACED_CYCLES
    started = time.perf_counter()
    while True:
        index = len(done)
        traced = tracer is not None and index % 2 == 1
        gc.collect()
        try:
            run_dir = workload.prepare(inputs, index)
            if traced:
                with tracer.cycle(index):
                    rec = workload.run(inputs, run_dir)
            else:
                rec = workload.run(inputs, run_dir)
        except Exception as exc:  # a failed operation is counted, then the loop stops
            errors.append(f"cycle {index}: {type(exc).__name__}: {exc}")
            break
        done.append((rec, traced))
        elapsed = time.perf_counter() - started
        typical = statistics.median(r.wall_s for r, _ in done)
        balanced = tracer is None or traced
        if len(done) >= least and balanced and elapsed + typical > seconds:
            break
    return done, errors


def end_to_end(workload, inputs, cycles, peak: float) -> dict[str, tuple[float, int]]:
    """(value, sample count) of every end-to-end metric."""
    if workload.trains:
        setup = [c.train_setup_s for c in cycles]
        epochs = [e for c in cycles for e in c.epoch_s[1:]]
    else:
        # a pass over the data is one eval command; the first is a warm-up
        setup = inputs.setup_samples_s
        epochs = [c.eval_s for c in cycles[1:]]
    predicts = [p for c in cycles for p in c.predict_ms]
    samples = {
        "setup_s": setup,
        "epoch_s": epochs,
        "run_s": [c.wall_s for c in cycles],
        "predict_ms": predicts,
    }
    out = {name: (statistics.median(v), len(v)) for name, v in samples.items() if v}
    if cycles:
        # throughput of every eval command in the run, not a median of short samples
        out["eval_img_per_s"] = (sum(c.eval_images for c in cycles)
                                 / sum(c.eval_s for c in cycles), len(cycles))
    out["peak_rss_mb"] = (peak, 1)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{tag}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine_record()}
    try:
        inputs = workload.setup(work, args.seed)
        record["peak_rss_mb_after_setup"] = peak_rss_mb()
        done, failures = run_cycles(workload, inputs, args.seconds, tracer)
        peak = peak_rss_mb()
        cycles = [rec for rec, _ in done]
        # a cycle that raised counts its operations as attempted
        attempted = workload.operations(inputs) * (len(done) + len(failures))
        if cycles:
            failures += workload.check(inputs, cycles)
        if isinstance(workload, TinyTrain) and cycles:
            record["final_nnck_sha256"] = workload.digest(cycles)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [rec for rec, traced in done if not traced]
    lines = []
    if tracer is None:
        measured = end_to_end(workload, inputs, untraced, peak)
        for name, unit in END_TO_END:
            if name in measured:
                value, n = measured[name]
                how = {"peak_rss_mb": "process peak",
                       "eval_img_per_s": f"total over n={n} eval commands"}.get(
                           name, f"median of n={n}")
                lines.append(f"{name:16s} {value:12.4f} {unit:4s} {how}")
        predicts = [p for c in untraced for p in c.predict_ms]
        if tail(predicts):
            pct, value = tail(predicts)
            lines.append(f"{'predict_ms p' + str(pct):16s} {value:12.4f} ms   n={len(predicts)}")
        metrics = {name: {"value": measured[name][0], "unit": unit}
                   for name, unit in END_TO_END if name in measured}
        record["samples"] = {
            "run_s": [c.wall_s for c in untraced],
            "setup_s": [c.train_setup_s for c in untraced] if workload.trains
            else inputs.setup_samples_s,
            "epoch_s": [c.epoch_s for c in untraced],
            "eval_s": [c.eval_s for c in untraced],
            "predict_ms": [c.predict_ms for c in untraced],
        }
    else:
        metrics, more_lines, more_failures = traced_report(tracer, done, work)
        lines += more_lines
        failures += more_failures
        record["counts"] = {k: metrics[k]["value"] for k in tracing.EXACT}

    failed = min(len(failures), attempted)
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update(result, failures=failures, cycles=len(done))
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    print(f"{workload.name} seed={args.seed} trace={args.trace} cycles={len(done)} "
          f"blas_threads={BLAS_THREADS}")
    for line in lines + [f"FAILED: {f}" for f in failures]:
        print(line)
    if "final_nnck_sha256" in record:
        print(f"final.nnck sha256 {record['final_nnck_sha256']}")
    print(json.dumps(result))
    return 0


def traced_report(tracer, done, work: Path):
    """Per-layer metrics, the self-time table and the exact-count check."""
    untraced = statistics.mean(rec.wall_s for rec, traced in done if not traced)
    traced_runs = [i for i, (_, traced) in enumerate(done) if traced]
    if not traced_runs:
        return {}, [], []
    epochs = {i: done[i][0].epoch_s for i in traced_runs}
    values = tracing.per_layer_values(tracer, epochs, untraced)
    failures = []
    counts = [tracing.cycle_counts(tracer, i) for i in traced_runs]
    for name in tracing.EXACT:
        seen = {c[name] for c in counts}
        if len(seen) > 1:
            failures.append(f"{name} differs between traced cycles: {sorted(seen)}")
    lines = [f"{'layer':12s} {'self_s':>10s} {'share':>7s}   (mean of {len(traced_runs)} traced cycles)"]
    total = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    for layer in tracing.LAYERS:
        own = values[f"{layer}.self_s"]
        lines.append(f"{layer:12s} {own:10.4f} {own / values['trace.run_s']:7.1%}")
    lines.append(f"{'sum':12s} {total:10.4f}   traced run_s {values['trace.run_s']:.4f}")
    lines.append(f"tracing overhead {values['trace.overhead_s']:.4f} s "
                 f"(mean traced run_s minus mean untraced run_s {untraced:.4f})")
    for name, unit in tracing.per_layer_metrics():
        lines.append(f"{name:32s} {values[name]:14.4f} {unit}")
    lines += tracing.size_breakdown(tracer)
    tracer.write(OUT_DIR / f"{work.name.removeprefix('work-')}-spans.jsonl")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.per_layer_metrics()}
    return metrics, lines, failures


if __name__ == "__main__":
    sys.exit(main())
