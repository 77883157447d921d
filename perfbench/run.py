"""Benchmark of the tube-ncr command line.

    python3 perfbench/run.py --workload loc-q --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

Closed loop with one client.  Every sample is a fresh interpreter
(``child.py``) that imports ``tube_ncr.cli`` from ``src/`` and calls
``main(argv)`` once, so no cache survives between samples, as with real
CLI use.  Samples run back to back until the next one would end after
``--seconds``; at least one always runs.  Every report is checked
against the reference verdicts in ``reference.json``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, timed
from outside the call with tracing off.  The host's speed drifts by tens
of percent, within seconds as well as over minutes, and moves every
timing alike, so each timing is reported at a reference speed: each
sample's timings are multiplied by ``CALIB_REF_S`` over the time its own
process took, just before it imported the program, for a fixed
calibration computation (see ``child.py``), and the run reports the
median of the scaled samples.  CPU time is scaled by the calibration's
CPU time, wall times by its wall time: CPU time leaves out the time the
host's other guests take.  The unscaled medians and the median
calibrations are printed too, on a line ``unscaled {...}`` of JSON.

``--trace 1`` alternates untraced and traced samples; the traced ones
run under ``Tracer`` and give the per-layer metrics, the pairs give
``trace_overhead``, and each traced report must equal its untraced twin
byte for byte.  Spans are kept as JSON lines in ``.perfbench/``.

Human-readable lines go first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import read_spans, summarize
from workloads import WORKLOADS, argv_for, reference, verdict

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
TRACE_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5
# About the calibration time on the machine baseline.json was measured
# on; it only fixes the scale of the reported seconds.
CALIB_REF_S = 0.09
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def run_child(argv, trace=None) -> dict:
    spec = {"argv": argv, "trace": trace}
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(ROOT), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def measure_setup() -> list:
    """Set-up samples of fresh interpreters, after one untimed import that
    compiles the bytecode (users do not pay that on every run)."""
    run_child(None)
    return [run_child(None) for _ in range(SETUP_SAMPLES)]


def run_samples(workload: str, seed: int, seconds: float, traced: bool):
    """Untraced samples and, with ``traced``, one traced twin after each."""
    argv = argv_for(workload, seed)
    plain, twins, costs = [], [], []
    start = perf_counter()
    while not costs or perf_counter() - start + statistics.median(costs) <= seconds:
        began = perf_counter()
        plain.append(run_child(argv))
        if traced:
            TRACE_DIR.mkdir(exist_ok=True)
            path = TRACE_DIR / f"{workload}-seed{seed}-{len(twins)}.jsonl"
            twin = run_child(argv, str(path))
            twin["spans"] = read_spans(path)
            twins.append(twin)
        costs.append(perf_counter() - began)
    return plain, twins


def tail_percentile(values: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(values)[n - 11]


def scaled_median(key: str, samples: list, calib: str = "calib_s") -> float:
    """Median of ``key`` over the samples, each at the reference speed:
    scaled by the calibration's time of the same kind, ``calib``."""
    return statistics.median(s[key] * CALIB_REF_S / s[calib] for s in samples)


def median_or_none(values: list):
    return None if any(v is None for v in values) else statistics.median(values)


def bench(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    ref = reference()[workload]
    setup = [] if trace else measure_setup()
    plain, twins = run_samples(workload, seed, seconds, trace)
    failed = sum(verdict(workload, s["code"], s["report"]) != ref for s in plain + twins)
    failed += sum(t["report"] != p["report"] for p, t in zip(plain, twins))
    attempted = len(plain) + len(twins)
    for s in plain + twins:
        if s["error"]:
            sys.stderr.write(f"perfbench: {workload} raised\n{s['error']}")

    print(f"workload {workload}  seed {seed}  argv: {' '.join(argv_for(workload, seed))}")
    print(f"  verdict_fail_frac    {failed / attempted:.4f} ratio"
          f"  ({failed} of {attempted} invocations)")
    if trace:
        walls = [t["wall_s"] for t in twins]
        summaries = [summarize(t["spans"], t["wall_s"]) for t in twins]
        values = {k: median_or_none([s[k] for s in summaries]) for k in summaries[0]}
        values["trace_overhead"] = (
            statistics.median(walls) / statistics.median(p["wall_s"] for p in plain) - 1
        )
        for name in sorted(values):
            shown = "n/a" if values[name] is None else f"{values[name]:.6g}"
            print(f"  {name:44s} {shown}")
        print(f"  ({len(twins)} traced samples, medians)")
        wanted = spec["per_layer"]
    else:
        walls = [s["wall_s"] for s in plain]
        raw = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(s["cpu_s"] for s in plain),
            "setup_s": statistics.median(s["import_s"] for s in setup + plain),
            "calibration_s": statistics.median(s["calib_s"] for s in setup + plain),
            "calibration_cpu_s": statistics.median(s["calib_cpu_s"] for s in setup + plain),
        }
        values = {
            "wall_s": scaled_median("wall_s", plain),
            "cpu_s": scaled_median("cpu_s", plain, "calib_cpu_s"),
            "setup_s": scaled_median("import_s", setup + plain),
            "peak_rss_mb": statistics.median(s["maxrss_kb"] / 1024 for s in plain),
        }
        tail = tail_percentile(walls)
        tail_text = "none has 10 samples beyond it" if tail is None else (
            f"p{tail[0]:.0f} = {tail[1]:.4f} s unscaled")
        wanted = spec["end_to_end"]
        for m in wanted:
            unscaled = f"  (unscaled {raw[m['name']]:.4f})" if m["name"] in raw else ""
            print(f"  {m['name']:20s} {values[m['name']]:.4f} {m['unit']}{unscaled}")
        print(f"  (wall_s: median of {len(walls)} samples, highest percentile: {tail_text};"
              f" setup_s: median of {len(setup) + len(plain)} imports;"
              f" calibration {raw['calibration_s']:.5f} s against {CALIB_REF_S} s)")
        print("  unscaled " + json.dumps(raw))
    metrics = {}
    for m in wanted:
        if values.get(m["name"]) is None:
            raise BenchError(f"{workload}: metric {m['name']} has no value")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "tube_ncr" / "cli.py").is_file():
            raise BenchError(f"no tube_ncr sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {
            name: bench(name, args.seed, seconds, bool(args.trace), spec)
            for name in names
        }
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
