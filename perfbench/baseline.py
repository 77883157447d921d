"""Run the benchmark over many seeds and record the result as a baseline.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs ``run.py`` for every workload in BENCHMARK.json once per seed
1..10 with tracing off, then once traced (seed 1).  For every end-to-end
metric it records the per-run values, their median and quartiles, and
the spread: the distance between the quartiles as a share of the median;
next to them go each run's unscaled timings and calibration.  A spread at
or above a third of the metric's bound in BENCHMARK.json is printed as
UNSTEADY; a spread above the bound means two runs of the same code can
differ by more than the benchmark allows.  Machine metadata goes with
the numbers, since they only compare on the same machine.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        rev = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_rev": rev.stdout.strip() if rev and rev.returncode == 0 else None,
    }


def bench(workload: str, seed: int, trace: int) -> tuple:
    """The result JSON of one run.py run, and its unscaled timings."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    unscaled = next((json.loads(line.split(None, 1)[1]) for line in lines
                     if line.startswith("  unscaled ")), {})
    return json.loads(lines[-1]), unscaled


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the baseline JSON here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {"machine": machine(), "run_seconds": spec["run_seconds"],
              "seeds": list(SEEDS), "workloads": {}}
    steady = True
    for name in (w["name"] for w in spec["workloads"]):
        runs, unscaled = zip(*(bench(name, seed, 0) for seed in SEEDS))
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {},
                 "calibration_s": [u["calibration_s"] for u in unscaled]}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": median,
                "q1": q1, "q3": q3, "spread": spread, "bound": metric["bound"],
                "values": values,
            }
            if metric["name"] in unscaled[0]:
                entry["end_to_end"][metric["name"]]["unscaled_values"] = [
                    u[metric["name"]] for u in unscaled]
            flag = "" if spread < metric["bound"] / 3 else "  UNSTEADY"
            if spread > metric["bound"]:
                steady = False
            print(f"{name:12s} {metric['name']:12s} median {median:.4f}"
                  f" {metric['unit']}  spread {spread:.4f}  bound {metric['bound']}{flag}",
                  flush=True)
        traced, _ = bench(name, 1, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        result["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
