"""The benchmark's workloads: argv templates, seeded inputs and verdicts.

A seed draws the coefficients ``a..f``; the program only ever sees the
resulting argv.  The coefficients stay in 1..9 because the CLI reads a
leading ``-`` in an ``--f`` value (``-7*x``) as a flag and exits 64.
Rescaling variables gives isomorphic algebras, so every verdict field
below is the same for every seed and is checked against one reference.
"""

import hashlib
import json
import random
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# name -> argv template; why each one is here is in BENCHMARK.json and
# README.md.  "manifest" has no placeholder: it takes no seed.
WORKLOADS = {
    "loc-q": "cohom localization --max-degree 3 --len 3 --polydeg 4 --f {a}*x {b}*y",
    "loc-nonmono": (
        "cohom localization --max-degree 3 --len 2 --polydeg 4 "
        "--f {a}*x^2+{b}*y^3 {c}*y"
    ),
    "h0-fp": (
        "cohom contraction-h0 --n 3 --f {a}*x {b}*x^2+{c}*y^3 {d}*y {e}*x+{f}*y "
        "--len 6 --polydeg 10 --field f32003"
    ),
    "manifest": "verify all --n 3 --field q --bound 12",
}


def coefficients(seed: int) -> dict:
    """Positive coefficients a..f in 1..9, a pure function of the seed."""
    rng = random.Random(seed)
    return {name: rng.randint(1, 9) for name in "abcdef"}


def argv_for(workload: str, seed: int) -> list:
    coef = coefficients(seed)
    return [word.format(**coef) for word in WORKLOADS[workload].split()]


def verdict(workload: str, code: int, report: str) -> dict:
    """The fields of one run that must match the reference."""
    if workload == "manifest":
        return {"exit": code, "sha256": hashlib.sha256(report.encode()).hexdigest()}
    try:
        data = json.loads(report)
    except json.JSONDecodeError:
        return {"exit": code, "report": None}
    if workload == "h0-fp":
        closure = data["closure"]
        return {
            "exit": code,
            "closure_ok": closure["ok"],
            "closure_checked": closure["checked"],
            "generators": data["generators"],
        }
    return {
        "exit": code,
        "ok": data["ok"],
        "rows": [
            [row["degree"], row["contraction_rank"], row["localized_rank"],
             row["contraction_status"], row["localized_status"]]
            for row in data["rows"]
        ],
    }


def reference() -> dict:
    return json.loads(REFERENCE.read_text())
