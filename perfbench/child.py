"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 perfbench/child.py ROOT '{"argv": [...], "trace": PATH}'

Times a fixed calibration computation, ``import tube_ncr.cli`` from
``ROOT/src`` and one ``main(argv)`` call, in process with stdout
captured.  ``"argv": null`` stops after the import (a set-up sample).
With a ``"trace"`` path the call runs under ``Tracer`` and the spans are
written there as JSON lines.  Prints one JSON object: calib_s and
calib_cpu_s (wall and CPU time of the calibration), import_s, wall_s,
cpu_s, maxrss_kb, code, report and error.  A call that raises
has code null, the report printed so far and the error; ``run.py``
counts it as a failed invocation.

Only ``sys`` and ``time`` are imported before the timed import, so that
it pays for every module ``tube_ncr.cli`` needs, as a CLI start does.
"""

import sys
from time import perf_counter, process_time


def calibration(repeats: int = 3, n: int = 130, p: int = 32003) -> tuple:
    """Wall and CPU seconds for a fixed piece of pure-Python exact arithmetic.

    ``repeats`` row reductions of one fixed sparse n x n matrix over F_p,
    on builtins only, ~0.1 s in all: the same kind of interpreter-bound
    work the program does.  It runs before the program is imported, so
    nothing the program does or leaves behind can reach it.  ``run.py``
    divides by it to take the host's speed drift out of the timings.
    """
    wall, cpu = perf_counter(), process_time()
    for _ in range(repeats):
        state = 2023
        rows = []
        for _ in range(n):
            row = {}
            for _ in range(5):
                state = (state * 1103515245 + 12345) % 2147483648
                row[state % n] = state % (p - 1) + 1
            rows.append(row)
        reduced, pivots = [], {}
        for row in rows:
            while row and min(row) in pivots:
                lead = min(row)
                other = reduced[pivots[lead]]
                factor = row[lead] * pow(other[lead], -1, p) % p
                for col, val in other.items():
                    s = (row.get(col, 0) - factor * val) % p
                    if s:
                        row[col] = s
                    else:
                        row.pop(col, None)
            if row:
                pivots[min(row)] = len(reduced)
                reduced.append(row)
    return perf_counter() - wall, process_time() - cpu


def main() -> int:
    calib_s, calib_cpu_s = calibration()
    src = sys.argv[1].rstrip("/") + "/src"
    sys.path.insert(0, src)
    start = perf_counter()
    import tube_ncr.cli as cli
    import_s = perf_counter() - start

    import io
    import json
    import resource
    import traceback
    from contextlib import nullcontext, redirect_stdout
    from pathlib import Path

    if Path(cli.__file__).resolve().parent.parent != Path(src).resolve():
        sys.stderr.write(f"child: imported {cli.__file__}, not the copy in {src}\n")
        return 3
    spec = json.loads(sys.argv[2])
    result = {"calib_s": calib_s, "calib_cpu_s": calib_cpu_s, "import_s": import_s}
    if spec["argv"] is not None:
        tracing = nullcontext()
        if spec.get("trace"):
            from tracer import Tracer

            tracing = Tracer()
        captured = io.StringIO()
        with tracing, redirect_stdout(captured):
            error = None
            usage = resource.getrusage(resource.RUSAGE_SELF)
            start = perf_counter()
            try:
                code = cli.main(spec["argv"])
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
            except Exception:  # a defect of the program: a failed invocation
                code, error = None, traceback.format_exc()
            wall_s = perf_counter() - start
            end = resource.getrusage(resource.RUSAGE_SELF)
        if spec.get("trace"):
            tracing.write(spec["trace"])
        result.update(
            wall_s=wall_s,
            cpu_s=(end.ru_utime + end.ru_stime) - (usage.ru_utime + usage.ru_stime),
            maxrss_kb=end.ru_maxrss,
            code=code,
            report=captured.getvalue(),
            error=error,
        )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
