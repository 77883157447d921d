"""Tests of the benchmark itself.

Tracing must not change a single report byte, the golden argv lists must
still produce their golden reports, and every workload's verdict must
match the reference for two seeds.  About 40 s, most of it the workloads.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib.util
import io
import json
import shutil
import subprocess
import sys
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tube_ncr import cli, cohom, exactalg  # noqa: E402
import tracer as tracer_module  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, argv_for, coefficients, reference, verdict  # noqa: E402


def _golden_runs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_golden_runs", ROOT / "tests" / "test_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GOLDEN_RUNS


GOLDEN_RUNS = _golden_runs()


def run(argv, traced=False):
    """(exit code, report, spans) of one in-process CLI call."""
    out = io.StringIO()
    tracer = Tracer() if traced else nullcontext()
    with tracer, redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), tracer.spans if traced else None


@pytest.mark.parametrize(
    "argv,golden,expected_code", GOLDEN_RUNS, ids=[g for _, g, _ in GOLDEN_RUNS])
def test_tracing_keeps_golden_reports(argv, golden, expected_code):
    code, plain, _ = run(argv)
    traced_code, traced, spans = run(argv, traced=True)
    assert code == traced_code == expected_code
    assert plain == traced == (ROOT / "golden" / golden).read_text()
    assert [s[2] for s in spans if s[1] is None] == ["cli.main"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_verdicts_and_tracing(workload):
    ref = reference()[workload]
    argv = argv_for(workload, 1)
    code, plain, _ = run(argv)
    traced_code, traced, spans = run(argv, traced=True)
    assert traced == plain
    assert verdict(workload, code, plain) == ref
    assert verdict(workload, traced_code, traced) == ref
    other = argv_for(workload, 2)
    if other != argv:
        code, report, _ = run(other)
        assert verdict(workload, code, report) == ref


def test_tracer_rebinds_imported_names_and_restores():
    original = exactalg.row_reduce
    with Tracer():
        assert cohom.row_reduce is exactalg.row_reduce is not original
        assert exactalg.Poly.__mul__.__wrapped__ is not None
    assert cohom.row_reduce is exactalg.row_reduce is original
    assert not hasattr(exactalg.Poly.__mul__, "__wrapped__")


def test_self_time_excludes_children_and_wrapping():
    spans = [
        {"id": 0, "parent": None, "name": "cli.main", "start": 0.0, "end": 10.0,
         "wrap_s": 0.0},
        {"id": 1, "parent": 0, "name": "exactalg.row_reduce", "start": 1.0,
         "end": 4.0, "wrap_s": 0.5, "rows": 4, "nnz": 9, "cols": 5, "rank": 2},
        {"id": 2, "parent": 1, "name": "exactalg.Poly.mul", "start": 2.0,
         "end": 3.0, "wrap_s": 0.0},
    ]
    out = summarize(spans, 10.0)
    assert out["cli.main.self_s"] == 6.5
    assert out["exactalg.row_reduce.self_s"] == 2.0
    assert out["exactalg.row_reduce.rank_per_row"] == 0.5
    assert out["elim_share"] == 0.2
    assert out["exactalg.solve_sparse.consistent_frac"] is None


def test_seed_gives_positive_coefficients():
    assert coefficients(7) == coefficients(7)
    assert all(1 <= c <= 9 for s in range(50) for c in coefficients(s).values())
    assert argv_for("loc-q", 1) != argv_for("loc-q", 2)
    assert argv_for("manifest", 1) == argv_for("manifest", 2)


def test_tracer_fails_on_a_missing_target(monkeypatch):
    original = exactalg.row_reduce
    monkeypatch.setattr(tracer_module, "TARGETS", tracer_module.TARGETS + (
        ("exactalg.gone", "tube_ncr.exactalg", "no_such_function", None),))
    with pytest.raises(LookupError):
        with Tracer():
            pass
    assert cohom.row_reduce is exactalg.row_reduce is original


def _bench_tree(tmp_path, cli_source=None):
    """A copy of the benchmark in ``tmp_path``, with ``cli_source`` as the
    whole program when given."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if cli_source is not None:
        package = tmp_path / "src" / "tube_ncr"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(cli_source)
    return tmp_path


def _run_bench(tree, trace=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "h0-fp", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=120)


def test_fails_without_the_program(tmp_path):
    proc = _run_bench(_bench_tree(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


RAISING_CLI = """
def main(argv):
    print('{"closure": ')
    raise RuntimeError("defect")
"""


def test_a_raising_program_counts_as_failed(tmp_path):
    proc = _run_bench(_bench_tree(tmp_path, RAISING_CLI))
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "RuntimeError: defect" in proc.stderr


def test_untraceable_program_gives_no_result(tmp_path):
    proc = _run_bench(_bench_tree(tmp_path, RAISING_CLI), trace=1)
    assert proc.returncode == 2
    assert proc.stdout == ""
