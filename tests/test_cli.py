"""End-to-end tests for the command line interface: exit codes, golden
reports, determinism, and the config round trip."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tube_ncr.cli import (
    EXIT_FAILURE,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    CommandError,
    RunConfig,
    localization_exit_code,
    main,
    parse_field,
    parse_polynomials,
)
from tube_ncr.exactalg import Field

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "golden"


def run_to_file(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main([*argv, "--output", str(out)])
    return code, out.read_bytes()


# -- plumbing --------------------------------------------------------------------


def test_run_config_round_trip():
    cfg = RunConfig(
        command=["cohom", "truncated"],
        field="f5",
        n=2,
        f=["x", "x^2+y^3", "y"],
        variables=["x", "y"],
        bounds={"length": 6, "polydeg": 8},
        options={"m": 2, "quiver": "contraction"},
        output="report.json",
        format="json",
    )
    assert RunConfig.from_json(cfg.to_json()) == cfg
    # and the JSON itself survives a serialisation cycle
    assert json.loads(json.dumps(cfg.to_json())) == cfg.to_json()


def test_parse_field():
    assert parse_field("q") == Field.rationals()
    assert parse_field("Q") == Field.rationals()
    assert parse_field("f5") == Field.prime(5)
    assert parse_field("F2") == Field.prime(2)
    with pytest.raises(CommandError, match="unknown field"):
        parse_field("z7")


def test_parse_polynomials_infers_sorted_variables():
    ring, polys = parse_polynomials(Field.rationals(), ["y^2", "x*y - 1"], None)
    assert ring.names == ("x", "y")
    assert [p.to_text() for p in polys] == ["y^2", "x*y - 1"]
    explicit, _ = parse_polynomials(Field.rationals(), ["y"], ["y", "x"])
    assert explicit.names == ("y", "x")


def test_localization_exit_code_branches():
    stable = {"contraction_status": "stable", "localized_status": "stable"}
    fuzzy = {"contraction_status": "inconclusive_at_bound",
             "localized_status": "stable"}
    assert localization_exit_code(True, [stable]) == EXIT_OK
    assert localization_exit_code(False, [stable]) == EXIT_FAILURE
    assert localization_exit_code(False, [stable, fuzzy]) == EXIT_INCONCLUSIVE


# -- exit codes ------------------------------------------------------------------


def test_unknown_group_exits_usage():
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == EXIT_USAGE


def test_missing_required_flag_exits_usage():
    with pytest.raises(SystemExit) as err:
        main(["algebra", "tube"])
    assert err.value.code == EXIT_USAGE


def test_bad_polynomial_reports_usage(capsys):
    code = main(["cohom", "contraction-h0", "--n", "2",
                 "--f", "x", "x^2+(y)", "y"])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_wrong_scalar_count_reports_usage(capsys):
    code = main(["algebra", "contraction", "--n", "2", "--f", "x", "y"])
    assert code == EXIT_USAGE
    assert "3 scalar polynomials" in capsys.readouterr().err


def test_leading_minus_in_polynomial_is_a_value(capsys):
    argv = ["cohom", "localization", "--max-degree", "2", "--len", "2",
            "--polydeg", "4", "--f"]
    assert main([*argv, "-3*x", "2*y"]) == EXIT_OK
    negated = json.loads(capsys.readouterr().out)
    assert main([*argv, "3*x", "2*y"]) == EXIT_OK
    positive = json.loads(capsys.readouterr().out)
    assert negated["rows"] == positive["rows"]
    assert negated["f"] == ["-3*x", "2*y"]


@pytest.mark.parametrize("argv", [
    ["cohom", "localization", "--f"],
    ["cohom", "localization", "--bogus"],
    ["algebra", "tube", "--n", "2", "-x"],
    ["-x", "algebra", "tube", "--n", "2"],
])
def test_malformed_flags_still_exit_usage(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE


@pytest.mark.parametrize("typo", ["-max-degree", "-len", "-vars=x,y"])
def test_single_dash_long_flag_after_polynomials_is_named(typo, capsys):
    argv = ["cohom", "localization", "--f", "x", "y", typo, "3"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE
    assert typo in capsys.readouterr().err


def test_inconclusive_localization_exits_two(capsys):
    code = main(["cohom", "localization", "--max-degree", "1",
                 "--len", "1", "--polydeg", "2", "--f", "x", "x",
                 "--vars", "x", "y"])
    capsys.readouterr()
    assert code == EXIT_INCONCLUSIVE


# -- golden reports --------------------------------------------------------------

GOLDEN_RUNS = [
    (["cohom", "sphere", "--field", "f5"], "sphere_f5.json", EXIT_OK),
    (
        ["cohom", "contraction-h0", "--n", "2", "--f", "x", "x^2+y^3", "y"],
        "contraction_h0_n2.json",
        EXIT_OK,
    ),
    (
        ["verify", "all", "--n", "2", "--field", "q", "--bound", "8"],
        "verify_all_n2.json",
        EXIT_OK,
    ),
    (["algebra", "tube", "--n", "1"], "tube_n1.json", EXIT_OK),
    (["arc", "annulus", "--n", "2"], "annulus_n2.json", EXIT_OK),
    (
        ["cohom", "truncated", "--n", "1", "--f", "x", "y",
         "--m", "2", "--len", "4", "--polydeg", "4"],
        "conifold_m2.json",
        EXIT_OK,
    ),
    (
        ["cohom", "localization", "--max-degree", "2",
         "--len", "2", "--polydeg", "4"],
        "localization_small.json",
        EXIT_OK,
    ),
]


@pytest.mark.parametrize(
    "argv,golden,expected_code",
    GOLDEN_RUNS,
    ids=[g for _, g, _ in GOLDEN_RUNS],
)
def test_golden_report(argv, golden, expected_code, tmp_path):
    code, produced = run_to_file(argv, tmp_path)
    assert code == expected_code
    assert produced == (GOLDEN / golden).read_bytes()


def test_reports_are_deterministic(tmp_path):
    argv = ["verify", "all", "--n", "2", "--field", "q", "--bound", "8"]
    _, first = run_to_file(argv, tmp_path, "a.json")
    _, second = run_to_file(argv, tmp_path, "b.json")
    assert first == second


def test_documented_invocations_pass(capsys):
    assert main(["verify", "all", "--n", "2", "--field", "q", "--bound", "8"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert [c["name"] for c in report["checks"]] == [
        "algebra.rewriting_confluent",
        "arc.round_trips",
        "twcat.halftwist",
        "toric.end_comparison",
        "toric.wedge",
        "toric.base_change",
        "cohom.sphere",
        "cohom.pagoda_characteristic",
        "cohom.localization",
    ]

    assert main(["cohom", "sphere", "--field", "f5"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["dims"] == {"-2": 0, "-1": 0, "0": 1, "1": 0, "2": 0, "3": 1}

    assert main(["cohom", "contraction-h0", "--n", "2",
                 "--f", "x", "x^2+y^3", "y"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["relations"] == ["x*e[1]", "y*e[2]"]
    assert report["generators"] == ["a1", "b1"]


# -- formats and wiring ----------------------------------------------------------


def test_text_format_is_flat(capsys):
    assert main(["cohom", "sphere", "--format", "text"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "status: stable" in out
    assert "{" not in out
    assert out.endswith("\n")


def test_arc_compare_both_surfaces(capsys):
    for surface in ("annulus", "disc"):
        assert main(["arc", "compare", "--n", "2", "--surface", surface]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["matches"] is True


def test_module_entry_point_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), env.get("PYTHONPATH", "")]
    )
    runs = [
        subprocess.run(
            [sys.executable, "-m", "tube_ncr.cli", "algebra", "tube", "--n", "0"],
            capture_output=True,
            env=env,
            check=False,
        )
        for _ in range(2)
    ]
    assert all(r.returncode == EXIT_OK for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["vertices"] == ["L0"]
