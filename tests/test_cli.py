"""End-to-end tests for the command line interface: exit codes, golden
reports, determinism, and the wiring of every command to its handler."""

import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tube_ncr.cli import (
    EXIT_FAILURE,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    CommandError,
    localization_exit_code,
    build_parser,
    main,
    parse_field,
    parse_polynomials,
)
from tube_ncr import cli, cohom, exactalg
from tube_ncr.exactalg import Field

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "golden"


def run_to_file(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main([*argv, "--output", str(out)])
    return code, out.read_bytes()


# -- plumbing --------------------------------------------------------------------


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


def test_unknown_group_exits_usage(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == EXIT_USAGE
    assert "error: argument group: invalid choice: 'bogus'" in capsys.readouterr().err


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


def test_algebra_contraction_has_no_convention_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["algebra", "contraction", "--n", "1", "--f", "x", "y",
              "--convention", "swapped"])
    assert err.value.code == EXIT_USAGE
    assert "--convention" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, vertex", [
    (["cohom", "truncated", "--n", "1", "--f", "x", "y", "--source", "nope"],
     "nope"),
    (["cohom", "truncated", "--quiver", "tube", "--n", "1", "--source", "L9"],
     "L9"),
    # An empty name is a vertex name like any other, not an absent one.
    (["cohom", "truncated", "--n", "1", "--f", "x", "y", "--source", "",
      "--len", "2", "--polydeg", "2"], ""),
    (["cohom", "truncated", "--n", "1", "--f", "x", "y", "--target", "",
      "--len", "2", "--polydeg", "2"], ""),
    (["algebra", "localize", "--n", "1", "--vertex", ""], ""),
])
def test_unknown_vertex_exits_usage(argv, vertex, capsys):
    assert main(argv) == EXIT_USAGE
    assert f"unknown vertex '{vertex}'" in capsys.readouterr().err


def test_degree_bound_zero_exits_usage(capsys):
    # An explicit bound is used as given, 0 included; only an absent one
    # falls back to the default for n.
    argv = ["toric", "sections", "--n", "2", "--index", "1", "--degree-bound", "0"]
    assert main(argv) == EXIT_USAGE
    assert "cannot see both generators" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["cohom", "truncated", "--n", "1", "--f", "x", "y", "--len", "-3"], "--len"),
    (["cohom", "sphere", "--polydeg", "-1"], "--polydeg"),
    (["cohom", "localization", "--max-degree", "-1"], "--max-degree"),
])
def test_negative_bound_exits_usage(argv, flag, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE
    assert f"argument {flag}: must be >= 0, got -" in capsys.readouterr().err


def test_failed_internal_check_is_not_reported_as_usage(monkeypatch, capsys):
    honest = exactalg.row_reduce

    def corrupted(rows, field):
        reduced, pivots = honest(rows, field)
        for row in reduced:
            for col in row:
                row[col] = field.add(row[col], field.one)
        return reduced, pivots

    monkeypatch.setattr(exactalg, "row_reduce", corrupted)
    code = main(["cohom", "contraction-h0", "--n", "2", "--f", "x", "x^2+y^3",
                 "y", "--len", "3", "--polydeg", "4", "--field", "f5"])
    assert code == EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


def test_unclosed_generator_exits_internal(monkeypatch, capsys):
    honest = cohom.kernel_basis

    def corrupted(rows, ncols, field):
        # Doubling the free coordinate adds that basis element to each
        # vector; here no such element is closed.
        return [{**vec, max(vec): field.add(vec[max(vec)], field.one)}
                for vec in honest(rows, ncols, field)]

    monkeypatch.setattr(cohom, "kernel_basis", corrupted)
    code = main(["cohom", "truncated", "--n", "1", "--f", "x", "y",
                 "--m", "2", "--len", "4", "--polydeg", "4"])
    assert code == EXIT_INTERNAL
    assert "is not closed" in capsys.readouterr().err


def test_tube_generator_list_is_frozen(tmp_path):
    # The 90 generators and their order as the reduced-form search
    # listed them; the pivot-column search must give the same list.
    argv = ["cohom", "truncated", "--quiver", "tube", "--n", "1", "--f", "x",
            "y", "--source", "L0", "--target", "L1", "--m", "0", "--len", "5",
            "--polydeg", "4"]
    code, produced = run_to_file(argv, tmp_path)
    assert code == EXIT_INCONCLUSIVE
    generators = json.loads(produced)["generators"]
    assert len(generators) == 90
    assert hashlib.sha256("\n".join(generators).encode()).hexdigest() == (
        "48e4d2e539978d8fc34de07133cb8f1355a75e8b6986476a9c9a67acbab1154d"
    )


def test_inconclusive_localization_exits_two(capsys):
    code = main(["cohom", "localization", "--max-degree", "1",
                 "--len", "1", "--polydeg", "2", "--f", "x", "x",
                 "--vars", "x", "y"])
    capsys.readouterr()
    assert code == EXIT_INCONCLUSIVE


def test_unsupported_manifest_check_exits_two(capsys):
    code = main(["verify", "all", "--n", "1", "--bound", "4"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == EXIT_INCONCLUSIVE
    assert len(checks) == 9
    unsupported = [c["name"] for c in checks if "unsupported" in c]
    assert unsupported == ["twcat.halftwist"]
    assert all(c["ok"] for c in checks if c["name"] != "twcat.halftwist")


def test_manifest_at_n_zero_runs_what_it_supports(capsys):
    code = main(["verify", "all", "--n", "0", "--bound", "4"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == EXIT_INCONCLUSIVE
    assert len(checks) == 9
    unsupported = [c["name"] for c in checks if "unsupported" in c]
    assert unsupported == ["arc.round_trips", "twcat.halftwist",
                           "toric.end_comparison"]
    assert all(c["ok"] for c in checks if c["name"] not in unsupported)


@pytest.mark.parametrize("where", ["directory", "missing parent", "file parent"])
def test_unwritable_output_exits_usage(where, tmp_path, capsys, monkeypatch):
    # Every case is found before the command runs.
    def never(args):
        raise AssertionError("the handler ran before --output was checked")

    monkeypatch.setattr(cli, "cmd_algebra_tube", never)
    (tmp_path / "plain").write_text("")
    out, reason = {
        "directory": (tmp_path, "Is a directory"),
        "missing parent": (tmp_path / "missing" / "out.json", "No such file or directory"),
        "file parent": (tmp_path / "plain" / "out.json", "Not a directory"),
    }[where]
    assert main(["algebra", "tube", "--n", "0", "--output", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"tube-ncr: error: cannot write {out}: {reason}\n"


def test_manifest_rejects_negative_n(capsys):
    assert main(["verify", "all", "--n", "-1", "--bound", "4"]) == EXIT_USAGE
    assert "n must be >= 0" in capsys.readouterr().err


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


def test_golden_report_under_python_optimize(tmp_path):
    # python -O strips assert statements; the checks must not depend on them.
    out = tmp_path / "out.json"
    for argv, golden, expected_code in GOLDEN_RUNS:
        run = subprocess.run(
            [sys.executable, "-O", "-m", "tube_ncr.cli", *argv, "--output", str(out)],
            capture_output=True,
            env=_src_env(),
            check=False,
        )
        assert run.returncode == expected_code, (golden, run.stderr)
        assert out.read_bytes() == (GOLDEN / golden).read_bytes(), golden
    # An entry check: d(c) = b*b*a has the endpoints and degree of c but
    # is not a composable word.
    build = (
        "from tube_ncr.exactalg import Field, PolyRing\n"
        "from tube_ncr.quivalg import Arrow, Path, Presentation, Quiver\n"
        "ring = PolyRing(Field.rationals(), ('t',))\n"
        "arrows = (Arrow('a', 'P', 'Q'), Arrow('b', 'Q', 'P'), Arrow('c', 'P', 'P', -1))\n"
        "image = [(ring.one(), Path(('b', 'b', 'a')))]\n"
        "try:\n"
        "    Presentation(Quiver(('P', 'Q'), arrows), ring, {}, {'c': image})\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    run = subprocess.run(
        [sys.executable, "-O", "-c", build],
        capture_output=True,
        text=True,
        env=_src_env(),
        check=False,
    )
    assert run.returncode == 0, run.stderr
    assert "non-composable" in run.stdout


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((REPO / "src" / "tube_ncr").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# Module-level imports that the module never reads, each with the reason
# it stays.
UNREAD_IMPORTS = {
    ("cohom.py", "row_reduce"): "perfbench's tracer rebinds cohom.row_reduce",
}


def _own_statements(scope):
    """The nodes of a module or function body, without nested functions."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def test_package_reads_every_import():
    # An import in a function body must be read in that function.
    found = set()
    for path in sorted((REPO / "src" / "tube_ncr").glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [tree] + [node for node in ast.walk(tree)
                           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            read = {node.id for node in ast.walk(scope)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for node in _own_statements(scope):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = (alias.asname or alias.name).split(".")[0]
                        if name not in read:
                            found.add((path.name, name))
    assert found == set(UNREAD_IMPORTS)


# Module-level functions and classes that no code in the package names,
# each with the reason it stays.
UNCALLED_DEFINITIONS = {
    ("quivalg.py", "graded_basis"): "acceptance criterion 1 reads it",
    ("quivalg.py", "tube_rank_closed_form"): "acceptance criterion 1 reads it",
    ("quivalg.py", "winding_element"): "acceptance criterion 3 reads it",
    ("exactalg.py", "solve_sparse"): "perfbench's tracer wraps it",
    ("exactalg.py", "truncated_solve"): "perfbench's tracer wraps it",
}


def test_package_calls_every_definition():
    defined, named = set(), set()
    for path in sorted((REPO / "src" / "tube_ncr").glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        named |= {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = {(filename, name) for filename, name in defined if name not in named}
    assert found == set(UNCALLED_DEFINITIONS)


# Methods of package classes that no code in the package names as an
# attribute, each with the reason it stays; Python calls the dunders.
UNCALLED_METHODS = {
    ("cohom.py", "H0Presentation.relation_holds"): "acceptance criterion 11 reads it",
    ("cli.py", "_Parser.error"): "argparse calls it",
    ("exactalg.py", "PolyRing.monomial"): "the tests build their scalars with it",
}


def test_package_calls_every_method():
    defined, named = set(), set()
    for path in sorted((REPO / "src" / "tube_ncr").glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {(path.name, name) for name, _ in _named_definitions(tree)
                    if "." in name and not name.endswith("__")}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    found = {(filename, name) for filename, name in defined
             if name.split(".")[1] not in named}
    assert found == set(UNCALLED_METHODS)


EMPTY_CONTAINER_CALLS = {"dict", "list", "set", "WeakKeyDictionary", "WeakValueDictionary"}


def _is_empty_container(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    if isinstance(node, ast.Call) and not node.args and not node.keywords:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in EMPTY_CONTAINER_CALLS
    return False


def test_no_module_level_cache():
    # A memo table belongs to the object whose values it keeps (as
    # ``Presentation._word_tables`` does), not to a module, where it
    # outlives its keys' owner and hides from the code that reads it.
    # Literal tables, such as ``twcat._MU2_COMMON``, are constants.
    found = []
    for path in sorted((REPO / "src" / "tube_ncr").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None \
                    and _is_empty_container(node.value):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# Functions that linearise or eliminate, and Poly's term loops, run on the
# per-field inner loops, never on Field.add/sub/mul/neg/inv/div per entry.
LOOP_FUNCTIONS = {
    "exactalg.py": {"Echelon", "row_reduce", "_cancel_prime",
                    "_cancel_rational", "kernel_basis", "CellIndex", "linear_rows",
                    "_read_solutions", "bounded_members", "truncated_solve", "Poly"},
    "cohom.py": {"_window_blocks", "_bounded_ranks"},
}
FIELD_OPS = {"add", "sub", "mul", "neg", "inv", "div"}


def _named_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_elimination_and_linearisation_make_no_field_calls():
    found, seen = [], set()
    for filename, names in LOOP_FUNCTIONS.items():
        tree = ast.parse((REPO / "src" / "tube_ncr" / filename).read_text())
        for name, definition in _named_definitions(tree):
            if name not in names:
                continue
            seen.add(name)
            for node in ast.walk(definition):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in FIELD_OPS
                        and ast.unparse(node.func.value).endswith("field")):
                    found.append(f"{filename}:{node.lineno} in {name}")
    assert found == []
    assert seen == set().union(*LOOP_FUNCTIONS.values())


def test_true_division_only_inverts_a_rational():
    # Scalars are ints where they are integral, so a "/" anywhere else
    # would make a float.
    found = []
    for path in sorted((REPO / "src" / "tube_ncr").glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "exactalg.py":
            allowed = {id(node) for name, definition in _named_definitions(tree)
                       if name == "Field.inv" for node in ast.walk(definition)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Div) and id(node) not in allowed):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


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


def _leaf_commands(parser, path=()):
    """(argv prefix, parser) of every command that takes no subcommand."""
    subparsers = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, parser
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _leaf_commands(child, (*path, name))


def test_every_command_has_a_handler_and_help(capsys):
    leaves = list(_leaf_commands(build_parser()))
    assert len(leaves) == 16
    for path, parser in leaves:
        assert callable(parser.get_default("handler")), path
        with pytest.raises(SystemExit) as err:
            main([*path, "--help"])
        assert err.value.code == 0, path
        assert capsys.readouterr().out.startswith("usage: tube-ncr " + " ".join(path))


def _outcome(argv, capsys):
    """Exit code, stdout and stderr of ``main(argv)``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parity_argvs():
    argvs = [[], ["-h"], ["bogus"], ["cohom"], ["cohom", "-h"], ["cohom", "bogus"],
             ["verify"], ["algebra", "tube", "--n", "1", "--f", "-3*x", "y"]]
    for path, parser in _leaf_commands(build_parser()):
        required = [word for action in parser._actions if action.required
                    for word in (action.option_strings[0], "1")]
        # With its required flags given, an extra positional reaches the
        # root parser's "unrecognized arguments" error.
        argvs += [[*path, "--help"], [*path, "--bogus"], [*path, "extra", *required]]
    return argvs


@pytest.mark.parametrize("argv", _parity_argvs(), ids=lambda argv: " ".join(argv) or "-")
def test_pruned_parser_prints_what_the_full_tree_prints(argv, monkeypatch, capsys):
    pruned = _outcome(argv, capsys)
    if "extra" in argv:
        assert "tube-ncr: error: unrecognized arguments: extra" in pruned[2]
    full_tree = build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full_tree())
    assert _outcome(argv, capsys) == pruned


def test_a_named_command_builds_only_its_own_parsers(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    assert main(["algebra", "tube", "--n", "0"]) == EXIT_OK
    capsys.readouterr()
    assert built == ["tube-ncr", "tube-ncr algebra", "tube-ncr algebra tube"]
    built.clear()
    build_parser()
    assert len(built) == 23


# The argv lists of test_documented_invocations_pass are golden argv lists.
@pytest.mark.parametrize("argv", [argv for argv, _, _ in GOLDEN_RUNS],
                         ids=[g for _, g, _ in GOLDEN_RUNS])
def test_pruned_parser_reads_an_argv_as_the_full_tree_does(argv):
    pruned = build_parser(argv)
    assert len(list(_leaf_commands(pruned))) == 1
    assert vars(pruned.parse_args(argv)) == vars(build_parser().parse_args(argv))


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


# One argv per leaf command of the arc, twcat and toric groups, whose
# handlers import their modules when called: a name a handler forgets to
# import fails only when it runs.
SIDE_CHECK_RUNS = [
    ["arc", "annulus", "--n", "2"],
    ["arc", "disc", "--n", "2"],
    ["arc", "compare", "--n", "2", "--surface", "disc"],
    ["twcat", "verify-halftwist", "--n", "2"],
    ["toric", "sections", "--n", "2", "--index", "1"],
    ["toric", "wedge", "--n", "2"],
    ["toric", "end", "--n", "1", "--bound", "4"],
    ["toric", "base-change", "--n", "1", "--f", "x", "y", "--bound", "4"],
]


@pytest.mark.parametrize("argv", SIDE_CHECK_RUNS, ids=" ".join)
def test_every_side_check_command_runs(argv, capsys):
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), env.get("PYTHONPATH", "")]
    )
    return env


def test_module_entry_point_runs():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "tube_ncr.cli", "algebra", "tube", "--n", "0"],
            capture_output=True,
            env=_src_env(),
            check=False,
        )
        for _ in range(2)
    ]
    assert all(r.returncode == EXIT_OK for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["vertices"] == ["L0"]


SIDE_CHECK_MODULES = {"tube_ncr.arcmodel", "tube_ncr.toric", "tube_ncr.twcat"}

# Runs main(argv) for each argv of sys.argv[1] in this interpreter, with
# the usage and help output swallowed, then prints the exit codes and the
# package modules loaded.
LOADED_MODULES_SCRIPT = """
import contextlib, io, json, sys
from tube_ncr.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("tube_ncr."))]))
"""


def _codes_and_modules(argvs):
    """Exit codes of ``argvs`` run in one fresh interpreter, and the
    package modules it has loaded afterwards."""
    run = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES_SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=_src_env(), check=False,
    )
    assert run.returncode == 0, run.stderr
    codes, modules = json.loads(run.stdout)
    return codes, set(modules)


def _golden_argv(golden):
    return next(argv for argv, name, _ in GOLDEN_RUNS if name == golden)


def test_cohom_run_leaves_side_check_modules_unloaded(tmp_path):
    out = tmp_path / "out.json"
    argv = [*_golden_argv("contraction_h0_n2.json"), "--output", str(out)]
    codes, modules = _codes_and_modules([["--help"], argv])
    assert codes == [0, EXIT_OK]
    assert out.read_bytes() == (GOLDEN / "contraction_h0_n2.json").read_bytes()
    assert "tube_ncr.cohom" in modules
    assert not modules & SIDE_CHECK_MODULES


def test_verify_all_loads_side_check_modules(tmp_path):
    out = tmp_path / "out.json"
    argv = [*_golden_argv("verify_all_n2.json"), "--output", str(out)]
    codes, modules = _codes_and_modules([argv])
    assert codes == [EXIT_OK]
    assert out.read_bytes() == (GOLDEN / "verify_all_n2.json").read_bytes()
    assert SIDE_CHECK_MODULES <= modules
