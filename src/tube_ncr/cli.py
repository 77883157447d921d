"""Batch command line interface: constructors, verifications, reports.

Every command prints one deterministic report (JSON by default, sorted
keys, two-space indent, trailing newline) to stdout or ``--output``.
Exit codes follow the verification verdict: 0 when every requested
check passes conclusively, 2 when something is inconclusive at the
chosen bounds or a ``verify all`` check does not support the given n
(each manifest entry names the least n it supports; below it the entry
reads ``"unsupported"`` and is not run), 1 on an actual failure, 64 on
malformed input, 70 when an internal consistency check fails (a bug,
not bad input).

The commands are declared once, in the table ``COMMANDS``: group,
command, help, and a function that adds the command's arguments and
names its handler (``set_defaults``).  The handler reads the parsed
``argparse.Namespace`` and returns the report and exit code, so every
default is stated once, in its ``add_argument``.  ``build_parser(argv)``
builds only the group and command that ``argv[:2]`` names, and the whole
tree when it names none, so help and usage errors read the same.

Importing this module loads ``exactalg``, ``quivalg``, ``cohom`` and
``unitpairs``.  The handlers of the ``arc``, ``twcat``, ``toric`` and
``verify`` commands import ``arcmodel``, ``toric`` and ``twcat`` when
they run, so no ``algebra`` or ``cohom`` run loads them.

Polynomials on the command line use a small grammar with no
parentheses::

    expr   = ["-"] term { ("+" | "-") term }
    term   = factor { "*" factor }
    factor = base [ "^" integer ]
    base   = integer | variable

Variables default to the identifiers appearing in the polynomial texts,
sorted alphabetically; pass ``--vars`` to fix a different order (the
order is what exponent vectors and JSON dumps refer to).
"""

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .cohom import (
    char2_pagoda_check,
    h0_presentation,
    localization_consistency,
    sphere_complex,
    truncated_cohomology,
)
from .exactalg import IDENT_RE, Field, InternalError, PolyParseError, PolyRing
from .quivalg import (
    contraction_quiver,
    contraction_vertex,
    drinfeld_localize,
    relabel_presentation,
    same_presentation,
    tube_algebra,
    tube_vertex,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class CommandError(ValueError):
    """Malformed input discovered after argument parsing."""


def nonnegative_int(text: str) -> int:
    """argparse type of the truncation bounds."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def parse_field(text: str) -> Field:
    """"q" for the rationals, "f<p>" for the prime field F_p."""
    t = text.strip().lower()
    if t == "q":
        return Field.rationals()
    if t.startswith("f") and t[1:].isdigit():
        return Field.prime(int(t[1:]))
    raise CommandError(f"unknown field {text!r}; use q or f<prime>")


def parse_polynomials(
    field: Field, texts: Sequence[str], variables: Optional[Sequence[str]]
) -> tuple[PolyRing, list]:
    if variables is None:
        names = sorted({m.group(0) for t in texts for m in IDENT_RE.finditer(t)})
    else:
        names = list(variables)
    ring = PolyRing(field, tuple(names))
    return ring, [ring.parse(t) for t in texts]


def generic_tube_ring(field: Field, n: int) -> PolyRing:
    return PolyRing(field, tuple(f"t{i}" for i in range(n + 1)))


def tube_from_args(args: argparse.Namespace, field: Field):
    """The tube algebra on the scalars --f, or on the generic t0..tn."""
    if args.f is None:
        return tube_algebra(args.n, generic_tube_ring(field, args.n))
    ring, f = parse_polynomials(field, args.f, args.variables)
    return tube_algebra(args.n, ring, tuple(f))


# ---------------------------------------------------------------------------
# Commands.  Each reads the parsed arguments and returns (report, exit code).
# ---------------------------------------------------------------------------


def cmd_algebra_tube(args):
    return tube_from_args(args, parse_field(args.field)).to_json(), EXIT_OK


def cmd_algebra_contraction(args):
    ring, f = parse_polynomials(parse_field(args.field), args.f, args.variables)
    pres = contraction_quiver(args.n, ring, f)
    return pres.to_json(), EXIT_OK


def cmd_algebra_localize(args):
    pres = tube_from_args(args, parse_field(args.field))
    vertex = tube_vertex(0) if args.vertex is None else args.vertex
    return drinfeld_localize(pres, vertex).to_json(), EXIT_OK


def cmd_arc_annulus(args):
    from .arcmodel import annulus
    return annulus(args.n).to_json(), EXIT_OK


def cmd_arc_disc(args):
    from .arcmodel import disc
    return disc(args.n).to_json(), EXIT_OK


def arc_compare(field_text: str, n: int, surface: str) -> dict:
    """Round trip: the boundary-path presentation of the standard arc
    systems must reproduce the algebra constructors on the nose."""
    from .arcmodel import annulus, disc, generate_presentation
    field = parse_field(field_text)
    ring = generic_tube_ring(field, n)
    if surface == "annulus":
        generated = generate_presentation(annulus(n), field).presentation
        expected = tube_algebra(n, ring)
    else:
        generated = relabel_presentation(
            generate_presentation(disc(n), field).presentation,
            {f"L{i}": contraction_vertex(i) for i in range(1, n + 1)},
        )
        expected = contraction_quiver(n, ring, list(ring.gens()))
    matches = same_presentation(generated, expected)
    return {"surface": surface, "n": n, "field": field_text, "matches": matches}


def cmd_arc_compare(args):
    report = arc_compare(args.field, args.n, args.surface)
    return report, EXIT_OK if report["matches"] else EXIT_FAILURE


def cmd_twcat_verify_halftwist(args):
    from .twcat import verify_halftwist
    rep = verify_halftwist(args.n)
    return rep.to_json(), EXIT_OK if rep.ok else EXIT_FAILURE


def cmd_toric_sections(args):
    from .toric import default_degree_bound, section_basis
    bound = args.degree_bound
    if bound is None:
        bound = default_degree_bound(args.n)
    return section_basis(args.index, args.n, bound).to_json(), EXIT_OK


def cmd_toric_wedge(args):
    from .toric import wedge_nonvanishing
    rep = wedge_nonvanishing(args.n)
    return rep, EXIT_OK if rep["holds"] else EXIT_FAILURE


def cmd_toric_end(args):
    from .toric import end_algebra
    rep = end_algebra(args.n, args.bound)
    return rep.to_json(), EXIT_OK if rep.ok else EXIT_FAILURE


def cmd_toric_base_change(args):
    from .toric import base_change_end
    ring, f = parse_polynomials(parse_field(args.field), args.f, args.variables)
    rep = base_change_end(args.n, f, args.bound)
    return rep.to_json(), EXIT_OK if rep.ok else EXIT_FAILURE


def cmd_cohom_sphere(args):
    rep = sphere_complex(parse_field(args.field)).cohomology(args.polydeg)
    return rep.to_json(), EXIT_OK if rep.status == "stable" else EXIT_INCONCLUSIVE


def cmd_cohom_contraction_h0(args):
    ring, f = parse_polynomials(parse_field(args.field), args.f, args.variables)
    h0 = h0_presentation(contraction_quiver(args.n, ring, f), args.length)
    closure = h0.closure_check(args.polydeg)
    report = h0.to_json()
    report["closure"] = closure
    return report, EXIT_OK if closure["ok"] else EXIT_FAILURE


def cmd_cohom_truncated(args):
    field = parse_field(args.field)
    if args.quiver == "contraction":
        if args.f is None:
            raise CommandError("--f is required for the contraction quiver")
        ring, f = parse_polynomials(field, args.f, args.variables)
        pres = contraction_quiver(args.n, ring, f)
        default_vertex = contraction_vertex(1)
    else:
        pres = tube_from_args(args, field)
        if args.quiver == "localized":
            pres = drinfeld_localize(pres, tube_vertex(0))
            default_vertex = tube_vertex(1 if args.n >= 1 else 0)
        else:
            default_vertex = tube_vertex(0)
    rep = truncated_cohomology(
        pres,
        default_vertex if args.source is None else args.source,
        default_vertex if args.target is None else args.target,
        args.m,
        length_bound=args.length,
        poly_bound=args.polydeg,
    )
    return rep.to_json(), EXIT_OK if rep.status == "stable" else EXIT_INCONCLUSIVE


def cmd_cohom_localization(args):
    texts = args.f if args.f is not None else ["x", "y"]
    ring, f = parse_polynomials(parse_field(args.field), texts, args.variables)
    rep = localization_consistency(
        tuple(f),
        max_degree=args.max_degree,
        length_bound=args.length,
        poly_bound=args.polydeg,
    )
    return rep.to_json(), localization_exit_code(rep.ok, rep.rows)


def localization_exit_code(ok: bool, rows: Sequence[dict]) -> int:
    """Stable disagreement is a failure; anything unstable is merely
    inconclusive, whatever the ranks say."""
    if ok:
        return EXIT_OK
    if any(
        row["contraction_status"] != "stable" or row["localized_status"] != "stable"
        for row in rows
    ):
        return EXIT_INCONCLUSIVE
    return EXIT_FAILURE


# -- verify all -----------------------------------------------------------------

DISC_UNSUPPORTED = "the disc needs n >= 1: excising the last arc empties it"
END_UNSUPPORTED = "the toric comparison needs n >= 1"


def _verify_manifest(field_text: str, n: int, bound: int) -> list:
    """Ordered suite behind ``verify all``: name, least n it supports, why
    not below that, runner.  A negative n is rejected here, by the tube."""
    from .toric import base_change_end, end_algebra, wedge_nonvanishing
    from .twcat import HALFTWIST_MIN_N, HALFTWIST_UNSUPPORTED, verify_halftwist
    field = parse_field(field_text)
    ring = generic_tube_ring(field, n)
    tube = tube_algebra(n, ring)
    tring = PolyRing(field, ("t",))
    t = tring.gen("t")
    xyring = PolyRing(field, ("x", "y"))
    x, y = xyring.gen("x"), xyring.gen("y")

    def rewriting_confluent():
        gamma = contraction_quiver(n, ring, list(ring.gens())) if n >= 1 else None
        ok = tube.confluence.confluent and (
            gamma is None or gamma.confluence.confluent
        )
        return {
            "ok": ok,
            "tube_critical_pairs": tube.confluence.critical_pairs_checked,
        }

    def arc_round_trips():
        ann = arc_compare(field_text, n, "annulus")
        dsc = arc_compare(field_text, n, "disc")
        return {"ok": ann["matches"] and dsc["matches"], "annulus": ann, "disc": dsc}

    def halftwist():
        rep = verify_halftwist(n)
        return {"ok": rep.ok, "n": n}

    def end_comparison():
        rep = end_algebra(n, bound)
        return {"ok": rep.ok, "products_checked": rep.products_checked}

    def wedge():
        rep = wedge_nonvanishing(max(n, 2))
        return {"ok": rep["holds"], "patterns_checked": rep["patterns_checked"]}

    def base_change():
        rep = base_change_end(n, [t] * (n + 1), bound)
        return {"ok": rep.ok, "products_checked": rep.products_checked}

    def sphere():
        rep = sphere_complex(field).cohomology(bound)
        expected = {-2: 0, -1: 0, 0: 1, 1: 0, 2: 0, 3: 1}
        return {
            "ok": rep.dims == expected and rep.status == "stable",
            "status": rep.status,
            "dims": {str(d): rep.dims[d] for d in sorted(rep.dims)},
        }

    def pagoda_characteristic():
        rep = char2_pagoda_check(2)
        return {"ok": rep.distinguishes, "n": 2}

    def localization():
        rep = localization_consistency((x, y), 2, 2, 4)
        statuses = {
            row["contraction_status"] for row in rep.rows
        } | {row["localized_status"] for row in rep.rows}
        return {
            "ok": rep.ok,
            "inconclusive": "inconclusive_at_bound" in statuses,
        }

    return [
        ("algebra.rewriting_confluent", 0, None, rewriting_confluent),
        ("arc.round_trips", 1, DISC_UNSUPPORTED, arc_round_trips),
        ("twcat.halftwist", HALFTWIST_MIN_N, HALFTWIST_UNSUPPORTED, halftwist),
        ("toric.end_comparison", 1, END_UNSUPPORTED, end_comparison),
        ("toric.wedge", 0, None, wedge),
        ("toric.base_change", 0, None, base_change),
        ("cohom.sphere", 0, None, sphere),
        ("cohom.pagoda_characteristic", 0, None, pagoda_characteristic),
        ("cohom.localization", 0, None, localization),
    ]


def cmd_verify_all(args):
    entries = []
    worst = EXIT_OK
    for name, min_n, reason, runner in _verify_manifest(args.field, args.n, args.bound):
        result = runner() if args.n >= min_n else {"ok": False, "unsupported": reason}
        entries.append({"name": name, **result})
        if not result["ok"]:
            if result.get("inconclusive") or "unsupported" in result:
                worst = max(worst, EXIT_INCONCLUSIVE)
            else:
                worst = EXIT_FAILURE
    report = {
        "n": args.n,
        "field": args.field,
        "bound": args.bound,
        "checks": entries,
        "ok": worst == EXIT_OK,
    }
    return report, worst


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code fixed at 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _parse_optional(self, arg_string):
        # Every flag here is a long option or -h, so a token with a single
        # leading '-' is a value: the polynomial "-3*x", not an unknown
        # flag.  A long flag typed with one dash ("-max-degree") is left to
        # argparse, which rejects it by name.  _parse_optional is private
        # to argparse; None has meant "a positional" in CPython 3.10-3.13,
        # while its other results changed shape in 3.12.7, so this returns
        # only None or the base result.  Tested on CPython 3.11.
        flag = "-" + arg_string.partition("=")[0]
        if (arg_string.startswith("-") and not arg_string.startswith("--")
                and arg_string not in self._option_string_actions
                and flag not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


def _add_common(p: argparse.ArgumentParser, handler, *, needs_n=False, default_n=None):
    """The options every command takes; ``handler`` runs the command."""
    p.set_defaults(handler=handler)
    if needs_n or default_n is not None:
        p.add_argument("--n", type=int, required=default_n is None, default=default_n)
    p.add_argument("--field", default="q", help="q or f<prime> (default q)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", default=None, help="write the report here")


def _add_polys(p: argparse.ArgumentParser, required=False):
    p.add_argument("--f", nargs="+", default=None, required=required,
                   help="polynomials in the documented micro-grammar")
    p.add_argument("--vars", dest="variables", nargs="+", default=None,
                   help="variable order (default: identifiers in --f, sorted)")


def _algebra_tube(p):
    _add_common(p, cmd_algebra_tube, needs_n=True)
    _add_polys(p)


def _algebra_contraction(p):
    _add_common(p, cmd_algebra_contraction, needs_n=True)
    _add_polys(p, required=True)


def _algebra_localize(p):
    _add_common(p, cmd_algebra_localize, needs_n=True)
    _add_polys(p)
    p.add_argument("--vertex", default=None, help="vertex to localise at (default L0)")


def _arc_compare(p):
    _add_common(p, cmd_arc_compare, needs_n=True)
    p.add_argument("--surface", choices=("annulus", "disc"), default="annulus")


def _toric_sections(p):
    _add_common(p, cmd_toric_sections, needs_n=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--degree-bound", type=nonnegative_int, default=None)


def _toric_end(p):
    _add_common(p, cmd_toric_end, needs_n=True)
    p.add_argument("--bound", type=nonnegative_int, default=None,
                   help="word length bound")


def _toric_base_change(p):
    _add_common(p, cmd_toric_base_change, needs_n=True)
    _add_polys(p, required=True)
    p.add_argument("--bound", type=nonnegative_int, default=None,
                   help="word length bound")


def _cohom_sphere(p):
    _add_common(p, cmd_cohom_sphere)
    p.add_argument("--polydeg", type=nonnegative_int, default=8)


def _cohom_contraction_h0(p):
    _add_common(p, cmd_cohom_contraction_h0, needs_n=True)
    _add_polys(p, required=True)
    p.add_argument("--len", dest="length", type=nonnegative_int, default=6)
    p.add_argument("--polydeg", type=nonnegative_int, default=8)


def _cohom_truncated(p):
    _add_common(p, cmd_cohom_truncated, needs_n=True)
    _add_polys(p)
    p.add_argument("--quiver", choices=("contraction", "tube", "localized"),
                   default="contraction")
    p.add_argument("--m", type=int, default=0, help="report degree -m")
    p.add_argument("--source", default=None)
    p.add_argument("--target", default=None)
    p.add_argument("--len", dest="length", type=nonnegative_int, default=8)
    p.add_argument("--polydeg", type=nonnegative_int, default=8)


def _cohom_localization(p):
    _add_common(p, cmd_cohom_localization)
    _add_polys(p)
    p.add_argument("--max-degree", type=nonnegative_int, default=4)
    p.add_argument("--len", dest="length", type=nonnegative_int, default=4)
    p.add_argument("--polydeg", type=nonnegative_int, default=4)


def _verify_all(p):
    _add_common(p, cmd_verify_all, default_n=2)
    p.add_argument("--bound", type=nonnegative_int, default=8)


GROUPS = {
    "algebra": "presentation constructors",
    "arc": "marked arc systems on surfaces",
    "twcat": "twisted complexes over the algebra",
    "toric": "weight-graded ring comparisons",
    "cohom": "bounded cohomology computations",
    "verify": "fixed verification suites",
}

# (group, command, help, function adding the command's arguments), in the
# order help lists them.
COMMANDS = (
    ("algebra", "tube", "cyclic quiver with central windings", _algebra_tube),
    ("algebra", "contraction", "linear quiver with end loops", _algebra_contraction),
    ("algebra", "localize", "adjoin a degree -1 loop", _algebra_localize),
    ("arc", "annulus", "parallel arcs across an annulus",
     lambda p: _add_common(p, cmd_arc_annulus, needs_n=True)),
    ("arc", "disc", "parallel chords of a disc",
     lambda p: _add_common(p, cmd_arc_disc, needs_n=True)),
    ("arc", "compare", "surface presentation round trip", _arc_compare),
    ("twcat", "verify-halftwist", "half twist vs two-term complex, both wrappings",
     lambda p: _add_common(p, cmd_twcat_verify_halftwist, needs_n=True)),
    ("toric", "sections", "weight-space basis for one character", _toric_sections),
    ("toric", "wedge", "top wedge nonvanishing on stable points",
     lambda p: _add_common(p, cmd_toric_wedge, needs_n=True)),
    ("toric", "end", "path algebra vs graded ring comparison", _toric_end),
    ("toric", "base-change", "substitution compatibility", _toric_base_change),
    ("cohom", "sphere", "six-term free complex over k[t0, t1]", _cohom_sphere),
    ("cohom", "contraction-h0", "H^0 generators and relations", _cohom_contraction_h0),
    ("cohom", "truncated", "bounded morphism cohomology rank", _cohom_truncated),
    ("cohom", "localization", "contraction vs localised tube ranks",
     _cohom_localization),
    ("verify", "all", "run the whole manifest", _verify_all),
)


def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The parser of ``argv``: only the group and command that ``argv[:2]``
    names, or the whole tree when it names none (or ``argv`` is None)."""
    wanted = None if argv is None else tuple(argv[:2])
    rows = [row for row in COMMANDS if row[:2] == wanted]
    # A root-level error ("unrecognized arguments") prints the root usage,
    # which must list every group, not just the one built.
    metavar = "{" + ",".join(GROUPS) + "}" if rows else None
    root = _Parser(prog="tube-ncr", description=__doc__.splitlines()[0])
    groups = root.add_subparsers(dest="group", required=True, metavar=metavar)
    commands = {}
    for group, command, help_text, add_arguments in rows or COMMANDS:
        if group not in commands:
            parser = groups.add_parser(group, help=GROUPS[group])
            commands[group] = parser.add_subparsers(dest="command", required=True)
        add_arguments(commands[group].add_parser(command, help=help_text))
    return root


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_text(report) -> str:
    lines: list[str] = []

    def walk(node, path):
        if isinstance(node, dict):
            for key in sorted(node, key=str):
                walk(node[key], f"{path}.{key}" if path else str(key))
        elif isinstance(node, list) and any(
            isinstance(v, (dict, list)) for v in node
        ):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")
        else:
            lines.append(f"{path}: {node}")

    walk(report, "")
    return "\n".join(lines) + "\n"


def emit(report: dict, args: argparse.Namespace) -> bool:
    """Write the report; False, after one error line, if ``--output``
    cannot be written."""
    text = render_json(report) if args.format == "json" else render_text(report)
    if not args.output:
        sys.stdout.write(text)
        return True
    try:
        with open(args.output, "w") as handle:
            handle.write(text)
    except OSError as exc:
        sys.stderr.write(f"tube-ncr: error: cannot write {args.output}: {exc.strerror}\n")
        return False
    return True


def unwritable_output(path: Optional[str]) -> Optional[str]:
    """Why ``--output`` cannot be written, when that shows before the run:
    the path is a directory, or its directory is missing or is not a
    directory.  ``emit`` reports every other failure."""
    if not path:
        return None
    if os.path.isdir(path):
        return "Is a directory"
    parent = os.path.dirname(path) or "."
    if not os.path.exists(parent):
        return "No such file or directory"
    if not os.path.isdir(parent):
        return "Not a directory"
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    reason = unwritable_output(args.output)
    if reason:
        sys.stderr.write(f"tube-ncr: error: cannot write {args.output}: {reason}\n")
        return EXIT_USAGE
    try:
        report, code = args.handler(args)
    except (CommandError, PolyParseError, ValueError) as exc:
        sys.stderr.write(f"tube-ncr: error: {exc}\n")
        return EXIT_USAGE
    except InternalError as exc:
        sys.stderr.write(f"tube-ncr: internal error: {exc}\n")
        return EXIT_INTERNAL
    return code if emit(report, args) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
