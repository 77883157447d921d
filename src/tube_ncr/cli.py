"""Batch command line interface: constructors, verifications, reports.

Every command prints one deterministic report (JSON by default, sorted
keys, two-space indent, trailing newline) to stdout or ``--output``.
Exit codes follow the verification verdict: 0 when every requested
check passes conclusively, 2 when something is inconclusive at the
chosen bounds, 1 on an actual failure, 64 on malformed input.

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
import re
import sys
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .arcmodel import annulus, disc, generate_presentation
from .cohom import (
    char2_pagoda_check,
    h0_presentation,
    localization_consistency,
    sphere_complex,
    truncated_cohomology,
)
from .exactalg import Field, Poly, PolyParseError, PolyRing
from .quivalg import (
    contraction_quiver,
    contraction_vertex,
    drinfeld_localize,
    relabel_presentation,
    same_presentation,
    tube_algebra,
    tube_vertex,
)
from .toric import (
    base_change_end,
    default_degree_bound,
    end_algebra,
    section_basis,
    wedge_nonvanishing,
)
from .twcat import verify_halftwist

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class CommandError(ValueError):
    """Malformed input discovered after argument parsing."""


@dataclass
class RunConfig:
    """Everything a command run depends on, round-trippable as JSON."""

    command: list
    field: str = "q"
    n: Optional[int] = None
    f: Optional[list] = None
    variables: Optional[list] = None
    bounds: dict = dc_field(default_factory=dict)
    options: dict = dc_field(default_factory=dict)
    output: Optional[str] = None
    format: str = "json"

    def to_json(self) -> dict:
        return {
            "command": list(self.command),
            "field": self.field,
            "n": self.n,
            "f": list(self.f) if self.f is not None else None,
            "variables": list(self.variables) if self.variables is not None else None,
            "bounds": dict(self.bounds),
            "options": dict(self.options),
            "output": self.output,
            "format": self.format,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "RunConfig":
        return cls(
            command=list(blob["command"]),
            field=blob["field"],
            n=blob["n"],
            f=list(blob["f"]) if blob["f"] is not None else None,
            variables=(
                list(blob["variables"]) if blob["variables"] is not None else None
            ),
            bounds=dict(blob["bounds"]),
            options=dict(blob["options"]),
            output=blob["output"],
            format=blob["format"],
        )


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
        names = sorted({m.group(0) for t in texts for m in _IDENT.finditer(t)})
    else:
        names = list(variables)
    ring = PolyRing(field, tuple(names))
    return ring, [ring.parse(t) for t in texts]


def generic_tube_ring(field: Field, n: int) -> PolyRing:
    return PolyRing(field, tuple(f"t{i}" for i in range(n + 1)))


# ---------------------------------------------------------------------------
# Commands.  Each returns (report dict, exit code).
# ---------------------------------------------------------------------------


def cmd_algebra_tube(cfg: RunConfig):
    field = parse_field(cfg.field)
    if cfg.f is None:
        pres = tube_algebra(cfg.n, generic_tube_ring(field, cfg.n))
    else:
        ring, f = parse_polynomials(field, cfg.f, cfg.variables)
        pres = tube_algebra(cfg.n, ring, tuple(f))
    return pres.to_json(), EXIT_OK


def cmd_algebra_contraction(cfg: RunConfig):
    field = parse_field(cfg.field)
    ring, f = parse_polynomials(field, cfg.f, cfg.variables)
    pres = contraction_quiver(
        cfg.n, ring, f, idempotent_convention=cfg.options.get("convention", "standard")
    )
    return pres.to_json(), EXIT_OK


def cmd_algebra_localize(cfg: RunConfig):
    field = parse_field(cfg.field)
    if cfg.f is None:
        pres = tube_algebra(cfg.n, generic_tube_ring(field, cfg.n))
    else:
        ring, f = parse_polynomials(field, cfg.f, cfg.variables)
        pres = tube_algebra(cfg.n, ring, tuple(f))
    vertex = cfg.options.get("vertex") or tube_vertex(0)
    return drinfeld_localize(pres, vertex).to_json(), EXIT_OK


def cmd_arc_annulus(cfg: RunConfig):
    return annulus(cfg.n).to_json(), EXIT_OK


def cmd_arc_disc(cfg: RunConfig):
    return disc(cfg.n).to_json(), EXIT_OK


def cmd_arc_compare(cfg: RunConfig):
    """Round trip: the boundary-path presentation of the standard arc
    systems must reproduce the algebra constructors on the nose."""
    field = parse_field(cfg.field)
    n = cfg.n
    surface = cfg.options.get("surface", "annulus")
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
    report = {"surface": surface, "n": n, "field": cfg.field, "matches": matches}
    return report, EXIT_OK if matches else EXIT_FAILURE


def cmd_twcat_verify_halftwist(cfg: RunConfig):
    rep = verify_halftwist(cfg.n)
    return rep.to_json(), EXIT_OK if rep.ok else EXIT_FAILURE


def cmd_toric_sections(cfg: RunConfig):
    bound = cfg.bounds.get("degree") or default_degree_bound(cfg.n)
    rep = section_basis(cfg.options["index"], cfg.n, bound)
    return rep.to_json(), EXIT_OK


def cmd_toric_wedge(cfg: RunConfig):
    rep = wedge_nonvanishing(cfg.n)
    return rep, EXIT_OK if rep["holds"] else EXIT_FAILURE


def cmd_toric_end(cfg: RunConfig):
    rep = end_algebra(cfg.n, cfg.bounds.get("length"))
    return rep.to_json(), EXIT_OK if rep.ok else EXIT_FAILURE


def cmd_toric_base_change(cfg: RunConfig):
    field = parse_field(cfg.field)
    ring, f = parse_polynomials(field, cfg.f, cfg.variables)
    rep = base_change_end(cfg.n, f, cfg.bounds.get("length"))
    return rep.to_json(), EXIT_OK if rep.ok else EXIT_FAILURE


def cmd_cohom_sphere(cfg: RunConfig):
    field = parse_field(cfg.field)
    rep = sphere_complex(field).cohomology(cfg.bounds.get("polydeg", 8))
    code = EXIT_OK if rep.status == "stable" else EXIT_INCONCLUSIVE
    return rep.to_json(), code


def cmd_cohom_contraction_h0(cfg: RunConfig):
    field = parse_field(cfg.field)
    ring, f = parse_polynomials(field, cfg.f, cfg.variables)
    pres = contraction_quiver(cfg.n, ring, f)
    h0 = h0_presentation(pres, cfg.bounds.get("length", 6))
    closure = h0.closure_check(cfg.bounds.get("polydeg", 8))
    report = h0.to_json()
    report["closure"] = closure
    return report, EXIT_OK if closure["ok"] else EXIT_FAILURE


def cmd_cohom_truncated(cfg: RunConfig):
    field = parse_field(cfg.field)
    kind = cfg.options.get("quiver", "contraction")
    if kind == "contraction":
        if cfg.f is None:
            raise CommandError("--f is required for the contraction quiver")
        ring, f = parse_polynomials(field, cfg.f, cfg.variables)
        pres = contraction_quiver(cfg.n, ring, f)
        default_vertex = contraction_vertex(1)
    else:
        if cfg.f is None:
            ring, f = generic_tube_ring(field, cfg.n), None
            pres = tube_algebra(cfg.n, ring)
        else:
            ring, f = parse_polynomials(field, cfg.f, cfg.variables)
            pres = tube_algebra(cfg.n, ring, tuple(f))
        if kind == "localized":
            pres = drinfeld_localize(pres, tube_vertex(0))
            default_vertex = tube_vertex(1 if cfg.n >= 1 else 0)
        else:
            default_vertex = tube_vertex(0)
    source = cfg.options.get("source") or default_vertex
    target = cfg.options.get("target") or default_vertex
    rep = truncated_cohomology(
        pres,
        source,
        target,
        cfg.options.get("m", 0),
        length_bound=cfg.bounds.get("length", 8),
        poly_bound=cfg.bounds.get("polydeg", 8),
    )
    code = EXIT_OK if rep.status == "stable" else EXIT_INCONCLUSIVE
    return rep.to_json(), code


def cmd_cohom_localization(cfg: RunConfig):
    field = parse_field(cfg.field)
    texts = cfg.f if cfg.f is not None else ["x", "y"]
    ring, f = parse_polynomials(field, texts, cfg.variables)
    rep = localization_consistency(
        tuple(f),
        max_degree=cfg.options.get("max_degree", 4),
        length_bound=cfg.bounds.get("length", 4),
        poly_bound=cfg.bounds.get("polydeg", 4),
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


def _verify_manifest(cfg: RunConfig) -> list:
    """Ordered suite behind ``verify all``: name, runner, verdict."""
    field = parse_field(cfg.field)
    n = cfg.n
    bound = cfg.bounds.get("length", 8)
    ring = generic_tube_ring(field, n)
    tring = PolyRing(field, ("t",))
    t = tring.gen("t")
    xyring = PolyRing(field, ("x", "y"))
    x, y = xyring.gen("x"), xyring.gen("y")

    def rewriting_confluent():
        tube = tube_algebra(n, ring)
        gamma = contraction_quiver(n, ring, list(ring.gens())) if n >= 1 else None
        ok = tube.confluence.confluent and (
            gamma is None or gamma.confluence.confluent
        )
        return {
            "ok": ok,
            "tube_critical_pairs": tube.confluence.critical_pairs_checked,
        }

    def arc_round_trips():
        ann = cmd_arc_compare(
            RunConfig(["arc", "compare"], cfg.field, n, options={"surface": "annulus"})
        )[0]
        dsc = cmd_arc_compare(
            RunConfig(["arc", "compare"], cfg.field, n, options={"surface": "disc"})
        )[0]
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
        ("algebra.rewriting_confluent", rewriting_confluent),
        ("arc.round_trips", arc_round_trips),
        ("twcat.halftwist", halftwist),
        ("toric.end_comparison", end_comparison),
        ("toric.wedge", wedge),
        ("toric.base_change", base_change),
        ("cohom.sphere", sphere),
        ("cohom.pagoda_characteristic", pagoda_characteristic),
        ("cohom.localization", localization),
    ]


def cmd_verify_all(cfg: RunConfig):
    entries = []
    worst = EXIT_OK
    for name, runner in _verify_manifest(cfg):
        result = runner()
        entries.append({"name": name, **result})
        if not result["ok"]:
            if result.get("inconclusive"):
                worst = max(worst, EXIT_INCONCLUSIVE)
            else:
                worst = EXIT_FAILURE
    report = {
        "n": cfg.n,
        "field": cfg.field,
        "bound": cfg.bounds.get("length", 8),
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


def _add_common(p: argparse.ArgumentParser, *, needs_n=False, default_n=None):
    if needs_n or default_n is not None:
        p.add_argument("--n", type=int, required=default_n is None, default=default_n)
    p.add_argument("--field", default="q", help="q or f<prime> (default q)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", default=None, help="write the report here")


def _add_polys(p: argparse.ArgumentParser, required=False, name="--f"):
    p.add_argument(name, dest="f", nargs="+", default=None, required=required,
                   help="polynomials in the documented micro-grammar")
    p.add_argument("--vars", dest="variables", nargs="+", default=None,
                   help="variable order (default: identifiers in --f, sorted)")


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(prog="tube-ncr", description=__doc__.splitlines()[0])
    groups = root.add_subparsers(dest="group", required=True)

    algebra = groups.add_parser("algebra", help="presentation constructors")
    algebra_cmds = algebra.add_subparsers(dest="command", required=True)
    p = algebra_cmds.add_parser("tube", help="cyclic quiver with central windings")
    _add_common(p, needs_n=True)
    _add_polys(p)
    p = algebra_cmds.add_parser("contraction", help="linear quiver with end loops")
    _add_common(p, needs_n=True)
    _add_polys(p, required=True)
    p.add_argument("--convention", choices=("standard", "swapped"),
                   default="standard")
    p = algebra_cmds.add_parser("localize", help="adjoin a degree -1 loop")
    _add_common(p, needs_n=True)
    _add_polys(p)
    p.add_argument("--vertex", default=None, help="vertex to localise at (default L0)")

    arc = groups.add_parser("arc", help="marked arc systems on surfaces")
    arc_cmds = arc.add_subparsers(dest="command", required=True)
    p = arc_cmds.add_parser("annulus", help="parallel arcs across an annulus")
    _add_common(p, needs_n=True)
    p = arc_cmds.add_parser("disc", help="parallel chords of a disc")
    _add_common(p, needs_n=True)
    p = arc_cmds.add_parser("compare", help="surface presentation round trip")
    _add_common(p, needs_n=True)
    p.add_argument("--surface", choices=("annulus", "disc"), default="annulus")

    twcat = groups.add_parser("twcat", help="twisted complexes over the algebra")
    twcat_cmds = twcat.add_subparsers(dest="command", required=True)
    p = twcat_cmds.add_parser("verify-halftwist",
                              help="half twist vs two-term complex, both wrappings")
    _add_common(p, needs_n=True)

    toric = groups.add_parser("toric", help="weight-graded ring comparisons")
    toric_cmds = toric.add_subparsers(dest="command", required=True)
    p = toric_cmds.add_parser("sections", help="weight-space basis for one character")
    _add_common(p, needs_n=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--degree-bound", type=int, default=None)
    p = toric_cmds.add_parser("wedge", help="top wedge nonvanishing on stable points")
    _add_common(p, needs_n=True)
    p = toric_cmds.add_parser("end", help="path algebra vs graded ring comparison")
    _add_common(p, needs_n=True)
    p.add_argument("--bound", type=int, default=None, help="word length bound")
    p = toric_cmds.add_parser("base-change", help="substitution compatibility")
    _add_common(p, needs_n=True)
    _add_polys(p, required=True)
    p.add_argument("--bound", type=int, default=None, help="word length bound")

    cohom = groups.add_parser("cohom", help="bounded cohomology computations")
    cohom_cmds = cohom.add_subparsers(dest="command", required=True)
    p = cohom_cmds.add_parser("sphere", help="six-term free complex over k[t0, t1]")
    _add_common(p)
    p.add_argument("--polydeg", type=int, default=8)
    p = cohom_cmds.add_parser("contraction-h0",
                              help="H^0 generators and relations")
    _add_common(p, needs_n=True)
    _add_polys(p, required=True)
    p.add_argument("--len", dest="length", type=int, default=6)
    p.add_argument("--polydeg", type=int, default=8)
    p = cohom_cmds.add_parser("truncated", help="bounded morphism cohomology rank")
    _add_common(p, needs_n=True)
    _add_polys(p)
    p.add_argument("--quiver", choices=("contraction", "tube", "localized"),
                   default="contraction")
    p.add_argument("--m", type=int, default=0, help="report degree -m")
    p.add_argument("--source", default=None)
    p.add_argument("--target", default=None)
    p.add_argument("--len", dest="length", type=int, default=8)
    p.add_argument("--polydeg", type=int, default=8)
    p = cohom_cmds.add_parser("localization",
                              help="contraction vs localised tube ranks")
    _add_common(p)
    _add_polys(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--len", dest="length", type=int, default=4)
    p.add_argument("--polydeg", type=int, default=4)

    verify = groups.add_parser("verify", help="fixed verification suites")
    verify_cmds = verify.add_subparsers(dest="command", required=True)
    p = verify_cmds.add_parser("all", help="run the whole manifest")
    _add_common(p, default_n=2)
    p.add_argument("--bound", type=int, default=8)

    return root


def config_from_args(args: argparse.Namespace) -> RunConfig:
    bounds = {}
    for attr, key in (
        ("bound", "length"),
        ("length", "length"),
        ("polydeg", "polydeg"),
        ("degree_bound", "degree"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            bounds[key] = value
    options = {}
    for attr, key in (
        ("convention", "convention"),
        ("vertex", "vertex"),
        ("surface", "surface"),
        ("index", "index"),
        ("quiver", "quiver"),
        ("m", "m"),
        ("source", "source"),
        ("target", "target"),
        ("max_degree", "max_degree"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            options[key] = value
    return RunConfig(
        command=[args.group, args.command],
        field=getattr(args, "field", "q"),
        n=getattr(args, "n", None),
        f=getattr(args, "f", None),
        variables=getattr(args, "variables", None),
        bounds=bounds,
        options=options,
        output=getattr(args, "output", None),
        format=getattr(args, "format", "json"),
    )


_HANDLERS = {
    ("algebra", "tube"): cmd_algebra_tube,
    ("algebra", "contraction"): cmd_algebra_contraction,
    ("algebra", "localize"): cmd_algebra_localize,
    ("arc", "annulus"): cmd_arc_annulus,
    ("arc", "disc"): cmd_arc_disc,
    ("arc", "compare"): cmd_arc_compare,
    ("twcat", "verify-halftwist"): cmd_twcat_verify_halftwist,
    ("toric", "sections"): cmd_toric_sections,
    ("toric", "wedge"): cmd_toric_wedge,
    ("toric", "end"): cmd_toric_end,
    ("toric", "base-change"): cmd_toric_base_change,
    ("cohom", "sphere"): cmd_cohom_sphere,
    ("cohom", "contraction-h0"): cmd_cohom_contraction_h0,
    ("cohom", "truncated"): cmd_cohom_truncated,
    ("cohom", "localization"): cmd_cohom_localization,
    ("verify", "all"): cmd_verify_all,
}


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_text(report, prefix: str = "") -> str:
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

    walk(report, prefix)
    return "\n".join(lines) + "\n"


def emit(report: dict, cfg: RunConfig) -> None:
    text = render_json(report) if cfg.format == "json" else render_text(report)
    if cfg.output:
        with open(cfg.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    handler = _HANDLERS[tuple(cfg.command)]
    try:
        report, code = handler(cfg)
    except (CommandError, PolyParseError, ValueError) as exc:
        sys.stderr.write(f"tube-ncr: error: {exc}\n")
        return EXIT_USAGE
    emit(report, cfg)
    return code


if __name__ == "__main__":
    sys.exit(main())
