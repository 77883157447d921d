"""Outside-in span tracer for tube_ncr, kept in the benchmark's own files.

``Tracer`` replaces chosen functions and methods of the package with
wrappers that record one span per call: name, parent span, start, end
and a few size fields.  Names that other modules imported by value
(``cohom`` imports ``row_reduce``, ``kernel_basis`` and
``truncated_solve``; ``cli`` imports the toric and twcat entry points)
are rebound too, otherwise those calls would bypass the wrapper.
Leaving the ``with`` block restores every original.

Field arithmetic (``Field.add/mul/inv``) is deliberately not wrapped: it
runs ~10^7 times inside the eliminations, and a wrapper there would
distort every other span.
"""

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _row_reduce_fields(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return {
        "rows": len(rows),
        "nnz": sum(map(len, rows)),
        "cols": len(set().union(*rows)),
        "rank": len(result[0]),
    }


def _kernel_fields(args, kwargs, result):
    return {"vectors": len(result)}


def _solve_fields(args, kwargs, result):
    return {"consistent": int(result is not None)}


def _words_fields(args, kwargs, result):
    return {"words": len(result)}


def _contains_fields(args, kwargs, result):
    return {"member": int(result.status == "member")}


# (span name, module, attribute, size fields).  The span name starts with
# the layer, which is the module the code lives in.
TARGETS = (
    ("exactalg.row_reduce", "tube_ncr.exactalg", "row_reduce", _row_reduce_fields),
    ("exactalg.kernel_basis", "tube_ncr.exactalg", "kernel_basis", _kernel_fields),
    ("exactalg.solve_sparse", "tube_ncr.exactalg", "solve_sparse", _solve_fields),
    ("exactalg.truncated_solve", "tube_ncr.exactalg", "truncated_solve", None),
    ("exactalg.Poly.mul", "tube_ncr.exactalg", "Poly.__mul__", None),
    ("quivalg.construct", "tube_ncr.quivalg", "Presentation.__init__", None),
    ("quivalg.irreducible_words", "tube_ncr.quivalg",
     "Presentation.irreducible_words", _words_fields),
    ("quivalg.differential_of", "tube_ncr.quivalg", "Presentation.differential_of", None),
    ("quivalg.reduce_raw", "tube_ncr.quivalg", "Presentation.reduce_raw", None),
    ("quivalg.multiply", "tube_ncr.quivalg", "Presentation.multiply", None),
    ("cohom.truncated_cohomology", "tube_ncr.cohom", "truncated_cohomology", None),
    ("cohom.h0.contains", "tube_ncr.cohom", "H0Presentation.contains", _contains_fields),
    ("twcat.verify_halftwist", "tube_ncr.twcat", "verify_halftwist", None),
    ("twcat.ainf_check", "tube_ncr.twcat", "ainf_check", None),
    ("toric.end_algebra", "tube_ncr.toric", "end_algebra", None),
    ("toric.base_change_end", "tube_ncr.toric", "base_change_end", None),
    ("toric.wedge_nonvanishing", "tube_ncr.toric", "wedge_nonvanishing", None),
    ("arcmodel.generate_presentation", "tube_ncr.arcmodel", "generate_presentation", None),
    ("cli.main", "tube_ncr.cli", "main", None),
    ("cli.render_json", "tube_ncr.cli", "render_json", None),
)
LAYERS = ("exactalg", "quivalg", "cohom", "twcat", "toric", "arcmodel", "cli")
ELIMINATION = ("exactalg.row_reduce", "exactalg.kernel_basis", "exactalg.solve_sparse")


class Tracer:
    """Span recorder; ``with Tracer() as t:`` wraps, leaving restores.

    A span is ``[id, parent id, name, start, end, wrap_s, fields]``;
    ``wrap_s`` is the wrapper's own bookkeeping outside ``start..end``,
    which the parent's self time does not count.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def __enter__(self):
        """Wrap every target.  A target the package no longer has raises
        ``LookupError``: its spans would read 0 calls and look like a gain."""
        try:
            for name, module_name, attr, fields in TARGETS:
                module = importlib.import_module(module_name)
                cls_name, _, attr = attr.rpartition(".")
                owner = getattr(module, cls_name, None) if cls_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    raise LookupError(f"tracer: {module_name} has no {attr} to trace")
                wrapper = self._wrap(name, original, fields)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in _package_modules():
                    for key in [k for k, v in vars(mod).items() if v is original]:
                        self._patch(mod, key, original, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, func, fields):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            span = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span[3], span[4] = start, end
            if fields is not None:
                span[6] = fields(args, kwargs, result)
            span[5] = (start - enter) + (perf_counter() - end)
            return result

        return wrapper

    def write(self, path) -> None:
        """All spans as JSON lines, one object per span."""
        with open(path, "w") as out:
            for span_id, parent, name, start, end, wrap_s, fields in self.spans:
                record = {"id": span_id, "parent": parent, "name": name,
                          "start": start, "end": end, "wrap_s": wrap_s}
                record.update(fields or {})
                out.write(json.dumps(record) + "\n")


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "tube_ncr" or k.startswith("tube_ncr."))]


def read_spans(path) -> list:
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def _ratio(num, den):
    return num / den if den else None


def summarize(spans: list, wall_s: float) -> dict:
    """Per-layer metrics of one traced run, keyed ``<span name>.<metric>``.

    Self time is a span's duration minus the time its child spans cover,
    wrapper bookkeeping included; ``self_share`` is self time over the
    traced wall time ``wall_s``, so it reads 0, not a constant 0 s, for a
    layer the workload never reaches.  Ratios with nothing to divide by
    are ``None``.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"] + s["wrap_s"]
    calls, self_s = Counter(), defaultdict(float)
    sums, maxima = defaultdict(Counter), defaultdict(Counter)
    for s in spans:
        name = s["name"]
        calls[name] += 1
        self_s[name] += s["end"] - s["start"] - covered[s["id"]]
        for key in ("rows", "nnz", "rank", "vectors", "consistent", "words", "member"):
            if key in s:
                sums[name][key] += s[key]
        if "cols" in s:
            maxima[name]["cols"] = max(maxima[name]["cols"], s["cols"])

    out = {}
    for name, _, _, _ in TARGETS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.self_share"] = self_s[name] / wall_s
    rr = sums["exactalg.row_reduce"]
    out["exactalg.row_reduce.rows_in"] = rr["rows"]
    out["exactalg.row_reduce.nnz_in"] = rr["nnz"]
    out["exactalg.row_reduce.max_cols"] = maxima["exactalg.row_reduce"]["cols"]
    out["exactalg.row_reduce.rank_per_row"] = _ratio(rr["rank"], rr["rows"])
    out["exactalg.kernel_basis.vectors"] = sums["exactalg.kernel_basis"]["vectors"]
    out["exactalg.solve_sparse.consistent_frac"] = _ratio(
        sums["exactalg.solve_sparse"]["consistent"], calls["exactalg.solve_sparse"])
    out["quivalg.irreducible_words.words"] = sums["quivalg.irreducible_words"]["words"]
    out["cohom.h0.contains.member_frac"] = _ratio(
        sums["cohom.h0.contains"]["member"], calls["cohom.h0.contains"])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(layer + "."))
    out["elim_share"] = sum(self_s[name] for name in ELIMINATION) / wall_s
    return out
