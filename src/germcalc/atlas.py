"""Structured catalog of the simple-multigerm classification tables.

The catalog carries one entry per normal-form row: six monogerm families
(the fold, the one-parameter cuspidal family over a plane function P, two
quartic families, and two quintic forms) and twenty multigerm rows up to
four branches, each with a parameterized template and the expected
codimension formula.  `verify` recomputes the codimension of an
instantiation with the exact engine and compares; `verify_all` sweeps the
whole catalog and is the package's headline reproduction.  `lookup`
classifies a germ by structural matching against instantiations: it
compares match keys first, among the rows with the germ's codimension and
dimensions, and computes the rows' type labels and multiplicities only
for the fallback to invariant-tuple candidates when no literal match
exists.

All signs that would distinguish real forms are taken +; the catalog works
over an exact subfield of the complex numbers.  Two encoding notes, both
backed by recomputation (see the per-entry `note` fields):

  * A2A2-a is encoded as {(x^3+y*x,y,z);(x,y,z^3+y*z)}, the binary
    concatenation of two cusps, which recomputes to codimension 1.  The
    variant with the parameter in the third slot, {(x^3+z*x,y,z);
    (x,y,z^3+y*z)}, recomputes to codimension 2: it belongs to the contact
    class A2A2-b.
  * 3_muA1A1 is encoded from mu = 2 upward: the mu = 1 instantiation of
    the same template recomputes to codimension 4 and matches the mu = 2
    member invariant for invariant, so no codimension-3 member of this
    shape exists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import germ as germ_mod
from . import syntax, tangent
from .errors import NotStabilizedError
from .germ import MultiGerm, remembered
from .ring import D_MAX, Poly, milnor


# -- simple plane function germs ---------------------------------------------

def simple_function(series: str, mu: int) -> Poly:
    """The standard two-variable normal form of the given simple class.

    Series "A" (mu >= 0; mu = 0 is the regular germ y), "D" (mu >= 4) and
    "E" (mu in {6, 7, 8}).
    """
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    if series == "A":
        if mu < 0:
            raise ValueError("A series needs mu >= 0")
        if mu == 0:
            return y
        return x * x + y ** (mu + 1)
    if series == "D":
        if mu < 4:
            raise ValueError("D series needs mu >= 4")
        return x * x * y + y ** (mu - 1)
    if series == "E":
        if mu == 6:
            return x ** 3 + y ** 4
        if mu == 7:
            return x ** 3 + x * y ** 3
        if mu == 8:
            return x ** 3 + y ** 5
        raise ValueError("E series has mu in {6, 7, 8}")
    raise ValueError(f"unknown series {series!r}")


def simple_functions_up_to(mu_cap: int) -> list[tuple[str, int]]:
    """All (series, mu) labels of simple plane functions with mu <= cap."""
    out = [("A", m) for m in range(1, mu_cap + 1)]
    out += [("D", m) for m in range(4, mu_cap + 1)]
    out += [("E", m) for m in (6, 7, 8) if m <= mu_cap]
    return out


def _coerce_function(value) -> Poly:
    if isinstance(value, Poly):
        if value.nvars > 2:
            raise ValueError("plane functions live in at most 2 variables")
        return value.remap_variables(2, list(range(value.nvars)))
    if isinstance(value, tuple) and len(value) == 2:
        return simple_function(value[0], value[1])
    if isinstance(value, str):
        return syntax.parse_poly(value, names=("x", "y"))
    raise ValueError(f"cannot interpret {value!r} as a plane function")


# -- the catalog ---------------------------------------------------------------

@dataclass(frozen=True)
class AtlasEntry:
    """One table row: a parameterized normal form and its codimension."""

    name: str
    kind: str                       # "monogerm" | "multigerm"
    template: str                   # display template, symbolic parameters
    codim_formula: str
    param: str | None               # "k" | "mu" | "P" | "h" | None
    param_min: int = 1
    provenance: str = ""
    note: str = ""
    _text: Callable[..., str] = field(default=None, compare=False, repr=False)
    _codim: Callable[..., int] = field(default=None, compare=False, repr=False)


def _k_entry(name, kind, template, codim_formula, codim_fn, param="k",
             param_min=1, provenance="", note=""):
    def build(value: int) -> str:
        return template.replace("<k>", str(value)).replace(
            "<k1>", str(value + 1))
    display = template.replace("<k>", param).replace(
        "<k1>", f"({param}+1)")
    return AtlasEntry(name=name, kind=kind, template=display,
                      codim_formula=codim_formula, param=param,
                      param_min=param_min, provenance=provenance, note=note,
                      _text=build, _codim=codim_fn)


def _fixed_entry(name, kind, template, codim, provenance="", note=""):
    return AtlasEntry(name=name, kind=kind, template=template,
                      codim_formula=str(codim), param=None, param_min=0,
                      provenance=provenance, note=note,
                      _text=lambda: template, _codim=lambda: codim)


def _function_entry(name, kind, template, codim_formula, text_fn,
                    param, provenance="", note=""):
    return AtlasEntry(name=name, kind=kind, template=template,
                      codim_formula=codim_formula, param=param, param_min=1,
                      provenance=provenance, note=note,
                      _text=text_fn, _codim=None)


def _text_3mu(p_poly: Poly) -> str:
    z = Poly.variable(3, 2)
    comp3 = z ** 3 + p_poly.remap_variables(3, [0, 1]) * z
    return f"(x, y, {syntax.render_poly(comp3)})"


def _text_a1a1(h_poly: Poly) -> str:
    z = Poly.variable(3, 2)
    comp3 = z * z + h_poly.remap_variables(3, [0, 1])
    return "{(x, y, z^2); (x, y, " + syntax.render_poly(comp3) + ")}"


def _catalog() -> tuple[AtlasEntry, ...]:
    entries: list[AtlasEntry] = []

    # monogerm table
    entries.append(_fixed_entry(
        "A1", "monogerm", "(x,y,z^2)", 0,
        provenance="monogerm table, fold"))
    entries.append(_function_entry(
        "3_mu", "monogerm", "(x,y,z^3+P(x,y)*z)", "mu(P)", _text_3mu,
        param="P",
        provenance="monogerm table, cubic family over a simple plane function"))
    entries.append(_k_entry(
        "4_1^k", "monogerm", "(x,y,z^4+x*z+y^<k>*z^2)", "k-1",
        lambda k: k - 1,
        provenance="monogerm table, first quartic family (k=1 is the swallowtail)"))
    entries.append(_k_entry(
        "4_2^k", "monogerm", "(x,y,z^4+y^2*z+x^<k>*z+x*z^2)", "k",
        lambda k: k, param_min=2,
        provenance="monogerm table, second quartic family"))
    entries.append(_fixed_entry(
        "5_1", "monogerm", "(x,y,z^5+x*z+y*z^2)", 1,
        provenance="monogerm table, first quintic form"))
    entries.append(_fixed_entry(
        "5_2", "monogerm", "(x,y,z^5+x*z+y^2*z^2+y*z^3)", 2,
        provenance="monogerm table, second quintic form"))

    # multigerm table: bigerms
    entries.append(_function_entry(
        "A1A1", "multigerm", "{(x,y,z^2);(x,y,z^2+h(x,y))}", "mu(h)",
        _text_a1a1, param="h",
        provenance="multigerm table, two folds with simple contact"))
    entries.append(_k_entry(
        "A1A2-a", "multigerm", "{(x^3+y*x,y,z);(x,y^2+z^<k>,z)}", "k-1",
        lambda k: k - 1,
        provenance="multigerm table, fold-and-cusp, first family"))
    entries.append(_k_entry(
        "A1A2-b", "multigerm", "{(x^3+y*x,y,z);(x^2+z^<k>,y,z)}", "2*(k-1)",
        lambda k: 2 * (k - 1),
        provenance="multigerm table, fold-and-cusp, second family"))
    entries.append(_k_entry(
        "A1A3", "multigerm", "{(x^4+y*x+z*x^2,y,z);(x,y^2+z^<k>,z)}", "k",
        lambda k: k,
        provenance="multigerm table, fold-and-swallowtail family"))
    entries.append(_fixed_entry(
        "A2A2-a", "multigerm", "{(x^3+y*x,y,z);(x,y,z^3+y*z)}", 1,
        provenance="multigerm table, two cusps, generic (binary concatenation)",
        note="The variant {(x^3+z*x,y,z);(x,y,z^3+y*z)} recomputes to "
             "codimension 2 and belongs to the contact class A2A2-b; this "
             "entry keeps the construction form, which recomputes to 1."))
    entries.append(_fixed_entry(
        "A2A2-b", "multigerm", "{(x^3+y^2*x+z*x,y,z);(x,y,z^3+y*z)}", 2,
        provenance="multigerm table, two cusps, edge-to-plane contact"))
    entries.append(_fixed_entry(
        "A2A2-c", "multigerm", "{(x^3+y*x,y,z);(x^3+z*x+x^2*y,y,z)}", 3,
        provenance="multigerm table, two cusps, plane-to-plane contact"))
    entries.append(_fixed_entry(
        "A2A2-d", "multigerm", "{(x^3+y*x,y,z);(x^3+z*x,y,z)}", 4,
        provenance="multigerm table, two cusps, deepest contact"))
    entries.append(_k_entry(
        "3_muA1-a", "multigerm",
        "{(x^3+y^2*x+z^<k1>*x,y,z);(x,y,z^2)}", "mu+1",
        lambda mu: mu + 1, param="mu",
        provenance="multigerm table, cubic family plus transverse fold"))
    entries.append(_k_entry(
        "3_muA1-b", "multigerm",
        "{(x^3+y^2*x+z^<k1>*x,y,z);(x,y^2,z)}", "2*mu",
        lambda mu: 2 * mu, param="mu",
        provenance="multigerm table, cubic family plus tangent fold"))
    entries.append(_k_entry(
        "4_1^kA1", "multigerm", "{(x^4+y*x+z^<k>*x^2,y,z);(x,y,z^2)}", "k",
        lambda k: k,
        provenance="multigerm table, quartic family plus fold"))
    entries.append(_k_entry(
        "3_muA2", "multigerm",
        "{(x^3+y^2*x+z^<k1>*x,y,z);(x,y,z^3+y*z)}", "mu+2",
        lambda mu: mu + 2, param="mu",
        provenance="multigerm table, cubic family plus cuspidal edge"))

    # multigerm table: trigerms
    entries.append(_k_entry(
        "A1A1A1-a", "multigerm",
        "{(x^2,y,z);(x^2+y+z^<k>,y,z);(x,y^2,z)}", "k-1",
        lambda k: k - 1,
        provenance="multigerm table, three folds, first family "
                   "(k=1 is the stable triple point)"))
    entries.append(_k_entry(
        "A1A1A1-b", "multigerm",
        "{(x^2,y,z);(x^2+y^<k>+z^2,y,z);(x,y^2,z)}", "k",
        lambda k: k,
        provenance="multigerm table, three folds, second family"))
    entries.append(_k_entry(
        "A1A1A1-c", "multigerm",
        "{(x^2,y,z);(x^2+y*z+z^<k>,y,z);(x,y^2,z)}", "k",
        lambda k: k, param_min=2,
        provenance="multigerm table, three folds, third family"))
    entries.append(_fixed_entry(
        "A1A1A1-d", "multigerm",
        "{(x^2,y,z);(x^2+y^2+z^3,y,z);(x,y^2,z)}", 4,
        provenance="multigerm table, three folds, exceptional form"))
    entries.append(_k_entry(
        "A1A1A2-a", "multigerm",
        "{(x,y,z^2);(x,y,z^2+y^2+x^<k>);(x^3+y*x,y,z)}", "k+1",
        lambda k: k + 1,
        provenance="multigerm table, two folds and a cuspidal edge, "
                   "first family"))
    entries.append(_k_entry(
        "A1A1A2-b", "multigerm",
        "{(x,y,z^2);(x,y^2+z^<k>,z);(x^3+y*x,y,z)}", "k",
        lambda k: k,
        provenance="multigerm table, two folds and a cuspidal edge, "
                   "second family"))
    entries.append(_k_entry(
        "3_muA1A1", "multigerm",
        "{(x^3+y^2*x+z^<k1>*x,y,z);(x,y,z^2);(x,y,z^2+y)}", "mu+2",
        lambda mu: mu + 2, param="mu", param_min=2,
        provenance="multigerm table, cubic family plus two folds",
        note="Encoded from mu = 2: the mu = 1 instantiation of this "
             "template recomputes to codimension 4 and matches the mu = 2 "
             "member invariant for invariant, so the row starts at mu = 2."))

    # multigerm table: quadrigerm
    entries.append(_k_entry(
        "A1A1A1A1", "multigerm",
        "{(x^2,y,z);(x,y^2,z);(x^2+y+z^<k>,y,z);(x,y,z^2)}", "k",
        lambda k: k,
        provenance="multigerm table, four folds"))
    return tuple(entries)


_CATALOG = _catalog()
_BY_NAME = {e.name: e for e in _CATALOG}
# the branch count of a row is the same at every parameter value
_BRANCHES = {e.name: e.template.count(";") + 1 for e in _CATALOG}


def entries() -> tuple[AtlasEntry, ...]:
    """The full fixed catalog, monogerm rows first."""
    return _CATALOG


def _normalize_params(entry: AtlasEntry, params: Mapping | None):
    """Returns (params dict for reporting, hashable build arguments)."""
    params = dict(params or {})
    if entry.param is None:
        if params:
            raise ValueError(f"{entry.name} takes no parameters")
        return {}, ()
    if entry.param not in params:
        raise ValueError(f"{entry.name} needs parameter {entry.param!r}")
    extra = set(params) - {entry.param}
    if extra:
        raise ValueError(f"unknown parameters for {entry.name}: {sorted(extra)}")
    value = params[entry.param]
    if entry.param in ("k", "mu"):
        if not isinstance(value, int) or value < entry.param_min:
            raise ValueError(
                f"{entry.name} needs integer {entry.param} >= {entry.param_min}")
        return {entry.param: value}, (value,)
    poly = _coerce_function(value)
    label = value if isinstance(value, tuple) else poly
    return {entry.param: label}, (poly,)


@remembered
def _instance(name: str, args: tuple) -> MultiGerm:
    """The parsed row, its variables in order of first appearance, without
    the search for the canonical order; remembered on the record of the
    row's name under its arguments (`germ.remembered`)."""
    return syntax.parse_multigerm(_BY_NAME[name]._text(*args),
                                  canonical=False)


def _resolve(name: str, params: Mapping | None):
    """The catalog row `name` and `_normalize_params` of it."""
    entry = _BY_NAME.get(name)
    if entry is None:
        raise ValueError(f"unknown atlas entry {name!r}")
    return (entry, *_normalize_params(entry, params))


def instantiate(name: str, params: Mapping | None = None) -> MultiGerm:
    """Build the normal form of a catalog row at the given parameters, in
    canonical variable order: the germ `syntax.parse_multigerm` gives for
    the row's text."""
    _, _, args = _resolve(name, params)
    return syntax.canonical_variable_order(_instance(name, args))


def expected_codim(name: str, params: Mapping | None = None) -> int:
    """Evaluate the codimension formula of a catalog row."""
    entry, _, args = _resolve(name, params)
    if entry._codim is not None:
        return entry._codim(*args)
    return milnor(args[0])  # function-parameter rows: mu of P


@dataclass(frozen=True)
class VerifyRow:
    name: str
    params_text: str
    computed: int | None
    expected: int
    match: bool
    degree_used: int | None
    seconds: float
    note: str = ""
    c: int | None = None


@dataclass(frozen=True)
class VerifyReport:
    rows: tuple[VerifyRow, ...]

    @property
    def all_match(self) -> bool:
        return all(row.match for row in self.rows)

    def as_dict(self) -> dict:
        return {
            "all_match": self.all_match,
            "rows": [{
                "name": row.name, "params": row.params_text,
                "computed": row.computed, "expected": row.expected,
                "match": row.match, "degree_used": row.degree_used,
                "c": row.c,
                "seconds": round(row.seconds, 3), "note": row.note,
            } for row in self.rows],
        }


def _params_text(params: Mapping) -> str:
    if not params:
        return "-"
    bits = []
    for key, value in params.items():
        if isinstance(value, tuple):
            bits.append(f"{key}={value[0]}{value[1]}")
        elif isinstance(value, Poly):
            bits.append(f"{key}={syntax.render_poly(value)}")
        else:
            bits.append(f"{key}={value}")
    return ",".join(bits)


def verify(name: str, params: Mapping | None = None,
           d_max: int = D_MAX) -> VerifyRow:
    """Recompute the codimension of one instantiation and compare.

    The row is parsed in its order of first appearance, without the search
    for the canonical variable order that `instantiate` runs.  That is
    exact: a permutation of the source or target variables is a linear
    change of coordinates, which changes no truncated value, so neither
    the value, the certified degree, c (from the branch multiplicities)
    nor the values of a failed search, which are all `VerifyRow` reports,
    depend on the order.  (Whether a proof that the codimension is
    infinite is found can depend on the coordinates, but no catalog row
    has one: each has finite codimension.)"""
    _, display, args = _resolve(name, params)
    expected = expected_codim(name, params)
    start = time.perf_counter()
    try:
        result = tangent.ae_codim(_instance(name, args), d_max)
    except NotStabilizedError as exc:
        return VerifyRow(name=name, seconds=time.perf_counter() - start,
                         params_text=_params_text(display), computed=None,
                         expected=expected, match=False, degree_used=None,
                         note=f"did not stabilize: {exc}")
    return VerifyRow(name=name, seconds=time.perf_counter() - start,
                     params_text=_params_text(display),
                     computed=result.value, expected=expected,
                     match=result.value == expected,
                     degree_used=result.degree_used, c=result.c)


def _parameter_sweep(entry: AtlasEntry, param_cap: int) -> list[Mapping]:
    if entry.param is None:
        return [{}]
    if entry.param in ("k", "mu"):
        return [{entry.param: v}
                for v in range(entry.param_min, param_cap + 1)]
    return [{entry.param: label} for label in simple_functions_up_to(param_cap)]


def verify_all(param_cap: int = 3,
               d_max: int = D_MAX) -> VerifyReport:
    """Recompute every catalog row at all parameter values up to the cap."""
    if param_cap < 1:
        raise ValueError("param_cap must be at least 1")
    rows = []
    for entry in _CATALOG:
        for params in _parameter_sweep(entry, param_cap):
            rows.append(verify(entry.name, params, d_max))
    return VerifyReport(rows=tuple(rows))


@dataclass(frozen=True)
class LookupResult:
    """Catalog rows compatible with a germ.

    `exact` means one instantiation matched the germ literally (up to
    branch order and variable reindexing); otherwise `matches` lists every
    row whose invariant tuple (dimensions, branch count, type label,
    codimension) agrees, which may be ambiguous.
    """

    matches: tuple[tuple[str, Mapping], ...]
    exact: bool


def _candidate_params(entry: AtlasEntry, aecod: int) -> list[Mapping]:
    if entry.param is None:
        return [{}] if entry._codim() == aecod else []
    if entry.param in ("k", "mu"):
        out = []
        for v in range(entry.param_min, entry.param_min + aecod + 3):
            if entry._codim(v) == aecod:
                out.append({entry.param: v})
        return out
    # function-parameter rows: mu(P) must equal the codimension
    if aecod == 0:
        return [{entry.param: ("A", 0)}]
    labels = [("A", aecod)]
    if aecod >= 4:
        labels.append(("D", aecod))
    if aecod in (6, 7, 8):
        labels.append(("E", aecod))
    return [{entry.param: label} for label in labels]


def _term_counts(f: MultiGerm) -> list[int]:
    """The number of terms of each branch, sorted: unchanged by branch
    order and by reindexing source variables or target components."""
    return sorted(sum(len(c.items()) for c in b.components)
                  for b in f.branches)


def lookup(f: MultiGerm,
           d_max: int = D_MAX) -> LookupResult:
    """Classify a germ against the catalog.

    The pool is every instantiation with f's codimension and dimensions
    (n, p, r).  The pool members that coincide with the germ up to branch
    order and the order of source variables and target components,
    compared by their match keys, are returned with exact=True; all of
    them, since distinct rows can share boundary members.  Every instance
    is integral, so a germ with a non-integral coefficient matches none
    literally and no key is compared.  Equal keys imply equal type labels,
    so no catalog row's invariants are computed for an exact match, and it
    is decided at any cap that decides f's own.  Only when none matches
    are the pool members filtered on the rest of the invariant tuple, the
    type label (which fixes the multiplicity), with exact=False.  Every
    catalog row has corank <= 1, so a germ with a branch of corank >= 2
    matches none, and nothing is computed for it.  Propagates
    stabilization failures and proofs of an infinite dimension
    (ProvedInfiniteError), which no catalog row has.
    """
    if germ_mod.germ_corank(f) > 1:
        return LookupResult(matches=(), exact=False)
    t_f = germ_mod.recognize_type(f, d_max)
    ae_f = tangent.ae_codim(f, d_max).value
    shape = (f.n, f.p, f.r)
    # neither the match key nor an invariant depends on the variable
    # order, so the pool is parsed without the search for the canonical one
    pool: list[tuple[str, Mapping, MultiGerm]] = []
    for entry in _CATALOG:
        if _BRANCHES[entry.name] != f.r:
            continue
        for params in _candidate_params(entry, ae_f):
            display, args = _normalize_params(entry, params)
            inst = _instance(entry.name, args)
            if (inst.n, inst.p, inst.r) == shape:
                pool.append((entry.name, display, inst))
    integral = all(c.denominator == 1 for branch in f.branches
                   for comp in branch.components for _, c in comp.items())
    counts, key, exact = _term_counts(f), None, []
    for name, display, inst in pool if integral else ():
        if _term_counts(inst) != counts:
            continue
        if key is None:
            key = syntax.canonical_match_key(f)
        if syntax.canonical_match_key(inst) == key:
            exact.append((name, display))
    if exact:
        return LookupResult(matches=tuple(exact), exact=True)
    matches = [(name, display) for name, display, inst in pool
               if germ_mod.recognize_type(inst, d_max) == t_f]
    return LookupResult(matches=tuple(matches), exact=False)


def export_document() -> dict:
    """The catalog as one self-describing JSON document."""
    return {
        "format": "germcalc-atlas",
        "version": 1,
        "entries": [{
            "name": e.name,
            "kind": e.kind,
            "template": e.template,
            "codim_formula": e.codim_formula,
            "param": e.param,
            "param_min": e.param_min,
            "provenance": e.provenance,
            "note": e.note,
        } for e in _CATALOG],
    }
