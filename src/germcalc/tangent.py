"""Codimension of a multigerm by exact linear algebra on truncated jets.

The module computes the dimension of sections-of-the-pullback modulo the
tangent space to the equivalence orbit.  At truncation degree d the ambient
space is spanned by unit sections (branch, component, source monomial of
degree <= d); the tangent space is spanned by two generator families:

  * derivative rows: for each branch i, source variable j and source
    monomial a with |a| <= d, the section placing (df_i/dx_j) * x^a in
    branch i and zero elsewhere;
  * target rows: for each target component l and target monomial y^b with
    |b| <= d, the section whose branch-i entry is (y^b composed with f_i)
    in component l -- the same vector field acting on every branch at once,
    which is what distinguishes the multigerm computation from running the
    branches separately.

The reported value at degree d is dim of the ambient modulo these rows,
i.e. the codimension of the tangent space after adding all sections of
component degree > d.  The value is non-decreasing in d and reaches the
true codimension once d passes the (unknown) determinacy degree, so the
engine reads the values at increasing d, from the multiplicity plus 4,
until `window` consecutive ones agree (the stabilization policy).  Every
value is invariant under linear changes of coordinates, so the engine
works on the linear prenormal form of the germ
(`germ.linear_prenormal_form`), which is the germ itself unless a linear
change makes it strictly sparser.  It builds and eliminates the rows once,
at a top degree D, in a local order, and reads the value at every d <= D
from the pivots (see `ring.eliminate_graded`); a higher D is tried only
when the policy has not fired by D.  The rows come from the monomial
index tables of `ring`: the slots are numbered by (degree, branch,
component, monomial) arithmetically, a derivative row x^a * df_b/dx_j is
one shift table per term of the partial, and the compositions y^beta o f_b
are kept by the index of beta and of each source monomial.  A partial
with a single term, as every coordinate component of the prenormal form
has, is an identity block: its rows reach the elimination as killed
columns, as does every target row with a single entry.  The quotient
basis is returned as the free slots of that elimination, the standard
monomials of the local order: the unit section at a slot places one
source monomial in one component of one branch and zero elsewhere.

The extended variant allows constant vector fields on both sides; the
non-extended variant restricts the ambient to sections without constant
term and the generators to multiples by variables.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .germ import MultiGerm, linear_prenormal_form, multiplicity
from .ring import (DEFAULT_POLICY, MonomialTables, StabilizationPolicy,
                   add_multiples, eliminate_graded, monomial_tables,
                   stabilize_curve)

Slot = tuple[int, int, tuple[int, ...]]  # (branch, component, source monomial)


@dataclass(frozen=True)
class CodimResult:
    """A stabilized codimension value with the witnessing quotient basis.

    `curve` holds the truncated values from the starting degree up to
    `degree_used`; its last entry is `value`.  `basis` holds the free slots
    (branch, component, source monomial), lowest degree first, whose unit
    sections form a basis of the quotient at `degree_used`; the slots refer
    to the linear prenormal form of the germ.
    """

    value: int
    degree_used: int
    curve: tuple[int, ...]
    basis: tuple[Slot, ...]

    def __post_init__(self):
        if len(self.basis) != self.value:
            raise ValueError("basis length must equal the codimension value")
        if not self.curve or self.curve[-1] != self.value:
            raise ValueError("the curve must end at the codimension value")


def _generator_rows(f: MultiGerm, tables: MonomialTables, min_deg: int,
                    colmap) -> tuple[list[dict], set[int]]:
    """The derivative and target rows of degree >= min_deg at the top
    degree of `tables`, as rows and killed columns (`eliminate_graded`);
    `colmap(b, l)` maps a monomial index to the column id of its slot in
    component l of branch b."""
    n, p, r = f.n, f.p, f.r
    colmaps = [[colmap(b, l) for l in range(p)] for b in range(r)]
    rows: list[dict] = []
    killed: set[int] = set()
    memo: dict[int, list[int]] = {}

    # derivative rows x^a * df_b/dx_j, one branch at a time; a coordinate
    # component's partial is a single term, an identity block of kills
    for b, branch in enumerate(f.branches):
        for j in range(n):
            terms = [(k, c, colmaps[b][l])
                     for l, comp in enumerate(branch.components)
                     for k, c in tables.terms(comp.diff(j))]
            add_multiples(tables, terms, min_deg, rows, killed, memo)

    # target rows: compositions y^beta o f_b, kept by the index of beta, the
    # same beta on every branch; distinct branches never share a column
    betas = monomial_tables(p, tables.top)
    compositions = []
    for branch in f.branches:
        comps = [tables.terms(comp) for comp in branch.components]
        table = [{0: 1}]
        for v, prev in betas.parent[1:]:
            table.append(tables.multiply(table[prev], comps[v], memo))
        compositions.append(table)
    for l in range(p):
        maps = [colmaps[b][l] for b in range(r)]
        for beta in range(min_deg, len(betas.monos)):
            row = {cm[i]: c for cm, table in zip(maps, compositions)
                   for i, c in table[beta].items()}
            if len(row) > 1:
                rows.append(row)
            else:
                killed.update(row)
    return rows, killed


def _graded_tangent(f: MultiGerm, top: int,
                    extended: bool) -> tuple[list[int], list[Slot]]:
    """One elimination at top degree `top`: the value at every degree
    0..top and the free slots in ascending order.

    The slots run by (degree, branch, component, monomial), so the slot of
    (b, l, mono_k) sits at position rp * start[d] + (b p + l) * width_d +
    k - start[d] of the degree-d block (d = deg k, width_d monomials of
    degree d), less the degree-0 block when not extended; its column id
    is computed from that, not looked up.
    """
    p, rp = f.p, f.r * f.p
    tables = monomial_tables(f.n, top)
    start, deg = tables.start, tables.deg
    min_deg = 0 if extended else 1
    width = [start[d + 1] - start[d] for d in range(top + 1)]
    widths = [rp * w if d >= min_deg else 0 for d, w in enumerate(width)]
    # id = last - position; `offset - base[k]` is the id at b = l = 0
    offset = sum(widths) - 1 + rp * start[min_deg]
    base = [(rp - 1) * start[d] + k for k, d in enumerate(deg)]

    def colmap(b: int, l: int) -> list[int]:
        return [offset - bk - (b * p + l) * width[d] for bk, d in zip(base, deg)]

    # the builder's tables die before the elimination allocates
    values, free = eliminate_graded(
        widths, *_generator_rows(f, tables, min_deg, colmap))
    bounds = [rp * s for s in start]  # where each degree block begins
    slots = []
    for position in free:
        position += bounds[min_deg]
        d = bisect_right(bounds, position) - 1
        bl, i = divmod(position - bounds[d], width[d])
        slots.append((*divmod(bl, p), tables.monos[start[d] + i]))
    return values, slots


def _stabilized_codim(f: MultiGerm, policy: StabilizationPolicy,
                      extended: bool) -> CodimResult:
    # the value at every degree is invariant under linear changes of
    # coordinates, and the sparser form costs far less fill-in
    g, _, _ = linear_prenormal_form(f)
    curve, degree, free = stabilize_curve(
        lambda top: _graded_tangent(g, top, extended),
        multiplicity(f, policy) + 4, policy.window, policy.d_max,
        "codimension")
    return CodimResult(value=curve[-1], degree_used=degree, curve=curve,
                       basis=tuple(free))


@lru_cache(maxsize=1024)
def ae_codim(f: MultiGerm, policy: StabilizationPolicy = DEFAULT_POLICY) -> CodimResult:
    """Codimension of the extended tangent space; 0 exactly for stable germs."""
    return _stabilized_codim(f, policy, extended=True)


@lru_cache(maxsize=1024)
def a_codim(f: MultiGerm, policy: StabilizationPolicy = DEFAULT_POLICY) -> CodimResult:
    """Codimension of the non-extended tangent space inside sections without
    constant term."""
    return _stabilized_codim(f, policy, extended=False)


@dataclass(frozen=True)
class WilsonReport:
    """Outcome of the arithmetic cross-check between the two codimensions.

    For a simple germ of nonzero extended codimension the two engines must
    satisfy  extended = non-extended + r(p - n) - p.
    """

    status: str  # "consistent" | "inconsistent" | "not_applicable"
    extended: int | None = None
    non_extended: int | None = None
    expected_extended: int | None = None

    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"
    NOT_APPLICABLE = "not_applicable"


def wilson_check(f: MultiGerm,
                 policy: StabilizationPolicy = DEFAULT_POLICY) -> WilsonReport:
    """Compare the two codimension engines through the codimension relation.

    Not applicable for stable germs (extended codimension 0).
    """
    ae = ae_codim(f, policy).value
    if ae == 0:
        return WilsonReport(status=WilsonReport.NOT_APPLICABLE, extended=0)
    a = a_codim(f, policy).value
    expected = a + f.r * (f.p - f.n) - f.p
    status = WilsonReport.CONSISTENT if ae == expected else WilsonReport.INCONSISTENT
    return WilsonReport(status=status, extended=ae, non_extended=a,
                        expected_extended=expected)


def is_stable(f: MultiGerm, policy: StabilizationPolicy = DEFAULT_POLICY) -> bool:
    """True exactly when the extended codimension vanishes."""
    return ae_codim(f, policy).value == 0
