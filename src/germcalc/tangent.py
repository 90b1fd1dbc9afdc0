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
engine reads the values at increasing d until they repeat per the
stabilization policy.  Every value is invariant under linear changes of
coordinates, so the engine works on the linear prenormal form of the germ
(`germ.linear_prenormal_form`), which is the germ itself unless a linear
change makes it strictly sparser.  It builds and eliminates the rows once,
at a top degree D, in a local order, and reads the value at every d <= D
from the pivots (see `ring.eliminate_graded`); a higher D is tried only
when the policy has not fired by D.  The quotient basis is returned as the
free slots of that elimination, the standard monomials of the local order:
the unit section at a slot places one source monomial in one component of
one branch and zero elsewhere.

The extended variant allows constant vector fields on both sides; the
non-extended variant restricts the ambient to sections without constant
term and the generators to multiples by variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .germ import MultiGerm, linear_prenormal_form, multiplicity
from .ring import (DEFAULT_POLICY, Poly, StabilizationPolicy, eliminate_graded,
                   monomial_mul, monomials_up_to, stabilize_curve)

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


def _int_coef(coef: Fraction):
    return coef.numerator if coef.denominator == 1 else coef


def _int_terms(poly: Poly) -> dict[tuple[int, ...], object]:
    return {mono: _int_coef(coef) for mono, coef in poly.items()}


def _mul_truncated(a: dict, b_by_degree: list, d: int) -> dict:
    """Product of term dicts, dropping degrees above d while multiplying.

    b_by_degree is a list of (degree, mono, coef) sorted by degree.
    """
    out: dict = {}
    for ma, ca in a.items():
        da = sum(ma)
        for db, mb, cb in b_by_degree:
            if da + db > d:
                break
            mono = monomial_mul(ma, mb)
            acc = out.get(mono, 0) + ca * cb
            if acc:
                out[mono] = acc
            elif mono in out:
                del out[mono]
    return out


def _tangent_rows(f: MultiGerm, d: int, extended: bool,
                  col: dict[Slot, int]) -> list[dict[int, object]]:
    n, p = f.n, f.p
    rows: list[dict[int, object]] = []
    alpha_min = 0 if extended else 1

    # derivative rows, one branch at a time
    for b, branch in enumerate(f.branches):
        for j in range(n):
            partials = [_int_terms(comp.diff(j)) for comp in branch.components]
            if not any(partials):
                continue
            base_order = min(min(sum(m) for m in q) for q in partials if q)
            for alpha in monomials_up_to(n, d - base_order):
                deg_a = sum(alpha)
                if deg_a < alpha_min:
                    continue
                row: dict[int, object] = {}
                for l, q in enumerate(partials):
                    for mono, coef in q.items():
                        if deg_a + sum(mono) <= d:
                            key = col[(b, l, monomial_mul(alpha, mono))]
                            acc = row.get(key, 0) + coef
                            if acc:
                                row[key] = acc
                            elif key in row:
                                del row[key]
                if row:
                    rows.append(row)

    # target rows: compositions y^beta o f_i, the same beta on every branch
    beta_min = 0 if extended else 1
    betas = monomials_up_to(p, d)
    compositions: list[dict[tuple[int, ...], dict]] = []
    for branch in f.branches:
        comps_sorted = [
            sorted(((sum(m), m, c) for m, c in _int_terms(comp).items()))
            for comp in branch.components]
        table: dict[tuple[int, ...], dict] = {(0,) * p: {(0,) * n: 1}}
        for beta in betas:
            if sum(beta) == 0:
                continue
            m = next(i for i, e in enumerate(beta) if e)
            prev = list(beta)
            prev[m] -= 1
            table[beta] = _mul_truncated(table[tuple(prev)], comps_sorted[m], d)
        compositions.append(table)
    for l in range(p):
        for beta in betas:
            if sum(beta) < beta_min:
                continue
            row = {}
            for b in range(f.r):
                for mono, coef in compositions[b][beta].items():
                    key = col[(b, l, mono)]
                    acc = row.get(key, 0) + coef
                    if acc:
                        row[key] = acc
                    elif key in row:
                        del row[key]
            if row:
                rows.append(row)
    return rows


def _graded_tangent(f: MultiGerm, top: int,
                    extended: bool) -> tuple[list[int], list[Slot]]:
    """One elimination at top degree `top`: the value at every degree
    0..top and the free slots in ascending order."""
    min_deg = 0 if extended else 1
    slots: list[Slot] = []
    for mono in monomials_up_to(f.n, top):
        if sum(mono) < min_deg:
            continue
        for b in range(f.r):
            for l in range(f.p):
                slots.append((b, l, mono))
    slots.sort(key=lambda s: (sum(s[2]), s[0], s[1], s[2]))
    return eliminate_graded(
        slots, [sum(s[2]) for s in slots],
        lambda col: _tangent_rows(f, top, extended, col), top)


def _stabilized_codim(f: MultiGerm, policy: StabilizationPolicy,
                      extended: bool) -> CodimResult:
    # the value at every degree is invariant under linear changes of
    # coordinates, and the sparser form costs far less fill-in
    g, _, _ = linear_prenormal_form(f)
    if policy.d0 is not None:
        d0 = policy.d0
    else:
        d0 = multiplicity(f, policy) + 4
    curve, degree, free = stabilize_curve(
        lambda top: _graded_tangent(g, top, extended), d0, policy,
        "codimension")
    return CodimResult(value=curve[-1], degree_used=degree, curve=curve,
                       basis=tuple(free))


@lru_cache(maxsize=None)
def ae_codim(f: MultiGerm, policy: StabilizationPolicy = DEFAULT_POLICY) -> CodimResult:
    """Codimension of the extended tangent space; 0 exactly for stable germs."""
    return _stabilized_codim(f, policy, extended=True)


@lru_cache(maxsize=None)
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
