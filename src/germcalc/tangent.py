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
true codimension once d passes the (unknown) determinacy degree.  The
engine stops only where a Nakayama certificate proves that it has (the
Mather-Gaffney route to finite determinacy; Bruce, du Plessis and Wall,
"Determinacy and unipotency", Invent. Math. 88, 1987; Wall, "Finite
determinacy of smooth map-germs", Bull. LMS 13, 1981):

  * T, the tangent space (TA_e f, or tf(m_n theta_n) + wf(m_p theta_p)
    for the non-extended variant), is an O_p-module through f^*.  Because
    f is finite, theta(f) and M_k = m^{k+1} theta(f) are finitely
    generated O_p-modules.
  * If M_k lies in T + f^*(m_p) M_k, Nakayama's lemma gives M_k inside T,
    so the truncated value at k is the codimension.
  * f^*(m_p) M_k is the sum over branches b of I_b M_{k,b}, with
    I_b = f_b^*(m_p) O_n, and it contains m^{k+1+c} theta(f) for
    c = max over b of the least d with m^d inside I_b
    (`germ.multiplicity_and_power`).  So the test is finite: at top degree
    k + c, add the certificate rows f_{b,i} x^a e_{b,l'} for |a| >= k+1,
    for every component i and the kept components l' (the substitution
    below maps I_b M_{k,b} onto its image in the reduced module).  The
    test passes when every slot of degree k+1..k+c is a pivot, which is
    `values[k + c] == values[k]`.
  * The certificate rows have order >= k+2, so the values and free slots
    at degrees <= k+1 are the engine's own, and the basis at the certified
    degree keeps its meaning.
  * Passing is monotone: M_k inside T gives M_k' inside T for every
    k' >= k.  So any passing k gives the exact value, and a failure at
    k = d_max proves that no k <= d_max passes.
  * A target row (y^beta o f) e_l with |beta| >= k+2 already lies in
    f^*(m_p) M_k (write y^beta = y_i y^gamma with |gamma| >= k+1), so with
    the certificate rows only the target rows of |beta| <= k+1 are built.

The first candidate is k = m + 3 - c, m the multiplicity of f, so the
first elimination is at top m + 3; after a failure k moves to
max(k + 2, v(k+1) + 1), v(k+1) being the exact value at degree k+1 that
the failed elimination gave, and k never passes `d_max` (see
`ring.stabilize_curve`).  Every value is invariant under linear changes
of coordinates, so the engine works on the linear prenormal form of the
germ (`germ.linear_prenormal_form`), which is the germ itself unless a
linear change makes it strictly sparser.

The rows are built in a reduced module, without the coordinate components
of each branch (the unfolding reduction of Marar and Mond).  A component
f_{b,l} = c * x_j, a single degree-1 term, is a coordinate of branch b, at
most one component per variable j; every other component is kept.  Put

    pi(e_{b,l}) = -(1/c) * sum over kept l' of (df_{b,l'}/dx_j) e_{b,l'}

for a coordinate l and pi(e_{b,l}) = e_{b,l} for a kept l.  pi is
O_n-linear and onto the sections theta' of the kept components.  Its
kernel is spanned by the multiples x^a * tf(d/dx_j) on branch b for the
coordinate variables j, since tf(d/dx_j) = c e_{b,l} + sum over kept l'
of (df_{b,l'}/dx_j) e_{b,l'}; so the kernel lies in the tangent space, and
inside m * theta it lies in tf(m theta_n), the non-extended one.  pi never
lowers the degree of a term and maps m^{d+1} theta onto m^{d+1} theta'
(and m * theta onto m * theta').  So pi identifies the quotient at every
truncation degree with theta' modulo pi(tangent space) + m^{d+1} theta',
and every truncated value, extended or not, is unchanged.  In theta' the
derivative rows of the coordinate variables vanish; the others keep their
kept components; a target row (y^beta o f_b) e_{b,l} of a coordinate l
becomes -(1/c) * sum over kept l' of (y^beta o f_b)(df_{b,l'}/dx_j)
e_{b,l'}.  Each target row is scaled by one integer so that its
coefficients stay those of the germ times integers.  A branch without a
coordinate component (a curve, say) is built in full.

The engine builds and eliminates the rows once per candidate k, at the
top degree D = k + c, in a local order, and reads the value at every
d <= D from the pivots (see `ring.eliminate_graded`).  The rows come from
the monomial index tables of `ring`: the slots are numbered by (degree,
branch, kept component, monomial) arithmetically, a derivative row
x^a * df_b/dx_j is one shift table per term of the partial, and the
products (y^beta o f_b) * g, for g = 1 and for each partial a substituted
target row needs, follow the same recursion over beta, kept by the index
of beta and of each source monomial.  Rows with a single entry reach the
elimination as killed columns.  The quotient
basis is returned as the free slots of that elimination, the standard
monomials of the local order: the unit section at a slot places one
source monomial in one kept component of one branch and zero elsewhere;
pi fixes it, so these sections are a basis of the quotient of the full
module too.

The extended variant allows constant vector fields on both sides; the
non-extended variant restricts the ambient to sections without constant
term and the generators to multiples by variables.

Both variants share one cache, keyed by the values (f, d_max, extended)
that `ae_codim` and `a_codim` pass positionally, so every spelling of
d_max computes once; a failure is remembered like a value, as for the
branch multiplicities of `germ` (`errors.remember_failures`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import remember_failures
from .germ import Branch, MultiGerm, linear_prenormal_form, multiplicity_and_power
from .ring import (D_MAX, MonomialTables, add_multiples, eliminate_graded,
                   monomial_tables, stabilize_curve)

Slot = tuple[int, int, tuple[int, ...]]  # (branch, component, source monomial)


@dataclass(frozen=True)
class CodimResult:
    """A certified codimension value with the witnessing quotient basis.

    `degree_used` is the degree k whose Nakayama certificate passed, and
    `c` the power of the maximal ideal that certificate reached past it
    (its elimination ran at top degree k + c).  `curve` holds the exact
    truncated values from the first candidate degree up to `degree_used`;
    its last entry is `value`.  `basis` holds the free slots
    (branch, component, source monomial), lowest degree first, whose unit
    sections form a basis of the quotient at `degree_used`; the slots refer
    to the linear prenormal form of the germ and lie in the components the
    engine keeps, never in a coordinate component of a branch.
    """

    value: int
    degree_used: int
    c: int
    curve: tuple[int, ...]
    basis: tuple[Slot, ...]

    def __post_init__(self):
        if len(self.basis) != self.value:
            raise ValueError("basis length must equal the codimension value")
        if not self.curve or self.curve[-1] != self.value:
            raise ValueError("the curve must end at the codimension value")


def _coordinates(branch: Branch) -> dict[int, tuple[int, Fraction]]:
    """The coordinate components of a branch: l -> (j, c) for each
    component c * x_j, the first such component for each variable j."""
    found: dict[int, tuple[int, Fraction]] = {}
    for l, comp in enumerate(branch.components):
        terms = list(comp.items())
        if len(terms) == 1 and sum(terms[0][0]) == 1:
            (mono, c), = terms
            j = mono.index(1)
            if all(j != taken for taken, _ in found.values()):
                found[l] = (j, c)
    return found


def _generator_rows(f: MultiGerm, tables: MonomialTables, min_deg: int,
                    coordinates, colmaps,
                    certify: int | None) -> tuple[list[dict], set[int]]:
    """The derivative and target rows of degree >= min_deg at the top
    degree of `tables`, in the reduced module, as rows and killed columns
    (`eliminate_graded`).  `coordinates[b]` is `_coordinates` of branch b,
    and `colmaps[b][l]` maps a monomial index to the column id of its slot
    in kept component l of branch b.  With a candidate degree `certify` =
    k, the certificate rows of k are added and the target rows stop at
    |beta| = k + 1 (see the module docstring)."""
    n, p = f.n, f.p
    rows: list[dict] = []
    killed: set[int] = set()
    memo: dict[int, list[int]] = {}

    # derivative rows x^a * df_b/dx_j for the variables j that are no
    # coordinate of branch b, over its kept components
    for b, branch in enumerate(f.branches):
        taken = {j for j, _ in coordinates[b].values()}
        for j in range(n):
            if j not in taken:
                add_multiples(tables, [(k, c, cm)
                                       for l, cm in colmaps[b].items()
                                       for k, c in tables.terms(
                                           branch.components[l].diff(j))],
                              min_deg, rows, killed, memo)

    # target rows: the row of (l, beta) has a part per branch b, the
    # composition y^beta o f_b in component l when l is kept on b, and
    # else, for each kept l', the product (y^beta o f_b) * g in l' with
    # g = -(scale / c) * df_{b,l'}/dx_j.  The compositions, kept by the
    # index of beta, follow a recursion over beta, each beta reached from
    # beta / y_v for the v in it with the fewest terms in f_b (for a
    # coordinate, one shift).  A one-term g is one more shift, applied to
    # the column map; a longer g starts the same recursion from g.
    betas = monomial_tables(p, tables.top if certify is None
                            else min(tables.top, certify + 1))
    below = betas.start[betas.top]

    def products(seed: dict, comps: list, parent: list) -> list[dict]:
        table = [seed]
        for v, prev in parent[1:]:
            table.append(tables.multiply(table[prev], comps[v], memo))
        return table

    # the rows of component l are scaled by the least common multiple of
    # the numerators of its coordinate coefficients c, so every -scale / c
    # is an integer
    scale = [lcm(*(abs(coords[l][1].numerator) for coords in coordinates
                   if l in coords)) for l in range(p)]
    # parts[l]: (table by beta, column map, scale, length of the map)
    parts: list[list] = [[] for _ in range(p)]
    for b, branch in enumerate(f.branches):
        comps = [tables.terms(comp) for comp in branch.components]
        parent = [None] * len(betas.monos)
        for v in sorted(range(p), key=lambda v: len(comps[v])):
            for i, k in enumerate(betas.step[v][:below]):
                if parent[k] is None:
                    parent[k] = (v, i)
        compositions = products({0: 1}, comps, parent)
        for l in range(p):
            if l in colmaps[b]:
                cm = colmaps[b][l]
                parts[l].append((compositions, cm, scale[l], len(cm)))
                continue
            j, c = coordinates[b][l]
            factor = int(-scale[l] / c)
            for kept, cm in colmaps[b].items():
                terms = tables.terms(branch.components[kept].diff(j))
                if len(terms) == 1:
                    # a one-term partial x^k moves the compositions by one
                    # shift, which maps distinct monomials to distinct slots
                    (k, coef), = terms
                    moved = [cm[i] for i in tables.shift(k, memo)]
                    parts[l].append((compositions, moved, factor * coef,
                                     len(moved)))
                elif terms:
                    parts[l].append((products(
                        {k: factor * v for k, v in terms}, comps, parent),
                        cm, 1, len(cm)))
    for l in range(p):
        for beta in range(min_deg, len(betas.monos)):
            row = {cm[i]: s * c for table, cm, s, fits in parts[l]
                   for i, c in table[beta].items() if i < fits}
            if len(row) > 1:
                rows.append(row)
            else:
                killed.update(row)

    # certificate rows x^a * f_{b,i} in each kept component of branch b
    if certify is not None:
        for b, branch in enumerate(f.branches):
            for comp in branch.components:
                terms = tables.terms(comp)
                for cm in colmaps[b].values():
                    add_multiples(tables, [(k, c, cm) for k, c in terms],
                                  certify + 1, rows, killed, memo)
    return rows, killed


def _graded_tangent(f: MultiGerm, top: int, extended: bool,
                    certify: int | None = None) -> tuple[list[int], list[Slot]]:
    """One elimination at top degree `top`: the value at every degree
    0..top and the free slots in ascending order.  With a candidate degree
    `certify`, the rows are those of its certificate, and the values and
    slots are the engine's own at degrees <= certify + 1 only.

    The slots run by (degree, branch, kept component, monomial): with K
    kept components over all branches, the q-th of them in (branch,
    component) order, the slot of mono_k there sits at position
    K start[d] + q width_d + k - start[d] of the degree-d block (d = deg k,
    width_d monomials of degree d), less the degree-0 block when not
    extended; its column id is computed from that, not looked up.
    """
    coordinates = [_coordinates(branch) for branch in f.branches]
    blocks = [(b, l) for b, coords in enumerate(coordinates)
              for l in range(f.p) if l not in coords]
    kept = len(blocks)
    tables = monomial_tables(f.n, top)
    start, deg = tables.start, tables.deg
    min_deg = 0 if extended else 1
    width = [start[d + 1] - start[d] for d in range(top + 1)]
    widths = [kept * w if d >= min_deg else 0 for d, w in enumerate(width)]
    # id = last - position; `offset - base[k]` is the id at q = 0
    offset = sum(widths) - 1 + kept * start[min_deg]
    base = [(kept - 1) * start[d] + k for k, d in enumerate(deg)]
    colmaps: list[dict[int, list[int]]] = [{} for _ in f.branches]
    for q, (b, l) in enumerate(blocks):
        colmaps[b][l] = [offset - bk - q * width[d]
                         for bk, d in zip(base, deg)]

    # the builder's tables die before the elimination allocates
    values, free = eliminate_graded(
        widths, *_generator_rows(f, tables, min_deg, coordinates, colmaps,
                                 certify))
    bounds = [kept * s for s in start]  # where each degree block begins
    slots = []
    for position in free:
        position += bounds[min_deg]
        d = bisect_right(bounds, position) - 1
        q, i = divmod(position - bounds[d], width[d])
        slots.append((*blocks[q], tables.monos[start[d] + i]))
    return values, slots


def _stabilized_codim(f: MultiGerm, d_max: int, extended: bool) -> CodimResult:
    # the value at every degree is invariant under linear changes of
    # coordinates, and the sparser form costs far less fill-in
    g, _, _ = linear_prenormal_form(f)
    m, c = multiplicity_and_power(f, d_max)
    start = m + 3 - c
    values, degree, free = stabilize_curve(
        lambda k, top: _graded_tangent(g, top, extended, k), start, c,
        lambda k, values: max(k + 2, values[k + 1] + 1), d_max,
        "codimension")
    # the first candidate was min(start, d_max), which is at most degree
    return CodimResult(value=values[-1], degree_used=degree, c=c,
                       curve=values[min(start, degree):],
                       basis=tuple(free))


@remember_failures(maxsize=1024)
def _codim(f: MultiGerm, d_max: int, extended: bool) -> CodimResult:
    return _stabilized_codim(f, d_max, extended)


@lru_cache(maxsize=1024)
def ae_codim(f: MultiGerm, d_max: int = D_MAX) -> CodimResult:
    """Codimension of the extended tangent space; 0 exactly for stable germs.

    Raises NotStabilizedError when no candidate degree up to d_max passes
    its certificate, afresh but without computing again when repeated."""
    return _codim(f, d_max, True)


@lru_cache(maxsize=1024)
def a_codim(f: MultiGerm, d_max: int = D_MAX) -> CodimResult:
    """Codimension of the non-extended tangent space inside sections without
    constant term; fails as `ae_codim` does."""
    return _codim(f, d_max, False)


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


def wilson_check(f: MultiGerm, d_max: int = D_MAX) -> WilsonReport:
    """Compare the two codimension engines through the codimension relation.

    Not applicable for stable germs (extended codimension 0).
    """
    ae = ae_codim(f, d_max).value
    if ae == 0:
        return WilsonReport(status=WilsonReport.NOT_APPLICABLE, extended=0)
    a = a_codim(f, d_max).value
    expected = a + f.r * (f.p - f.n) - f.p
    status = WilsonReport.CONSISTENT if ae == expected else WilsonReport.INCONSISTENT
    return WilsonReport(status=status, extended=ae, non_extended=a,
                        expected_extended=expected)


def is_stable(f: MultiGerm, d_max: int = D_MAX) -> bool:
    """True exactly when the extended codimension vanishes."""
    return ae_codim(f, d_max).value == 0
