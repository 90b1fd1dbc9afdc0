"""The one-pass truncation curve against per-degree eliminations.

The engines eliminate once at a top degree D and read the quotient
dimension at every d <= D from the pivots.  The reference here rebuilds
the generator rows at each d on its own and eliminates them separately,
the way the values were defined before the one-pass reading; both must
agree degree by degree.  The reference rows come from an independent
builder that multiplies exponent tuples and looks every slot up in a
dict, so the engine's index tables are checked against plain monomial
arithmetic.  The tangent engine builds its rows in a reduced module,
with each branch's coordinate components substituted away; the reference
builds the full module, and a second reference applies the substitution
to the full module's rows term by term.  The engine's free slots must be
those of that reduced reference, and a basis of the full module's
quotient.  The engine also peels unit rows before its echelon, and hands
over one-entry rows as killed columns; a plain RowSpan fed every row,
with a unit row for each killed column, must give the same free slots.
"""

from __future__ import annotations

import pickle
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germcalc import atlas, tangent
from germcalc.errors import NotStabilizedError, ProvedInfiniteError
from germcalc.germ import (Branch, MultiGerm, linear_prenormal_form,
                           multiplicity, multiplicity_and_power)
from germcalc.ring import (Poly, _graded_ideal, eliminate_graded,
                           monomial_mul, monomial_tables, monomials_up_to,
                           quotient_dim, substitute)
from germcalc.syntax import parse_multigerm
from germcalc.tangent import _SearchRows, ae_codim
from germcalc._echelon import RowSpan
from test_cli import _random_germs


def V(n, i):
    return Poly.variable(n, i)


# -- the reference builder: exponent tuples and a slot -> column dict -------

def _int_terms(poly: Poly) -> dict:
    return {mono: coef.numerator if coef.denominator == 1 else coef
            for mono, coef in poly.items()}


def _reference_mul_truncated(a: dict, b_by_degree: list, d: int) -> dict:
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


def reference_tangent_rows(f: MultiGerm, d: int, extended: bool,
                           col: dict) -> list[dict]:
    """Every derivative and target row at degree d, keyed by `col[slot]`."""
    n, p = f.n, f.p
    rows: list[dict] = []
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
                row: dict = {}
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
    compositions: list[dict] = []
    for branch in f.branches:
        comps_sorted = [
            sorted(((sum(m), m, c) for m, c in _int_terms(comp).items()))
            for comp in branch.components]
        table: dict = {(0,) * p: {(0,) * n: 1}}
        for beta in betas:
            if sum(beta) == 0:
                continue
            m = next(i for i, e in enumerate(beta) if e)
            prev = list(beta)
            prev[m] -= 1
            table[beta] = _reference_mul_truncated(table[tuple(prev)],
                                                   comps_sorted[m], d)
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


def reference_slots(f: MultiGerm, d: int, extended: bool) -> list:
    """The slots of degree <= d by (degree, branch, component, monomial)."""
    min_deg = 0 if extended else 1
    slots = [(b, l, mono) for mono in monomials_up_to(f.n, d)
             if sum(mono) >= min_deg
             for b in range(f.r) for l in range(f.p)]
    slots.sort(key=lambda s: (sum(s[2]), s[0], s[1], s[2]))
    return slots


def graded_curve(free: list, top: int) -> list[int]:
    """The quotient dimension at every degree 0..top from the free slots."""
    return [sum(1 for s in free if sum(s[2]) <= d) for d in range(top + 1)]


def assert_full_module_basis(f: MultiGerm, top: int, extended: bool, curve,
                             free) -> None:
    """`curve` is the full module's, from the reference rows through a
    plain RowSpan, and the unit sections at the `free` slots are a basis of
    the full module's quotient at `top`: each stays outside the span of the
    reference rows until adjoined, as in `test_tangent.TestBasis`."""
    slots = reference_slots(f, top, extended)
    last = len(slots) - 1
    col = {s: last - i for i, s in enumerate(slots)}
    span = RowSpan()
    for row in reference_tangent_rows(f, top, extended, col):
        span.insert(row)
    assert curve == graded_curve(
        [s for s in slots if col[s] not in span.pivots], top)
    assert len(free) == curve[top]
    for slot in free:
        assert span.insert({col[slot]: 1}), slot


# -- the reduced module: each branch's coordinate components substituted ----

def reference_coordinates(f: MultiGerm) -> list[dict]:
    """Per branch, component l -> (j, c) for each component c * x_j, the
    first such component for each variable j."""
    out = []
    for branch in f.branches:
        coords: dict = {}
        for l, comp in enumerate(branch.components):
            terms = list(comp.items())
            if len(terms) == 1 and sum(terms[0][0]) == 1:
                j = terms[0][0].index(1)
                if all(j != jj for jj, _ in coords.values()):
                    coords[l] = (j, terms[0][1])
        out.append(coords)
    return out


def reference_certificate_rows(f: MultiGerm, k: int, top: int) -> list[dict]:
    """The rows x^a * f_{b,i} e_{b,l} for |a| >= k+1, every branch b,
    component i and component l, truncated at top and keyed by slot."""
    rows = []
    for b, branch in enumerate(f.branches):
        for comp in branch.components:
            for alpha in monomials_up_to(f.n, top):
                if sum(alpha) > k:
                    multiple = (comp * Poly.monomial(f.n, alpha)).truncate(top)
                    for l in range(f.p):
                        rows.append({(b, l, mono): c
                                     for mono, c in multiple.items()})
    return [row for row in rows if row]


def graded_tangent(f: MultiGerm, top: int, extended: bool,
                   certify: int | None = None):
    """One elimination at top degree `top` of a new `_SearchRows`, shared
    with no search, and what it reads (`_SearchRows.read`): the values at
    degrees 0..top and the free slots of the variant.  Without a
    candidate degree `certify`, the engine's own rows at `top`."""
    rows = _SearchRows(f)
    return rows.read(top, rows.eliminate(
        top if certify is None else certify, top)[extended])


def reduced_graded_tangent(f: MultiGerm, top: int, extended: bool,
                           certify: int | None = None):
    """`graded_tangent` from the full module's reference rows with the
    substitution e_{b,l} -> -(1/c) sum over kept l' of (df_{b,l'}/dx_j)
    e_{b,l'} applied to every term of a coordinate component l = c x_j,
    through a plain RowSpan over the slots of the kept components.  With
    a candidate degree `certify`, the certificate rows of the full module
    are added, and every target row is built."""
    coords = reference_coordinates(f)
    # the image of e_{b,l} for each coordinate l: (l', monomial, coefficient)
    images = [{l: [(k, m, -w / c) for k in range(f.p) if k not in coords[b]
                   for m, w in branch.components[k].diff(j).items()]
               for l, (j, c) in coords[b].items()}
              for b, branch in enumerate(f.branches)]
    full = reference_slots(f, top, extended)
    slots = [s for s in full if s[1] not in coords[s[0]]]
    last = len(slots) - 1
    col = {s: last - i for i, s in enumerate(slots)}
    span = RowSpan()
    rows = reference_tangent_rows(f, top, extended, {s: s for s in full})
    if certify is not None:
        rows += reference_certificate_rows(f, certify, top)
    for row in rows:
        reduced: dict = {}
        for (b, l, mono), v in row.items():
            if l not in coords[b]:
                image = [((b, l, mono), v)]
            else:
                image = [((b, k, monomial_mul(mono, m)), v * w)
                         for k, m, w in images[b][l]
                         if sum(mono) + sum(m) <= top]
            for s, w in image:
                reduced[col[s]] = reduced.get(col[s], 0) + w
        span.insert(reduced)
    free = [s for s in slots if col[s] not in span.pivots]
    return graded_curve(free, top), free


def tangent_reference(f: MultiGerm, d: int, extended: bool) -> int:
    slots = reference_slots(f, d, extended)
    col = {s: i for i, s in enumerate(slots)}
    span = RowSpan()
    for row in reference_tangent_rows(f, d, extended, col):
        span.insert(row)
    return len(slots) - span.rank


def ideal_reference(gens: list[Poly], nvars: int, d: int) -> int:
    monos = monomials_up_to(nvars, d)
    col = {m: i for i, m in enumerate(monos)}
    span = RowSpan()
    for g in gens:
        for alpha in monos:
            multiple = (g * Poly.monomial(nvars, alpha)).truncate(d)
            span.insert({col[m]: c for m, c in multiple.items()})
    return len(monos) - span.rank


def plain_graded(widths, rows, killed):
    """`eliminate_graded` without the presolve: every row, and a unit row
    for every killed column, through RowSpan.  Position i has column id
    -i."""
    span = RowSpan()
    for row in list(rows) + [{c: 1} for c in killed]:
        span.insert(row)
    free = [i for i in range(sum(widths)) if -i not in span.pivots]
    ends = [sum(widths[:d + 1]) for d in range(len(widths))]
    return [sum(1 for i in free if i < end) for end in ends], free


def copied(phases) -> list:
    return [([dict(r) for r in rows], set(killed)) for rows, killed in phases]


def recorded_eliminations(monkeypatch) -> list:
    """Copies of the arguments of every `eliminate_graded` call made by
    the tangent engine from now on, as (widths, phases) (the call extends
    its first phase's killed set)."""
    calls = []

    def recording(widths, *phases):
        calls.append((list(widths), copied(phases)))
        return eliminate_graded(widths, *phases)

    monkeypatch.setattr(tangent, "eliminate_graded", recording)
    return calls


def assert_phases_match_plain(widths, phases) -> None:
    """After each phase, `eliminate_graded` leaves the columns free that a
    plain RowSpan fed every row and killed column of that phase and the
    phases before leaves free."""
    got = eliminate_graded(widths, *copied(phases))
    assert len(got) == len(phases)
    rows, killed = [], set()
    for (more, units), result in zip(phases, got):
        rows, killed = rows + more, killed | units
        assert result == plain_graded(widths, rows, killed)


def cap3_rows():
    for entry in atlas.entries():
        for params in atlas._parameter_sweep(entry, 3):
            yield f"{entry.name} {params}", atlas.instantiate(entry.name, params)


@pytest.mark.parametrize("extended", [True, False], ids=["ae", "a"])
def test_catalog_curves_match_per_degree_reference(extended, monkeypatch):
    # the free slots are pinned too: the reduced reference rows through a
    # plain RowSpan must leave the same slots free, those slots must be a
    # basis of the full module's quotient, and a plain RowSpan fed the
    # engine's own rows and killed columns must leave the same columns free
    # after each phase of its elimination: the non-extended rows alone, and
    # with the rows only the extended tangent space has
    calls = recorded_eliminations(monkeypatch)
    checked = 0
    for name, germ in cap3_rows():
        d0 = multiplicity(germ) + 4
        curve, free = graded_tangent(germ, d0 + 2, extended)
        reference = [tangent_reference(germ, d, extended)
                     for d in range(d0, d0 + 3)]
        assert curve[d0:] == reference, name
        assert (curve, free) == reduced_graded_tangent(germ, d0 + 2,
                                                       extended), name
        assert_full_module_basis(germ, d0 + 2, extended, curve, free)
        widths, phases = calls.pop()
        assert len(phases) == 2, name
        assert_phases_match_plain(widths, phases)
        checked += 1
    assert checked == 59


X3, Y3, Z3 = V(3, 0), V(3, 1), V(3, 2)
HALF = Fraction(1, 2)


@pytest.mark.parametrize("extended", [True, False], ids=["ae", "a"])
@pytest.mark.parametrize("germ,top", [
    # z^5 lies above top 3, and its partial z^4 too
    (MultiGerm((Branch((X3, Y3, Z3 ** 5 + X3 * Z3)),)), 3),
    (MultiGerm((Branch((X3, Y3, Z3 ** 5 + X3 * Z3 + Y3 * Z3 ** 2)),)), 7),
    # the second branch does not depend on x: every partial in x is zero
    (MultiGerm((Branch((X3, Y3, Z3 ** 2)),
                Branch((Y3, Z3, Y3 * Z3 + Z3 ** 3)))), 5),
    # three branches share every target row
    (MultiGerm((Branch((X3, Y3, Z3 ** 2)), Branch((X3, Z3, Y3 ** 2)),
                Branch((Y3, Z3, X3 ** 2 + Y3 * Z3)))), 5),
    # a plane curve: one source variable, two target components
    (MultiGerm((Branch((V(1, 0) ** 3, V(1, 0) ** 4 + V(1, 0) ** 5)),)), 8),
    # coordinates c * x_j with c = 2; then 2 and 3 in the first component
    # of two branches, kept on a third, so its target rows are scaled by 6;
    # then 1/2
    (MultiGerm((Branch((2 * X3, Y3, Z3 ** 3 + X3 * Z3)),)), 6),
    (MultiGerm((Branch((2 * X3, Y3, Z3 ** 2)),
                Branch((3 * X3, Y3, Z3 ** 2 + X3 + Y3 * Z3)),
                Branch((Z3 ** 2 + Y3, X3, Y3)))), 4),
    (MultiGerm((Branch((HALF * X3, Y3, Z3 ** 3 + X3 * Z3)),)), 6),
    # the partial in the coordinate x, z / 2, is one term with a
    # coefficient that is no integer
    (MultiGerm((Branch((X3, Y3, Z3 ** 4 + HALF * X3 * Z3 + Y3 ** 2 * Z3)),)),
     6),
    # two components equal to x: the second one is kept
    (MultiGerm((Branch((X3, Y3, Z3, X3 * 0)),
                Branch((X3, Y3, Z3, X3)))), 4),
    # the kept component has a linear term in the coordinate x
    (MultiGerm((Branch((X3, Y3, Z3 ** 2)), Branch((X3, Y3, Z3 ** 2 + X3)))),
     5),
    # the second branch has no coordinate component; the first has
    (MultiGerm((Branch((X3, Y3, Z3 ** 3 + X3 * Z3)),
                Branch((X3 + Y3 ** 2, Y3 + Z3 ** 2, Z3 + X3 ** 2)))), 4),
    # a target row meets a kept component on one branch and a coordinate
    # on the other: the values depend on the sign of the substitution
    (MultiGerm((Branch((2 * X3 * Y3, X3 * 0, X3 * Y3)),
                Branch((2 * X3, X3 * 0, X3)))), 3),
], ids=["term-above-top", "quintic", "zero-partial", "three-branches",
        "curve", "coordinate-2x", "coordinates-2x-3x", "coordinate-half-x",
        "half-in-a-one-term-partial", "repeated-coordinate", "linear-term-in-a-coordinate",
        "branch-without-coordinates", "sign-of-the-substitution"])
def test_index_builder_matches_the_reference_builder(germ, top, extended):
    curve, free = graded_tangent(germ, top, extended)
    assert (curve, free) == reduced_graded_tangent(germ, top, extended)
    assert curve == [tangent_reference(germ, d, extended)
                     for d in range(top + 1)]
    assert_full_module_basis(germ, top, extended, curve, free)


@pytest.mark.parametrize("extended", [True, False], ids=["ae", "a"])
def test_coordinate_components_get_no_columns(extended, monkeypatch):
    # the coordinate components x and y of the fold branch (x, y, z^2) and
    # of the cusp branch (x, y, z^3 + x z) have no columns: the columns are
    # the slots of the two kept components z^2 and z^3 + x z, in the
    # extended module for both variants.  The fold's partial in z, 2 z, is
    # a single term all the same, so its rows x^a * 2 z e_2 arrive as
    # killed columns, one per slot divisible by z: those of |a| >= 1 in the
    # first phase, the non-extended rows, and 2 z e_2 itself in the second
    germ = MultiGerm((Branch((X3, Y3, Z3 ** 2)),
                      Branch((X3, Y3, Z3 ** 3 + X3 * Z3))))
    top = 4
    calls = recorded_eliminations(monkeypatch)
    curve, free = graded_tangent(germ, top, extended)
    assert (curve, free) == reduced_graded_tangent(germ, top, extended)
    widths, phases = calls.pop()
    (_, killed), (_, extra_killed) = phases
    slots = [s for s in reference_slots(germ, top, True) if s[1] == 2]
    assert sum(widths) == len(slots)
    assert {l for _, l, _ in free} <= {2}
    for i, (b, _, mono) in enumerate(slots):
        if b == 0 and mono[2] >= 1:
            assert -i in (killed if sum(mono) > 1 else extra_killed), slots[i]
    assert_phases_match_plain(widths, phases)


@st.composite
def graded_rows(draw):
    """Sparse integer rows over at most 30 graded columns, most of them
    one-entry rows, plus a chain whose rows become unit rows one kill at
    a time.  Columns are drawn as positions and keyed by id = -i."""
    n = draw(st.integers(1, 30))
    degrees = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    widths = [degrees.count(d) for d in range(5)]
    column = st.integers(0, n - 1).map(lambda i: -i)
    coef = st.integers(-3, 3).filter(bool)
    rows = draw(st.lists(st.dictionaries(column, coef, min_size=1, max_size=4),
                         max_size=40))
    chain = draw(st.lists(column, unique=True, max_size=8))
    rows += [{c: draw(coef)} for c in chain[:1]]
    rows += [{a: draw(coef), b: draw(coef)} for a, b in zip(chain, chain[1:])]
    return widths, draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(graded_rows(), st.booleans())
def test_presolve_keeps_the_plain_pivots(case, units_as_killed):
    # unit rows may come as rows or, as the builders hand them over, as
    # killed columns; either way the pivots are those of every row
    widths, rows = case
    killed = set()
    if units_as_killed:
        killed = {c for r in rows if len(r) == 1 for c in r}
        rows = [r for r in rows if len(r) > 1]
    assert (eliminate_graded(widths, ([dict(r) for r in rows], set(killed)))
            == [plain_graded(widths, rows, killed)])


@settings(max_examples=200, deadline=None)
@given(graded_rows(), graded_rows(), st.booleans())
def test_second_phase_keeps_the_plain_pivots(first, second, units_as_killed):
    # a second phase goes into the span of the first, after its presolve;
    # after it the pivots are those of the rows of both phases.  The second
    # case's columns are cut to the first one's
    widths, rows = first
    columns = sum(widths)
    more = [{c: v for c, v in r.items() if -c < columns} for r in second[1]]
    more = [r for r in more if r]
    phases = []
    for part in (rows, more):
        killed = set()
        if units_as_killed:
            killed = {c for r in part if len(r) == 1 for c in r}
            part = [r for r in part if len(r) > 1]
        phases.append((part, killed))
    assert_phases_match_plain(widths, phases)


def test_presolve_cascade():
    # {b} kills b, which leaves {b, c} as a unit row on the next sweep, and
    # c then does the same to {c, d}; {a, e} stays for the echelon, which
    # pivots on its lowest-degree column a.  Positions a..e carry the ids
    # 0..-4 and have degrees 0, 1, 1, 2, 2.
    widths = [1, 2, 2]
    a, b, c, d, e = 0, -1, -2, -3, -4
    rows = [{c: 2, d: -3}, {b: 5, c: 1}, {a: 1, e: -1}]
    expected = ([0, 0, 1], [4])  # e, at position 4, is the only free column
    assert eliminate_graded(widths, (rows + [{b: 1}], set())) == [expected]
    assert eliminate_graded(widths, ([dict(r) for r in rows], {b})) == \
        [expected]
    assert plain_graded(widths, rows, {b}) == expected


def test_presolve_drops_rows_inside_the_killed_columns():
    # with b killed, the rows {b: 7} and {c: 2, b: 5} lie wholly in the
    # killed columns: the first at once, the second once {b: 3, c: -2},
    # stripped to {c}, has killed c earlier in the same sweep.  Only
    # {d, e} and {a, e} reach the echelon, which pivots on d and a.
    # Positions a..e carry the ids 0..-4 and have degrees 0, 1, 1, 2, 2.
    widths = [1, 2, 2]
    a, b, c, d, e = 0, -1, -2, -3, -4
    rows = [{b: 7}, {b: 3, c: -2}, {c: 2, b: 5}, {d: 1, e: 4}, {a: 1, e: -1}]
    expected = ([0, 0, 1], [4])
    assert eliminate_graded(widths, ([dict(r) for r in rows], {b})) == \
        [expected]
    assert plain_graded(widths, rows, {b}) == expected


def test_ideal_curves_match_per_degree_reference():
    x, y, z = V(3, 0), V(3, 1), V(3, 2)
    s, t = V(2, 0), V(2, 1)
    cases = [
        ([V(1, 0) ** 4], 1),
        ([s ** 2 + t ** 3, s * t], 2),
        ([3 * s * s + t ** 3, 2 * s * t + 4 * t ** 3], 2),  # mixed orders
        ([x * y, y ** 2 + x ** 3, z ** 3, x ** 2 + y * z], 3),
        ([s], 2),  # infinite quotient: the curve keeps growing
    ]
    for gens, n in cases:
        curve, _ = _graded_ideal(gens, n, 7)
        assert curve == [ideal_reference(gens, n, d) for d in range(8)], gens


def test_moved_germ_curve_matches_per_degree_reference():
    # A1A2-a k=2 moved by a linear source change S and target change T,
    # the kind of dense germ the normal forms turn into in generic
    # coordinates
    x, y, z = V(3, 0), V(3, 1), V(3, 2)
    S = [[1, 2, 0], [-2, -3, 0], [2, 1, 1]]
    T = [[1, 0, 2], [0, 1, 5], [2, -1, 0]]
    moved_vars = [sum((c * v for c, v in zip(row, (x, y, z))), Poly.zero(3))
                  for row in S]
    branches = []
    for comps in ((x ** 3 + y * x, y, z), (x, y ** 2 + z ** 2, z)):
        pulled = [substitute(c, moved_vars) for c in comps]
        branches.append(Branch(tuple(
            sum((c * q for c, q in zip(row, pulled)), Poly.zero(3))
            for row in T)))
    germ = MultiGerm(tuple(branches))
    for extended in (True, False):
        curve, _ = graded_tangent(germ, 5, extended)
        assert curve == [tangent_reference(germ, d, extended)
                         for d in range(6)]


def test_unstabilized_history_is_the_curve_from_d0_to_d_max():
    # (x) in two variables leaves the powers of y: d + 1 of them at degree d
    with pytest.raises(NotStabilizedError) as info:
        quotient_dim([V(2, 0)], 2, 5)
    assert info.value.history == (3, 4, 5, 6)
    # 4_2^6 starts at degree 3 and is certified only at degree 11; the
    # history is its exact curve from 3 to the cap
    with pytest.raises(NotStabilizedError) as info:
        ae_codim(atlas.instantiate("4_2^k", {"k": 6}), 10)
    assert info.value.history == (2, 2, 3, 3, 4, 4, 5, 5)


# -- the Nakayama certificate ----------------------------------------------

def passes(f: MultiGerm, k: int, extended: bool = True) -> bool:
    """Whether the certificate of the candidate degree k passes."""
    _, c = multiplicity_and_power(f)
    values, _ = graded_tangent(f, k + c, extended, k)
    return values[k + c] == values[k]


def test_certificate_rejects_the_false_plateau():
    # 4_2^6 sits at 5 on degrees 9 and 10; the certificate at k = 10 fails
    # and the one at k = 11 passes, with the table value 6
    g = atlas.instantiate("4_2^k", {"k": 6})
    assert not passes(g, 10)
    assert passes(g, 11)
    assert graded_tangent(g, 15, True, 11)[0][11] == 6


@pytest.mark.parametrize("name,params,ks", [
    ("4_2^k", {"k": 6}, range(8, 14)),
    ("A1A3", {"k": 7}, range(10, 15)),
    ("A2A2-d", None, range(2, 7)),
    ("A1A2-a", {"k": 3}, range(2, 7)),
])
def test_passing_is_monotone(name, params, ks):
    g = atlas.instantiate(name, params)
    for extended in (True, False):
        results = [passes(g, k, extended) for k in ks]
        assert results == sorted(results), (extended, results)
        assert results[-1]


def test_power_is_the_least_power_of_m_inside_each_branch_ideal():
    # brute force on the reference builder: m^d lies in I exactly when
    # I + m^d has the colength of I, read at degree d - 1
    seen = set()
    for _, germ in cap3_rows():
        for branch in germ.branches:
            if branch in seen:
                continue
            seen.add(branch)
            gens = list(branch.components)
            mu = quotient_dim(gens, branch.n)
            least = next(d for d in range(1, mu + 1)
                         if ideal_reference(gens, branch.n, d - 1) == mu)
            assert multiplicity_and_power(MultiGerm((branch,))) == (mu, least)


@pytest.mark.parametrize("extended", [True, False], ids=["ae", "a"])
@pytest.mark.parametrize("name,params", [
    ("A1A2-a", {"k": 2}), ("5_1", None), ("A2A2-b", None), ("4_1^k", {"k": 2}),
    ("A1A1A1-b", {"k": 1}),
])
def test_target_row_cut_matches_every_target_row(name, params, extended):
    # the engine builds target rows only up to |beta| = k + 1; a reference
    # with every target row and the full module's certificate rows, reduced
    # term by term, leaves the same values and free slots, and without the
    # reduction the same values
    g = atlas.instantiate(name, params)
    _, c = multiplicity_and_power(g)
    for k in (1, 2):
        top = k + c
        curve, free = graded_tangent(g, top, extended, k)
        assert (curve, free) == reduced_graded_tangent(g, top, extended, k)
        slots = reference_slots(g, top, extended)
        last = len(slots) - 1
        col = {s: last - i for i, s in enumerate(slots)}
        span = RowSpan()
        for row in (reference_tangent_rows(g, top, extended, col)
                    + [{col[s]: v for s, v in row.items()
                        if col.get(s) is not None}
                       for row in reference_certificate_rows(g, k, top)]):
            span.insert(row)
        assert curve == graded_curve(
            [s for s in slots if col[s] not in span.pivots], top)


@st.composite
def germs_with_one_term_components(draw):
    """One or two branches in three variables, each with a one-term
    component of degree 1 (c x_j, a coordinate unless another component
    takes x_j first), one of degree 2 or 3 (z^2, x*y, ...) and one of one
    to three terms, in any order."""
    coef = st.sampled_from([1, 2, -1, 3, Fraction(1, 2)])
    mono = st.tuples(*[st.integers(0, 2)] * 3).filter(
        lambda m: 1 <= sum(m) <= 3)
    branches = []
    for _ in range(draw(st.integers(1, 2))):
        linear = [0, 0, 0]
        linear[draw(st.integers(0, 2))] = 1
        square = draw(mono.filter(lambda m: sum(m) >= 2))
        terms = draw(st.dictionaries(mono, coef, min_size=1, max_size=3))
        comps = [Poly.monomial(3, tuple(linear), draw(coef)),
                 Poly.monomial(3, square, draw(coef)), Poly(3, terms)]
        branches.append(Branch(tuple(draw(st.permutations(comps)))))
    return MultiGerm(tuple(branches))


@settings(max_examples=200, deadline=None)
@given(germs_with_one_term_components(), st.integers(1, 3), st.integers(2, 3),
       st.booleans())
def test_rows_built_modulo_the_one_term_certificates(germ, k, c, extended):
    # the rows of each branch b are built modulo J_b, the columns its
    # one-term certificate rows kill: every target row is built, and every
    # row in full, by the reference
    top = k + c
    assert graded_tangent(germ, top, extended, k) == \
        reduced_graded_tangent(germ, top, extended, k)


@settings(max_examples=200, deadline=None)
@given(germs_with_one_term_components().map(lambda f: f.branches[0]),
       st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2)),
       st.sampled_from([1, -2, 3]), st.integers(1, 3), st.integers(2, 3))
def test_compositions_are_exact_outside_the_one_term_certificates(
        branch, partial, factor, k, c):
    # every product factor * (y^beta o f_b) * g that `_compositions` keeps,
    # g = 1 or a partial of a component, agrees with the product by
    # substitution, truncated at the top, on every monomial outside J_b:
    # x^m x^a with |a| >= k + 1 for a one-term component u x^m.  A beta
    # whose product has such a monomial is a key.
    top = k + c
    tables, betas = monomial_tables(3, top), monomial_tables(3, k + 1)
    own = tangent._Branch(branch)
    g = (Poly.const(3, 1) if partial is None
         else branch.components[partial[0]].diff(partial[1]))
    table = tangent._compositions(g, factor, betas.recursion(own.order),
                                  own.factors(tables, k), tables)
    ones = [m for comp in branch.components if len(comp.items()) == 1
            for m, _ in comp.items()]

    def outside(mono):
        return not any(sum(mono) - sum(m) > k
                       and all(e >= d for e, d in zip(mono, m)) for m in ones)

    for beta, y in enumerate(betas.monos):
        product = factor * substitute(Poly.monomial(3, y),
                                      list(branch.components)) * g
        expected = {tables.index[m]: v
                    for m, v in product.truncate(top).items() if outside(m)}
        got = table.get(beta, {})
        assert {i: v for i, v in got.items()
                if outside(tables.monos[i])} == expected, (beta, y)
        assert beta in table or not expected, (beta, y)


def generator_multiples(f: MultiGerm, k: int, top: int) -> tuple[list, list]:
    """The derivative rows x^a * df_b/dx_j of |a| >= 1 (over the kept
    components of b, j no coordinate variable of b) and the certificate
    rows x^a * f_{b,i} of |a| >= k + 1 (in one kept component), of two or
    more entries, keyed by the engine's column ids, -position among the
    kept slots, in two lists: those with an a free of b's coordinate
    variables or an entry of degree <= k + 1, and the others, which lie
    wholly in J_b (those of a coordinate component i are one-entry).  The
    engine builds both."""
    coords = reference_coordinates(f)
    slots = [s for s in reference_slots(f, top, True)
             if s[1] not in coords[s[0]]]
    col = {s: -i for i, s in enumerate(slots)}
    built, past = [], []
    for b, branch in enumerate(f.branches):
        variables = {j for j, _ in coords[b].values()}
        blocks = [l for l in range(f.p) if l not in coords[b]]
        gens = [([(l, branch.components[l].diff(j)) for l in blocks], 1)
                for j in range(f.n) if j not in variables]
        gens += [([(l, comp)], k + 1) for comp in branch.components
                 for l in blocks]
        for gen, low in gens:
            terms = [(l, m, v) for l, g in gen for m, v in g.items()]
            for a in monomials_up_to(f.n, top):
                row = {col[b, l, monomial_mul(a, m)]: v for l, m, v in terms
                       if sum(a) + sum(m) <= top}
                if sum(a) < low or len(row) < 2:
                    continue
                if (any(a[j] for j in variables)
                        and all(sum(a) + sum(m) >= k + 2 for _, m, _ in terms)):
                    past.append(row)
                else:
                    built.append(row)
    return built, past


def test_one_term_certificates_cut_the_rows(monkeypatch):
    # over the cap-3 rows at two candidates each: a one-term step c x^m of
    # the products keeps no entry x^m x^a with |a| >= k + 1, which its own
    # certificate rows kill, no product kept is empty, and the derivative
    # and certificate multiples are all built, those wholly in J_b too
    products, handed = [], []
    compositions, multiples = tangent._compositions, tangent.multiples

    def recording_products(g, factor, recursion, factors, tables):
        table = compositions(g, factor, recursion, factors, tables)
        products.append((recursion[0], factors, tables, table))
        return table

    def recording_multiples(tables, terms, low, rows, *args):
        known = len(rows)
        multiples(tables, terms, low, rows, *args)
        handed.extend(rows[known:])

    monkeypatch.setattr(tangent, "_compositions", recording_products)
    monkeypatch.setattr(tangent, "multiples", recording_multiples)
    steps = inside = 0
    for name, germ in cap3_rows():
        _, c = multiplicity_and_power(germ)
        for k in (1, 2):
            graded_tangent(germ, k + c, True, k)
            for var, factors, tables, table in products:
                assert all(table.values()), (name, k)
                for beta in table.keys() - {0}:
                    terms, one = factors[var[beta]]
                    if one is not None:
                        (m, _), = terms
                        steps += 1
                        assert all(tables.deg[i] <= k + tables.deg[m]
                                   for i in table[beta]), (name, k)
            built, past = generator_multiples(germ, k, k + c)
            assert (Counter(frozenset(row.items()) for row in handed)
                    == Counter(frozenset(row.items())
                               for row in built + past)), (name, k)
            products.clear()
            handed.clear()
            inside += len(past)
    assert steps > 0 and inside > 0


# -- the shared search --------------------------------------------------------
#
# At every candidate degree, a search whose two variants share one row
# builder and one table of eliminations (`tangent._rows` and
# `tangent._eliminated`: one elimination serves both, and the other
# variant's search reads it instead of eliminating) gives what a fresh
# `graded_tangent` gives at the same candidate and top.

def checked_searches(monkeypatch) -> list:
    """From now on, every elimination of a search is compared with the
    oracle at the same candidate and top; returns the (candidate, top)
    pairs of each search, one list per search.  The germ and variant of
    each search are read off the arguments of `_stabilized_codim`."""
    stabilized, search = tangent._stabilized_codim, tangent.stabilize_curve
    searches, running = [], []

    def searching(f, d_max, extended):
        running.append((linear_prenormal_form(f)[0], extended))
        try:
            return stabilized(f, d_max, extended)
        finally:
            running.pop()

    def checking(eliminate, *args):
        (f, extended), tried = running[-1], []
        searches.append(tried)

        def checked(k, top):
            got = eliminate(k, top)
            assert got == graded_tangent(f, top, extended, k), (f, k, top)
            tried.append((k, top))
            return got

        return search(checked, *args)

    monkeypatch.setattr(tangent, "_stabilized_codim", searching)
    monkeypatch.setattr(tangent, "stabilize_curve", checking)
    return searches


def run_search(germ: MultiGerm, d_max: int, extended: bool) -> bool:
    """Run one search past every cache; True when it was certified."""
    try:
        tangent._stabilized_codim(germ, d_max, extended)
    except NotStabilizedError:
        return False
    return True


def grown(searches: list) -> int:
    """The number of searches that tried more than one candidate."""
    return sum(len(tried) > 1 for tried in searches)


def test_grown_search_matches_fresh_rows_on_the_cap_8_catalog(monkeypatch):
    searches = checked_searches(monkeypatch)
    rows = [atlas.instantiate(entry.name, params) for entry in atlas.entries()
            for params in atlas._parameter_sweep(entry, 8)]
    assert len(rows) == 165
    assert all(run_search(germ, 16, True) for germ in rows)
    assert grown(searches) == 55


def test_grown_search_matches_fresh_rows_on_the_cap_3_a_codim(monkeypatch):
    searches = checked_searches(monkeypatch)
    assert all(run_search(germ, 16, False) for _, germ in cap3_rows())
    assert len(searches) == 59 and grown(searches) > 0


@pytest.mark.parametrize("extended", [True, False], ids=["ae", "a"])
@pytest.mark.parametrize("name,params,d_max", [
    ("4_2^k", {"k": 6}, 10), ("A1A3", {"k": 7}, 11), ("4_2^k", {"k": 8}, 9),
])
def test_grown_search_matches_fresh_rows_when_it_fails(name, params, d_max,
                                                       extended,
                                                       monkeypatch):
    # each search tries several candidates and fails at the cap
    searches = checked_searches(monkeypatch)
    assert not run_search(atlas.instantiate(name, params), d_max, extended)
    (tried,) = searches
    assert len(tried) > 1 and tried[-1][0] == d_max


@pytest.mark.parametrize("extended", [True, False], ids=["ae", "a"])
def test_grown_search_matches_fresh_rows_on_five_branches(extended):
    # the widest search: five branches whose coordinate components are
    # substituted by constant one-term partials.  The fold pentagerm's
    # search is proved infinite before its last candidate, so one builder
    # is eliminated here by hand at the candidates 11 and 13, both failing
    germ = parse_multigerm("{(x,y,z^2);(x,y,z^2+x);(x,y,z^2+y);"
                           "(x,y,z^2+x+y);(x,y,z^2+x-y)}")
    g, _, _ = linear_prenormal_form(germ)
    _, c = multiplicity_and_power(germ)
    rows = tangent._SearchRows(g)
    for k in (11, 13):
        values, free = rows.read(k + c, rows.eliminate(k, k + c)[extended])
        assert (values, free) == graded_tangent(g, k + c, extended, k)
        assert values[k + c] != values[k]


@settings(max_examples=40, deadline=None)
@given(_random_germs(max_n=3, max_r=2), st.booleans())
def test_grown_search_matches_fresh_rows_on_random_germs(germ, extended):
    with pytest.MonkeyPatch.context() as monkeypatch:
        checked_searches(monkeypatch)
        try:
            run_search(germ, 7, extended)
        except (NotStabilizedError, ProvedInfiniteError):
            # the branch multiplicities did not stabilize by the cap, or
            # the germ is proved not finite or not A-finite
            pass


# -- one elimination for both variants ---------------------------------------
#
# Each elimination of a search serves both codimensions; the search of the
# other variant of the same germ and cap reads the result at every
# candidate the first search ran (`tangent._stabilized_codim`).

def clear_tangent_caches() -> None:
    for fn in vars(tangent).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def shared_searches(monkeypatch) -> tuple[list, list]:
    """From now on, the (candidate, top) pairs of each search, one list
    per search, and those of every row build (`_SearchRows._rows`)."""
    search, searches, built = tangent.stabilize_curve, [], []
    rows = tangent._SearchRows._rows

    def recording(eliminate, *args):
        tried = []
        searches.append(tried)

        def recorded(k, top):
            tried.append((k, top))
            return eliminate(k, top)

        return search(recorded, *args)

    def building(self, top, certify):
        built.append((certify, top))
        return rows(self, top, certify)

    monkeypatch.setattr(tangent, "stabilize_curve", recording)
    monkeypatch.setattr(tangent._SearchRows, "_rows", building)
    return searches, built


def fields(result: tangent.CodimResult) -> tuple:
    return (result.value, result.degree_used, result.c, result.curve,
            result.basis)


@pytest.mark.parametrize("first,second", [
    (tangent.ae_codim, tangent.a_codim), (tangent.a_codim, tangent.ae_codim),
], ids=["ae-then-a", "a-then-ae"])
def test_second_variant_builds_rows_only_where_the_first_did_not(
        first, second, monkeypatch):
    alone = {}
    for name, germ in cap3_rows():
        clear_tangent_caches()
        alone[name] = fields(second(germ))
    searches, built = shared_searches(monkeypatch)
    read = 0
    for name, germ in cap3_rows():
        clear_tangent_caches()
        first(germ)
        ran = set(built)
        built.clear()
        assert fields(second(germ)) == alone[name], name
        tried = searches[-1]
        assert built == [pair for pair in tried if pair not in ran], name
        read += len(tried) - len(built)
        built.clear()
    assert read >= 59


def test_a_search_past_the_shared_candidates_eliminates_on_its_own(
        monkeypatch):
    # 5_1: the extended search passes at k = 3 (c = 5), where the
    # non-extended one fails; that one reads the elimination at k = 3 and
    # builds rows only at k = 5
    germ = parse_multigerm("(x,y,z^5+x*z+y*z^2)")
    clear_tangent_caches()
    alone = fields(tangent.a_codim(germ))
    clear_tangent_caches()
    searches, built = shared_searches(monkeypatch)
    assert tangent.ae_codim(germ).degree_used == 3
    assert searches == [[(3, 8)]] and built == [(3, 8)]
    assert fields(tangent.a_codim(germ)) == alone
    assert searches[1] == [(3, 8), (5, 10)] and built == [(3, 8), (5, 10)]
    assert tangent._eliminated.cache_info().currsize == 2
    assert all(tangent._eliminated.stored(germ, *pair)
               for pair in [(3, 8), (5, 10)])


def test_a_search_under_another_cap_builds_no_rows(monkeypatch):
    # 5_1 is certified at k = 3, below both caps: the eliminations depend
    # on no cap, so the search under cap 16 reads the one under cap 10 ran
    germ = parse_multigerm("(x,y,z^5+x*z+y*z^2)")
    clear_tangent_caches()
    searches, built = shared_searches(monkeypatch)
    low = fields(tangent.ae_codim(germ, 10))
    assert built == [(3, 8)]
    assert fields(tangent.ae_codim(germ, 16)) == low
    assert searches == [[(3, 8)], [(3, 8)]] and built == [(3, 8)]


@pytest.mark.parametrize("first,second", [
    (tangent.ae_codim, tangent.a_codim), (tangent.a_codim, tangent.ae_codim),
], ids=["ae-then-a", "a-then-ae"])
def test_both_ended_searches_leave_no_free_positions(first, second):
    # whichever search of a germ runs first, and however far apart the
    # two run, each variant gives the same fields
    rows = [atlas.instantiate(entry.name, params)
            for entry in atlas.entries()
            for params in atlas._parameter_sweep(entry, 8)]
    assert len(rows) == 165
    clear_tangent_caches()
    alone = []
    for germ in rows:
        alone.append((fields(first(germ)), fields(second(germ))))
    # the other variant first, every row before any of the first
    clear_tangent_caches()
    for germ, (_, expected) in zip(rows, alone):
        assert fields(second(germ)) == expected
    for germ, (expected, _) in zip(rows, alone):
        assert fields(first(germ)) == expected


def test_a_proof_leaves_no_free_positions(monkeypatch):
    # the fold pentagerm is proved not A-finite at the last candidate of
    # its first search; the other variant raises the proof before its
    # first candidate, without an elimination
    germ = parse_multigerm("{(x,y,z^2);(x,y,z^2+x);(x,y,z^2+y);"
                           "(x,y,z^2+x+y);(x,y,z^2+x-y)}")
    clear_tangent_caches()
    with pytest.raises(ProvedInfiniteError):
        tangent.ae_codim(germ)
    searches, built = shared_searches(monkeypatch)
    with pytest.raises(ProvedInfiniteError):
        tangent.a_codim(germ)
    assert searches == [] and built == []


def test_an_elimination_leaves_the_row_builder_unchanged():
    # the builder is shared by both searches of a germ, so no elimination
    # may change it; the parts of 5_1 read block ids moved by z and z^2
    germ = parse_multigerm("(x,y,z^5+x*z+y*z^2)")
    rows = tangent._SearchRows(linear_prenormal_form(germ)[0])
    before = pickle.dumps(vars(rows))
    first = rows.eliminate(5, 10)
    assert pickle.dumps(vars(rows)) == before
    assert rows.eliminate(5, 10) == first


def test_threaded_searches_of_both_variants_match_the_sequential_ones():
    # the two searches of 5_1 share the elimination at k = 3 and part
    # after it: the extended one passes there, the other goes on to k = 5.
    # Started together, with threads switching often, each must give what
    # it gives alone
    germ = parse_multigerm("(x,y,z^5+x*z+y*z^2)")
    clear_tangent_caches()
    expected = {codim: fields(codim(germ))
                for codim in (tangent.ae_codim, tangent.a_codim)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            clear_tangent_caches()
            start, got = threading.Barrier(2), {}

            def search(codim):
                start.wait(timeout=30)
                got[codim] = fields(codim(germ))

            threads = [threading.Thread(target=search, args=(codim,))
                       for codim in expected]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert got == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("stable_first", [True, False],
                         ids=["stability-then-search",
                              "search-then-stability"])
def test_stability_and_a_search_eliminate_once_at_the_first_candidate(
        stable_first, monkeypatch):
    # 5_1 passes its first candidate, (3, 8): the stability test reads
    # that elimination from the table the search writes, or writes it
    # there for the search
    germ, runs = parse_multigerm("(x,y,z^5+x*z+y*z^2)"), []
    eliminate = tangent._SearchRows.eliminate

    def counting(rows, certify, top):
        runs.append((certify, top))
        return eliminate(rows, certify, top)

    monkeypatch.setattr(tangent._SearchRows, "eliminate", counting)
    clear_tangent_caches()
    if stable_first:
        assert not tangent.is_stable(germ)
    assert ae_codim(germ).value == 1
    assert not tangent.is_stable(germ)
    assert runs == [(3, 8)]
    assert tangent._rows.cache_info().currsize == 1
