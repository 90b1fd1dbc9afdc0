"""The one-pass truncation curve against per-degree eliminations.

The engines eliminate once at a top degree D and read the quotient
dimension at every d <= D from the pivots.  The reference here rebuilds
the generator rows at each d on its own and eliminates them separately,
the way the values were defined before the one-pass reading; both must
agree degree by degree.  The engine also peels unit rows before its
echelon; a plain RowSpan fed every row with the same local column
numbering must give the same free slots.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from germcalc import atlas, tangent
from germcalc.errors import NotStabilizedError
from germcalc.germ import Branch, MultiGerm, multiplicity
from germcalc.ring import (Poly, StabilizationPolicy, _graded_ideal,
                           eliminate_graded, monomials_up_to, quotient_dim,
                           substitute)
from germcalc.tangent import _graded_tangent, _tangent_rows, ae_codim
from germcalc._echelon import RowSpan


def V(n, i):
    return Poly.variable(n, i)


def tangent_reference(f: MultiGerm, d: int, extended: bool) -> int:
    min_deg = 0 if extended else 1
    slots = [(b, l, mono) for mono in monomials_up_to(f.n, d)
             if sum(mono) >= min_deg
             for b in range(f.r) for l in range(f.p)]
    col = {s: i for i, s in enumerate(slots)}
    span = RowSpan()
    for row in _tangent_rows(f, d, extended, col):
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


def plain_graded(slots, degrees, build_rows, top):
    """`eliminate_graded` without the presolve: every row through RowSpan."""
    last = len(slots) - 1
    col = {s: last - i for i, s in enumerate(slots)}
    span = RowSpan()
    for row in build_rows(col):
        span.insert(row)
    free = [i for i in range(len(slots)) if last - i not in span.pivots]
    curve = [sum(1 for i in free if degrees[i] <= d) for d in range(top + 1)]
    return curve, [slots[i] for i in free]


def cap3_rows():
    for entry in atlas.entries():
        for params in atlas._parameter_sweep(entry, 3):
            yield f"{entry.name} {params}", atlas.instantiate(entry.name, params)


@pytest.mark.parametrize("extended", [True, False], ids=["ae", "a"])
def test_catalog_curves_match_per_degree_reference(extended, monkeypatch):
    # the free slots are pinned too: a plain RowSpan fed the same rows with
    # the same local column numbering must leave the same columns free
    calls = []

    def recording(*args):
        calls.append(args)
        return eliminate_graded(*args)

    monkeypatch.setattr(tangent, "eliminate_graded", recording)
    checked = 0
    for name, germ in cap3_rows():
        d0 = multiplicity(germ) + 4
        curve, free = _graded_tangent(germ, d0 + 2, extended)
        reference = [tangent_reference(germ, d, extended)
                     for d in range(d0, d0 + 3)]
        assert curve[d0:] == reference, name
        assert (curve, free) == plain_graded(*calls.pop()), name
        checked += 1
    assert checked == 59


@st.composite
def graded_rows(draw):
    """Sparse integer rows over at most 30 graded columns, most of them
    one-entry rows, plus a chain whose rows become unit rows one kill at
    a time."""
    n = draw(st.integers(1, 30))
    degrees = sorted(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    column = st.integers(0, n - 1)
    coef = st.integers(-3, 3).filter(bool)
    rows = draw(st.lists(st.dictionaries(column, coef, min_size=1, max_size=4),
                         max_size=40))
    chain = draw(st.lists(column, unique=True, max_size=8))
    rows += [{c: draw(coef)} for c in chain[:1]]
    rows += [{a: draw(coef), b: draw(coef)} for a, b in zip(chain, chain[1:])]
    return degrees, draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(graded_rows())
def test_presolve_keeps_the_plain_pivots(case):
    degrees, rows = case
    slots = [f"s{i}" for i in range(len(degrees))]

    def build_rows(col):
        return [{col[slots[i]]: v for i, v in r.items()} for r in rows]

    assert (eliminate_graded(slots, degrees, build_rows, 4)
            == plain_graded(slots, degrees, build_rows, 4))


def test_presolve_cascade():
    # {b} kills b, which leaves {b, c} as a unit row on the next sweep, and
    # c then does the same to {c, d}; {a, e} stays for the echelon, which
    # pivots on its lowest-degree column a
    slots, degrees = list("abcde"), [0, 1, 1, 2, 2]

    def build_rows(col):
        a, b, c, d, e = (col[s] for s in slots)
        return [{c: 2, d: -3}, {b: 5, c: 1}, {b: 1}, {a: 1, e: -1}]

    assert eliminate_graded(slots, degrees, build_rows, 2) == ([0, 0, 1], ["e"])
    assert plain_graded(slots, degrees, build_rows, 2) == ([0, 0, 1], ["e"])


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
        curve, _ = _graded_tangent(germ, 5, extended)
        assert curve == [tangent_reference(germ, d, extended)
                         for d in range(6)]


def test_unstabilized_history_is_the_curve_from_d0_to_d_max():
    # (x) in two variables leaves the powers of y: d + 1 of them at degree d
    with pytest.raises(NotStabilizedError) as info:
        quotient_dim([V(2, 0)], 2, StabilizationPolicy(d0=2, d_max=5))
    assert info.value.history == (3, 4, 5, 6)
    # a start above the cap has no values at all
    x, y, z = V(3, 0), V(3, 1), V(3, 2)
    with pytest.raises(NotStabilizedError) as info:
        ae_codim(MultiGerm((Branch((x, y, z ** 3)),)),
                 StabilizationPolicy(d_max=6))
    assert info.value.history == ()
