"""The exact eliminator against a plain Fraction Gaussian elimination."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from germcalc._echelon import _STRIP_BITS, RowSpan


def fraction_reduce(pivots: dict[int, dict], row: dict) -> dict:
    """The row reduced by the pivot at its lead column until its lead has
    no pivot, in Fractions, as `RowSpan.reduce` does without scaling."""
    r = {c: Fraction(v) for c, v in row.items() if v}
    while r:
        lead = max(r)
        piv = pivots.get(lead)
        if piv is None:
            break
        factor = r[lead] / piv[lead]
        for c, v in piv.items():
            w = r.get(c, 0) - factor * v
            if w:
                r[c] = w
            else:
                r.pop(c, None)
    return r


def primitive(row: dict) -> dict:
    """The row scaled to coprime integers with a positive lead."""
    if not row:
        return {}
    den = 1
    for v in row.values():
        den = den * v.denominator // gcd(den, v.denominator)
    ints = {c: int(v * den) for c, v in row.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if ints[max(ints)] < 0:
        g = -g
    return {c: v // g for c, v in ints.items()}


def test_rows_past_the_strip_bound_match_fraction_elimination():
    # entries of 300 bits: a reduction step multiplies by two cofactors
    # of about that size each, past the bound where the content is
    # stripped inside the loop
    assert 2 * 300 > _STRIP_BITS
    rng = random.Random(20151)
    columns = 8

    def entry():
        return rng.choice((1, -1)) * rng.getrandbits(300)

    rows = [{c: entry() for c in range(columns)} for _ in range(6)]
    span, pivots = RowSpan(), {}
    for rank, row in enumerate(rows, 1):
        reference = fraction_reduce(pivots, row)
        assert reference
        pivots[max(reference)] = reference
        assert span.insert(row)
        assert span.rank == len(pivots) == rank
    assert set(span.pivots) == set(pivots)
    for lead, piv in span.pivots.items():
        assert primitive({c: Fraction(v) for c, v in piv.items()}) == \
            primitive(pivots[lead])

    inside = [dict(row) for row in rows]
    inside.append({c: 3 * rows[0][c] - Fraction(7, 5) * rows[4][c]
                   for c in range(columns)})
    outside = [{c: entry() for c in range(columns)} for _ in range(4)]
    outside.append({c: Fraction(entry(), 3) for c in range(columns)})
    for row in inside:
        assert span.contains(row)
        assert not fraction_reduce(pivots, row)
    for row in outside:
        assert not span.contains(row)
        residual = span.reduce(row)
        assert primitive({c: Fraction(v) for c, v in residual.items()}) == \
            primitive(fraction_reduce(pivots, row))
        g = 0
        for v in residual.values():
            g = gcd(g, v)
        assert g == 1
    assert span.rank == 6
