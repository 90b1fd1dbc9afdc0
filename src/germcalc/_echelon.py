"""Incremental sparse row echelon over the rationals.

Rows are sparse mappings from column id to coefficient.  Incoming rows are
scaled to primitive integer vectors, then reduced against the stored pivot
rows by fraction-free cancellation on the largest column id present.  The
dimension engines number their columns so that the largest id is the
lowest slot (lowest degree first), so every pivot leads with its
lowest-degree term and the non-pivot columns are the standard monomials of
a local order.  Rank queries are exact; there is no floating point
anywhere.  This is the package's one exact eliminator: the graded
quotients, `matrix_rank` and the quasi-homogeneity weight fit all read
its pivot rows.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Mapping

_STRIP_BITS = 512


def _to_primitive(row: dict[int, int | Fraction]) -> dict[int, int]:
    """Clear denominators and divide by the content."""
    lcm = 1
    fractional = False
    for v in row.values():
        # Fraction is an ABC, so isinstance would go through
        # ABCMeta.__instancecheck__, ten times slower than an exact type
        # test; rows hold only int and Fraction values
        if type(v) is Fraction:
            fractional = True
            d = v.denominator
            lcm = lcm // gcd(lcm, d) * d
    if fractional:
        ints = {c: int(v * lcm) for c, v in row.items() if v != 0}
    else:
        ints = {c: v for c, v in row.items() if v != 0}
    if not ints:
        return {}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


def _strip_content(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class RowSpan:
    """Accumulates a row space and answers rank and membership queries."""

    __slots__ = ("_pivots",)

    def __init__(self):
        self._pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivots(self) -> Mapping[int, dict[int, int]]:
        """Read-only view of the stored pivot rows, keyed by lead column."""
        return MappingProxyType(self._pivots)

    def reduce(self, row: dict[int, int | Fraction]) -> dict[int, int]:
        """Reduce a row against the stored pivots; the residual is primitive."""
        r = _to_primitive(row)
        if not r:
            return r
        # lazy max-heap over candidate lead columns; stale entries are
        # skipped on pop, fill-in columns are pushed as they appear
        heap = [-c for c in r]
        heapq.heapify(heap)
        pivots = self._pivots
        while True:
            lead = None
            while heap:
                c = -heap[0]
                if c in r:
                    lead = c
                    break
                heapq.heappop(heap)
            if lead is None:
                return {}
            piv = pivots.get(lead)
            if piv is None:
                return _strip_content(r)
            a = r[lead]
            b = piv[lead]
            g = gcd(a, b)
            mult_r = b // g
            mult_p = a // g
            if mult_r != 1:
                for c in r:
                    r[c] *= mult_r
            for c, w in piv.items():
                if c in r:
                    nv = r[c] - mult_p * w
                    if nv:
                        r[c] = nv
                    else:
                        del r[c]
                else:
                    r[c] = -mult_p * w
                    heapq.heappush(heap, -c)
            if r and mult_r.bit_length() + mult_p.bit_length() > _STRIP_BITS:
                r = _strip_content(r)

    def insert(self, row: dict[int, int | Fraction]) -> bool:
        """Add a row to the span; True when the rank grew."""
        r = self.reduce(row)
        if not r:
            return False
        lead = max(r)
        if r[lead] < 0:
            r = {c: -v for c, v in r.items()}
        self._pivots[lead] = r
        return True

    def contains(self, row: dict[int, int | Fraction]) -> bool:
        return not self.reduce(row)

    def reduced_pivots(self) -> dict[int, dict[int, int]]:
        """The pivot rows in reduced echelon form, keyed by lead column.

        Each returned row is zero at every other lead, primitive, with a
        positive lead; the stored pivots are left as they are.
        """
        out: dict[int, dict[int, int]] = {}
        # a row reduced against the rows of smaller leads gains entries only
        # at their non-lead columns, so one pass in ascending order suffices
        for lead in sorted(self._pivots):
            r = dict(self._pivots[lead])
            for c in [c for c in r if c != lead and c in out]:
                piv = out[c]
                g = gcd(r[c], piv[c])
                mult_r, mult_p = piv[c] // g, r[c] // g
                r = {k: v * mult_r for k, v in r.items()}
                for k, w in piv.items():
                    nv = r.get(k, 0) - mult_p * w
                    if nv:
                        r[k] = nv
                    else:
                        r.pop(k, None)
            out[lead] = _strip_content(r)
        return out


def matrix_rank(rows: list[list[Fraction | int]]) -> int:
    """Exact rank of a small dense matrix."""
    span = RowSpan()
    for row in rows:
        span.insert({i: v for i, v in enumerate(row) if v != 0})
    return span.rank
