"""The multigerm data model and its first-order invariants.

A branch is a p-tuple of polynomials in n source variables, all vanishing
at the origin: branches are stored already translated so that the source
point is 0 and the shared target point is 0.  A multigerm is a non-empty
list of branches sharing the same source and target dimensions; each branch
carries its own copy of the source coordinates.

Invariants provided here: corank of a branch, multiplicity of a multigerm
(the dimension of its local algebra, summed over branches), recognition of
the corank-1 label A_{k_1,...,k_r}, and the dimension of the analytic
stratum of a stable label in the equidimensional and (n, n+1) ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import ring
from .errors import NotCorankOneError, NotStableTypeError
from ._echelon import matrix_rank
from .ring import Poly, StabilizationPolicy, DEFAULT_POLICY


@dataclass(frozen=True)
class Branch:
    """One branch of a multigerm: p components in n source variables."""

    components: tuple[Poly, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a branch needs at least one component")
        n = self.components[0].nvars
        for comp in self.components:
            if comp.nvars != n:
                raise ValueError("branch components must share one source ring")
            if comp.constant_term() != 0:
                raise ValueError(
                    "branch components must vanish at the origin; translate "
                    "the germ before constructing it")

    @property
    def n(self) -> int:
        return self.components[0].nvars

    @property
    def p(self) -> int:
        return len(self.components)

    def jacobian_at_origin(self) -> list[list[Fraction]]:
        """The p x n matrix of linear parts."""
        return [comp.linear_part() for comp in self.components]


@dataclass(frozen=True)
class MultiGerm:
    """A multigerm f = {f_1, ..., f_r}: (K^n, S) -> (K^p, 0)."""

    branches: tuple[Branch, ...]

    def __post_init__(self):
        if not self.branches:
            raise ValueError("a multigerm needs at least one branch")
        n, p = self.branches[0].n, self.branches[0].p
        for b in self.branches:
            if (b.n, b.p) != (n, p):
                raise ValueError("all branches must share source and target dimensions")
        if n < p - 1:
            raise ValueError(
                f"unsupported dimensions (n, p) = ({n}, {p}): need n >= p - 1")

    @property
    def n(self) -> int:
        return self.branches[0].n

    @property
    def p(self) -> int:
        return self.branches[0].p

    @property
    def r(self) -> int:
        return len(self.branches)


@dataclass(frozen=True)
class AType:
    """The label A_{k_1,...,k_r} of a corank-1 multigerm, sorted descending."""

    ks: tuple[int, ...]

    def __post_init__(self):
        if not self.ks:
            raise ValueError("a type label needs at least one entry")
        if any(k < 0 for k in self.ks):
            raise ValueError("type entries must be non-negative")
        object.__setattr__(self, "ks", tuple(sorted(self.ks, reverse=True)))

    @property
    def r(self) -> int:
        return len(self.ks)

    def __str__(self) -> str:
        if len(self.ks) == 1:
            return f"A_{self.ks[0]}"
        return "A_{" + ",".join(str(k) for k in self.ks) + "}"


def corank(branch: Branch) -> int:
    """min(n, p) minus the rank of the linear part at the origin."""
    return min(branch.n, branch.p) - matrix_rank(branch.jacobian_at_origin())


def germ_corank(f: MultiGerm) -> int:
    """The largest branch corank."""
    return max(corank(b) for b in f.branches)


@lru_cache(maxsize=None)
def _branch_multiplicity(branch: Branch, policy: StabilizationPolicy) -> int:
    return ring.quotient_dim(list(branch.components), branch.n, policy)


def multiplicity(f: MultiGerm, policy: StabilizationPolicy = DEFAULT_POLICY) -> int:
    """dim of the local algebra of f: branch-wise quotient dimensions, summed."""
    return sum(_branch_multiplicity(b, policy) for b in f.branches)


def recognize_type(f: MultiGerm,
                   policy: StabilizationPolicy = DEFAULT_POLICY) -> AType:
    """The label A_{k_1,...,k_r} with k_i = branch multiplicity - 1.

    Raises NotCorankOneError when some branch has corank 2 or more, and
    propagates NotStabilizedError from the local-algebra engine.
    """
    ks = []
    for b in f.branches:
        c = corank(b)
        if c > 1:
            raise NotCorankOneError(
                f"branch has corank {c}; only corank <= 1 is supported")
        ks.append(_branch_multiplicity(b, policy) - 1)
    return AType(tuple(ks))


def _branch_stratum_codim(k: int, n: int, p: int) -> int:
    if n == p:
        return k
    # p == n + 1: an immersion is trivial along its image; a singular branch
    # of label A_k contributes codimension 2k + 1
    return 1 if k == 0 else 2 * k + 1


def stratum_dim(t: AType, n: int, p: int) -> int:
    """Dimension of the analytic stratum of the stable multigerm of label t.

    Supported ranges: n == p and p == n + 1.  Raises NotStableTypeError when
    no stable multigerm of that label exists in the given dimensions (the
    branch codimensions add up to more than p).
    """
    if not (n == p or p == n + 1):
        raise ValueError(
            f"stratum dimension is only defined here for n = p or p = n + 1, "
            f"got (n, p) = ({n}, {p})")
    if n == p and any(k > n for k in t.ks):
        raise NotStableTypeError(f"{t} has a branch label exceeding n = {n}")
    total = sum(_branch_stratum_codim(k, n, p) for k in t.ks)
    if total > p:
        raise NotStableTypeError(
            f"{t} is not a stable label in dimensions ({n}, {p}): "
            f"stratum codimensions sum to {total} > {p}")
    return p - total
