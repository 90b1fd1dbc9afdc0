"""Constructions that assemble new multigerms from unfoldings.

All constructions share one coordinate convention: in an s-parameter
unfolding the parameters are the last s source variables and pass through
as the last s target components, F(x, l) = (f_l(x), l).  New variables
introduced by a construction are appended after the existing ones, and
pass-through blocks come before the freshly built components.  Everything
is produced only up to these coordinate choices; callers comparing against
other normal forms should match invariants, not raw coordinates.

Stability of the supplied unfoldings is verified through the codimension
engine by default.  Verification can dominate the cost of a construction,
so every operation takes `check_stability=False` as an explicit escape
hatch; with the check disabled the caller asserts stability and the
constructions proceed unverified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .germ import Branch, MultiGerm
from .ring import D_MAX, Poly, substitute
from . import tangent


@dataclass(frozen=True)
class Unfolding:
    """An s-parameter unfolding presented by its total map.

    The total multigerm has dimensions (n + s, p + s); in every branch the
    last s components must be exactly the last s source variables.  The
    base germ is recovered by setting the parameters to zero and dropping
    the pass-through components.
    """

    total: MultiGerm
    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("an unfolding needs at least one parameter")
        n_tot, p_tot = self.total.n, self.total.p
        if self.s >= p_tot or self.s >= n_tot:
            raise ValueError("parameter count exceeds the total dimensions")
        for branch in self.total.branches:
            for i in range(self.s):
                expected = Poly.variable(n_tot, n_tot - self.s + i)
                if branch.components[p_tot - self.s + i] != expected:
                    raise ValueError(
                        "total is not in unfolding form: the last s components "
                        "must pass the last s source variables through")

    @property
    def base_n(self) -> int:
        return self.total.n - self.s

    @property
    def base_p(self) -> int:
        return self.total.p - self.s

    @property
    def base(self) -> MultiGerm:
        """The germ unfolded: parameters set to zero, pass-throughs dropped."""
        n, p, s = self.base_n, self.base_p, self.s
        keep = list(range(n))
        branches = []
        for branch in self.total.branches:
            comps = []
            for comp in branch.components[:p]:
                at_zero = {}
                for mono, coef in comp.items():
                    if any(mono[n + j] for j in range(s)):
                        continue
                    at_zero[tuple(mono[i] for i in keep)] = coef
                comps.append(Poly(n, at_zero))
            branches.append(Branch(tuple(comps)))
        return MultiGerm(tuple(branches))


def _bare_variable_index(poly: Poly) -> int | None:
    terms = list(poly.items())
    if len(terms) != 1:
        return None
    mono, coef = terms[0]
    if coef != 1 or sum(mono) != 1:
        return None
    return mono.index(1)


def normalized_unfolding(total: MultiGerm, s: int) -> Unfolding:
    """Build an Unfolding from a total in any variable order.

    The last s components of every branch must be bare variables, the same
    ones across branches; those become the parameters and the source
    variables are reindexed so they come last, giving the convention form
    Unfolding expects.

    The other source variables keep the order they have in `total`, so
    the result depends on the variable order of the parse that built it:
    one text parsed in two variable orders gives two A-equivalent, but not
    always equal, unfoldings, and the constructions built on them
    (`sim_aug_concat`, say) differ the same way, which a literal atlas
    match can tell apart.
    """
    n, p = total.n, total.p
    if not 1 <= s < min(n, p):
        raise ValueError("parameter count out of range for these dimensions")
    first = total.branches[0]
    param_vars = []
    for j in range(p - s, p):
        idx = _bare_variable_index(first.components[j])
        if idx is None:
            raise ValueError(
                "the last s components must be bare parameter variables")
        param_vars.append(idx)
    if len(set(param_vars)) != s:
        raise ValueError("parameter variables must be distinct")
    for branch in total.branches[1:]:
        for j, v in zip(range(p - s, p), param_vars):
            if branch.components[j] != Poly.variable(n, v):
                raise ValueError(
                    "parameters must pass through identically in every branch")
    others = [i for i in range(n) if i not in param_vars]
    mapping = [0] * n
    for new_pos, old in enumerate(others + param_vars):
        mapping[old] = new_pos
    branches = tuple(
        Branch(tuple(c.remap_variables(n, mapping) for c in b.components))
        for b in total.branches)
    return Unfolding(MultiGerm(branches), s=s)


def _require_stable(g: MultiGerm, d_max: int, what: str) -> None:
    if not tangent.is_stable(g, d_max):
        raise ValueError(
            f"{what} is not stable; pass check_stability=False (on the "
            "command line, --unchecked) to assert it")


def _embed(poly: Poly, new_nvars: int, offset: int = 0) -> Poly:
    """View a polynomial inside a larger ring, shifting variables by offset."""
    return poly.remap_variables(new_nvars, [offset + i for i in range(poly.nvars)])


def augment(u: Unfolding, g: Poly,
            d_max: int = D_MAX,
            check_stability: bool = True) -> MultiGerm:
    """Substitute g for the parameter of a 1-parameter stable unfolding.

    g is a function germ in q fresh variables vanishing at the origin; the
    result maps (x, z) to (f_{g(z)}(x), z) with source n + q and target
    p + q.
    """
    if u.s != 1:
        raise ValueError("augmentation needs a 1-parameter unfolding")
    if g.constant_term() != 0:
        raise ValueError("the augmenting function must vanish at the origin")
    if check_stability:
        _require_stable(u.total, d_max, "the unfolding total")
    n, p, q = u.base_n, u.base_p, g.nvars
    new_n = n + q
    # assignment for the total's variables (x_1..x_n, parameter)
    assignment = [Poly.variable(new_n, i) for i in range(n)]
    assignment.append(_embed(g, new_n, offset=n))
    branches = []
    for branch in u.total.branches:
        comps = [substitute(comp, assignment) for comp in branch.components[:p]]
        comps.extend(Poly.variable(new_n, n + j) for j in range(q))
        branches.append(Branch(tuple(comps)))
    return MultiGerm(tuple(branches))


def _morse(n: int) -> MultiGerm:
    """The Morse function x_1^2 + ... + x_n^2, the zero map when n = 0."""
    square_sum = sum((Poly.variable(n, j) ** 2 for j in range(n)),
                     Poly.zero(n))
    return MultiGerm((Branch((square_sum,)),))


def monic_concat(u: Unfolding,
                 d_max: int = D_MAX,
                 check_stability: bool = True) -> MultiGerm:
    """Adjoin a prism on a Morse function (or an immersion when the total
    has n = p - 1) to a 1-parameter stable unfolding: the generalised
    concatenation with a Morse gbar."""
    if u.s != 1:
        raise ValueError("monic concatenation needs a 1-parameter unfolding")
    return generalised_concat(u, _morse(u.total.n - u.total.p + 1), d_max,
                              check_stability)


def binary_concat(u: Unfolding, v: Unfolding,
                  d_max: int = D_MAX,
                  check_stability: bool = True) -> MultiGerm:
    """Share the parameter of two 1-parameter stable unfoldings.

    With u unfolding f: (K^a, S) -> (K^b, 0) and v unfolding g: (K^c, T) ->
    (K^e, 0), the first branch set maps (X, y, u) to (f_u(y), u, X) and the
    second maps (x, Y, u) to (Y, u, g_u(x)); the pass-through blocks X and Y
    have sizes e and b, so both sides live in (K^n, K^p) with n = e + a + 1
    and p = b + 1 + e.  Requires a + e = b + c.
    """
    if u.s != 1 or v.s != 1:
        raise ValueError("binary concatenation needs 1-parameter unfoldings")
    if check_stability:
        _require_stable(u.total, d_max, "the first unfolding total")
        _require_stable(v.total, d_max, "the second unfolding total")
    a, b = u.base_n, u.base_p
    c, e = v.base_n, v.base_p
    if a + e != b + c:
        raise ValueError(
            f"dimension bookkeeping failed: need a + e = b + c, got "
            f"({a}, {b}) and ({c}, {e})")
    n = e + a + 1
    branches = []
    # (X, y, u) -> (f_u(y), u, X): X in slots 0..e-1, y in e..e+a-1, u last
    assign_f = [Poly.variable(n, e + i) for i in range(a)]
    assign_f.append(Poly.variable(n, n - 1))
    for branch in u.total.branches:
        comps = [substitute(comp, assign_f) for comp in branch.components[:b]]
        comps.append(Poly.variable(n, n - 1))
        comps.extend(Poly.variable(n, i) for i in range(e))
        branches.append(Branch(tuple(comps)))
    # (x, Y, u) -> (Y, u, g_u(x)): x in slots 0..c-1, Y in c..c+b-1, u last
    assign_g = [Poly.variable(n, i) for i in range(c)]
    assign_g.append(Poly.variable(n, n - 1))
    for branch in v.total.branches:
        comps = [Poly.variable(n, c + i) for i in range(b)]
        comps.append(Poly.variable(n, n - 1))
        comps.extend(substitute(comp, assign_g) for comp in branch.components[:e])
        branches.append(Branch(tuple(comps)))
    return MultiGerm(tuple(branches))


def generalised_concat(u: Unfolding, gbar: MultiGerm,
                       d_max: int = D_MAX,
                       check_stability: bool = True) -> MultiGerm:
    """Adjoin the suspension of a stable germ over the parameter block.

    With u an s-parameter unfolding whose total lives in (K^n, K^p), gbar
    must be a stable multigerm (K^{n-p+s}, T) -> (K^s, 0); the new branches
    pass the first p - s coordinates through and apply gbar to the rest.
    The monic concatenation is the s = 1 case with a Morse gbar.
    """
    n, p, s = u.total.n, u.total.p, u.s
    if s >= p:
        raise ValueError("the parameter count must be smaller than the target dimension")
    if (gbar.n, gbar.p) != (n - p + s, s):
        raise ValueError(
            f"dimension mismatch: expected a ({n - p + s}, {s}) multigerm, "
            f"got ({gbar.n}, {gbar.p})")
    if check_stability:
        _require_stable(gbar, d_max, "the adjoined germ")
        _require_stable(u.total, d_max, "the unfolding total")
    keep = p - s
    branches = list(u.total.branches)
    for branch in gbar.branches:
        comps = [Poly.variable(n, i) for i in range(keep)]
        comps.extend(_embed(comp, n, offset=keep) for comp in branch.components)
        branches.append(Branch(tuple(comps)))
    return MultiGerm(tuple(branches))


def sim_aug_concat(u: Unfolding, phi: Poly,
                   d_max: int = D_MAX,
                   check_stability: bool = True) -> MultiGerm:
    """Simultaneous augmentation and concatenation.

    Augments a 1-parameter stable unfolding by a one-variable function phi
    and takes the monic concatenation of the result: it adjoins the fold
    branch (X, v) -> (X, sum of squares of v), an immersion when the base
    has p = n + 1.
    """
    if phi.nvars != 1:
        raise ValueError("the augmenting function must be a one-variable germ")
    augmented = augment(u, phi, d_max, check_stability=check_stability)
    return monic_concat(Unfolding(augmented, 1), check_stability=False)


def predicted_codim_augconc(cod_f: int, tau_phi: int) -> int:
    """Codimension prediction cod_f * (tau_phi + 1) for a simultaneous
    augmentation and concatenation.

    This is a lower bound in general and the exact value when the
    augmenting function is quasi-homogeneous (and the usual lifting
    hypothesis holds).
    """
    if cod_f < 0 or tau_phi < 0:
        raise ValueError("inputs must be non-negative")
    return cod_f * (tau_phi + 1)
