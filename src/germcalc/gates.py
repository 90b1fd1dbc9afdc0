"""Semi-decision procedures for simplicity of corank-1 multigerms.

Each gate implements one necessary or sufficient criterion and returns a
Verdict: NotSimple with the violated inequality, Simple with supporting
evidence, or Unknown.  The criteria have hypotheses that no finite
computation here can confirm (primitivity of a germ, transversality to
limiting tangent spaces, the lifting condition of the augmentation
formula); those are surfaced as named assertion flags that the caller may
supply, never assumed silently.  A wrong Simple or NotSimple is worse than
an Unknown.

Flags understood by the gates (a report reads "primitivity" always, the
first three only when it runs augconc, and "is_augmentation" never):

  * "dz_condition"         lifting condition of the codimension formula
  * "augmentation_simple"  the augmented germ itself is simple
  * "transversality"       the adjoined branch is transverse to the
                           limiting tangent spaces of the strata
  * "primitivity"          the non-stable part is primitive (not an
                           augmentation)
  * "is_augmentation"      the designated part is an augmentation
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from . import atlas as atlas_mod
from . import tangent
from .errors import (NotCorankOneError, NotStabilizedError,
                     NotStableTypeError, ProvedInfiniteError)
from .germ import (AType, MultiGerm, branch_labels, branch_multiplicity,
                   corank, multiplicity, recognize_type, stratum_dim)
from .ring import D_MAX, Poly, is_quasi_homogeneous

FLAG_DZ = "dz_condition"
FLAG_AUG_SIMPLE = "augmentation_simple"
FLAG_TRANSVERSALITY = "transversality"
FLAG_PRIMITIVITY = "primitivity"
FLAG_IS_AUGMENTATION = "is_augmentation"
# the flags that every report reads, and those that augconc reads
REPORT_FLAGS = (FLAG_PRIMITIVITY,)
AUGCONC_FLAGS = (FLAG_DZ, FLAG_AUG_SIMPLE, FLAG_TRANSVERSALITY)

SIMPLE = "simple"
NOT_SIMPLE = "not_simple"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one gate (or of the aggregated report).

    NotSimple verdicts carry the rule and both sides of the violated
    inequality in `evidence`; Unknown verdicts always carry at least one
    unverified hypothesis or reason.
    """

    kind: str
    rule: str = ""
    evidence: Mapping[str, object] = field(default_factory=dict)
    unverified: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (SIMPLE, NOT_SIMPLE, UNKNOWN):
            raise ValueError(f"unknown verdict kind {self.kind!r}")
        if self.kind == NOT_SIMPLE and not self.rule:
            raise ValueError("NotSimple requires a rule citation")
        if self.kind == UNKNOWN and not self.unverified:
            raise ValueError("Unknown requires a non-empty hypothesis list")

    @staticmethod
    def simple(rule: str, **evidence) -> Verdict:
        return Verdict(SIMPLE, rule=rule, evidence=evidence)

    @staticmethod
    def not_simple(rule: str, **evidence) -> Verdict:
        return Verdict(NOT_SIMPLE, rule=rule, evidence=evidence)

    @staticmethod
    def unknown(*reasons: str, **evidence) -> Verdict:
        return Verdict(UNKNOWN, evidence=evidence, unverified=tuple(reasons))


def nishimura_bound(n: int, p: int, r: int) -> Fraction:
    """The multiplicity bound (p^2 + (n-1) r) / (n(p-n) + n - 1).

    Every simple multigerm of minimal corank with n <= p must have
    multiplicity at most this rational number; in the equidimensional case
    the expression degenerates to (n^2 + (n-1) r) / (n - 1).
    """
    if n > p:
        raise ValueError("the bound needs n <= p")
    if n * p == 1:
        raise ValueError("the bound is undefined for n = p = 1")
    if r < 1:
        raise ValueError("need at least one branch")
    return Fraction(p * p + (n - 1) * r, n * (p - n) + n - 1)


def gate_nishimura(f: MultiGerm, d_max: int = D_MAX) -> Verdict:
    """Necessary condition: multiplicity must not exceed the bound.

    A multiplicity proved infinite (a branch that is not finite) exceeds
    every bound."""
    if any(corank(b) > 1 for b in f.branches):
        return Verdict.unknown("corank at most 1")
    if f.n > f.p or f.n * f.p == 1:
        return Verdict.unknown(f"dimension range (n, p) = ({f.n}, {f.p}) not covered")
    bound = nishimura_bound(f.n, f.p, f.r)
    try:
        m0 = multiplicity(f, d_max)
    except ProvedInfiniteError as proof:
        return Verdict.not_simple(
            "multiplicity bound", multiplicity="infinite", bound=bound,
            n=f.n, p=f.p, r=f.r, reason=proof.reason, **proof.certificate)
    if m0 > bound:
        return Verdict.not_simple(
            "multiplicity bound", multiplicity=m0, bound=bound,
            n=f.n, p=f.p, r=f.r)
    return Verdict.unknown("below the multiplicity bound; no conclusion",
                           multiplicity=m0, bound=bound)


def gate_tau_pairing(f: MultiGerm, d_max: int = D_MAX) -> Verdict:
    """Stable-pair obstruction over all branch bipartitions.

    For a split f = {fs, gs} into two stable parts with the analytic
    stratum of fs reduced to the origin: if the stratum of gs has dimension
    p - 2, or gs is not a prism on a Morse function / an immersion, the
    multigerm is not simple.  Applies for n = p >= 3 and for p = n + 1;
    the equidimensional n = 1, 2 cases are excluded and the gate abstains.
    """
    n, p, r = f.n, f.p, f.r
    if not ((n == p and n >= 3) or p == n + 1):
        return Verdict.unknown(
            f"dimension range (n, p) = ({n}, {p}) not covered")
    if r < 2:
        return Verdict.unknown("needs at least two branches")
    if r > 8:
        return Verdict.unknown("bipartition search is capped at 8 branches")
    try:
        branch_types = branch_labels(f, d_max)
    except NotCorankOneError:
        return Verdict.unknown("corank at most 1")
    if n == p and any(k == 0 for k in branch_types):
        return Verdict.unknown("submersive branch in the equidimensional case")

    indices = range(r)

    def part_stable(sub: tuple[int, ...]) -> bool:
        # is_stable remembers the answer for a part already asked about
        return tangent.is_stable(MultiGerm(tuple(f.branches[i] for i in sub)),
                                 d_max)

    for size in range(1, r):
        for fs in itertools.combinations(indices, size):
            gs = tuple(i for i in indices if i not in fs)
            t_fs = AType(tuple(branch_types[i] for i in fs))
            t_gs = AType(tuple(branch_types[i] for i in gs))
            try:
                sd_f = stratum_dim(t_fs, n, p)
                sd_g = stratum_dim(t_gs, n, p)
            except NotStableTypeError:
                continue
            if sd_f != 0 or sd_g >= p - 1:
                # sd_g = p - 1 forces a single fold/immersion branch, which
                # both rules exempt; every other partner is more degenerate
                # than a prism on a Morse function or an immersion
                continue
            if not (part_stable(fs) and part_stable(gs)):
                continue
            if sd_g == p - 2:
                return Verdict.not_simple(
                    "stable pair with strata 0 and p-2",
                    split=(fs, gs), stratum_dims=(sd_f, sd_g), p=p)
            return Verdict.not_simple(
                "zero stratum paired with a branch more degenerate than "
                "a prism on a Morse function or an immersion",
                split=(fs, gs), stratum_dims=(sd_f, sd_g),
                partner_type=str(t_gs))
    return Verdict.unknown("no bipartition matches the hypotheses")


def gate_branch_count(f: MultiGerm, d_max: int = D_MAX) -> Verdict:
    """Equidimensional branch-count bound: simple needs r <= n - k_1 + 2."""
    n, p, r = f.n, f.p, f.r
    if n != p:
        return Verdict.unknown("needs the equidimensional case")
    if r < 2:
        return Verdict.unknown("needs at least two branches")
    try:
        t = recognize_type(f, d_max)
    except NotCorankOneError:
        return Verdict.unknown("corank at most 1")
    k1 = t.ks[0]
    if k1 > n or any(k < 1 for k in t.ks):
        return Verdict.unknown("branch labels outside 1..n")
    if r > n - k1 + 2:
        return Verdict.not_simple(
            "branch count bound", branches=r, bound=n - k1 + 2, k1=k1, n=n)
    return Verdict.unknown("branch count within the bound",
                           branches=r, bound=n - k1 + 2)


def gate_primitive_plus_morse(f: MultiGerm,
                              d_max: int = D_MAX,
                              primitive_flag: bool = False) -> Verdict:
    """A primitive codimension-1 part plus a fold (n = p > 2) or an
    immersion (p = n + 1, n > 3) is never simple.

    Primitivity is not machine-checkable here, so the rule only fires when
    the caller asserts it; the codimension of the non-fold part is verified
    by the engine.
    """
    n, p = f.n, f.p
    if f.r < 2:
        return Verdict.unknown("needs at least two branches")
    if n == p:
        threshold_met, variant = n > 2, "fold partner, equidimensional"
        partner_label = 1
    elif p == n + 1:
        threshold_met, variant = n > 3, "immersion partner, (n, n+1)"
        partner_label = 0
    else:
        return Verdict.unknown(f"dimension range ({n}, {p}) not covered")
    if not threshold_met:
        # no partner can make the rule fire, so no codimension is computed
        return Verdict.unknown(
            f"dimensions below the threshold for the {variant} rule",
            n=n, p=p)

    for idx in range(f.r):
        if (corank(f.branches[idx]) > 1
                or branch_multiplicity(f, idx, d_max)[0] - 1 != partner_label):
            continue
        rest = MultiGerm(tuple(b for i, b in enumerate(f.branches) if i != idx))
        base_cod = tangent.ae_codim(rest, d_max).value
        if base_cod != 1:
            continue
        if not primitive_flag:
            return Verdict.unknown(
                FLAG_PRIMITIVITY, base_codim=1, partner_index=idx)
        return Verdict(
            NOT_SIMPLE,
            rule=f"primitive codimension-1 germ with {variant}",
            evidence={"n": n, "threshold": 2 if n == p else 3,
                      "partner_index": idx, "base_codim": 1},
            unverified=(FLAG_PRIMITIVITY,))
    return Verdict.unknown("no fold/immersion partner with a codimension-1 rest")


def gate_augconc(f_base_cod: int, phi: Poly,
                 hypotheses: Iterable[str] = ()) -> Verdict:
    """Simplicity of a simultaneous augmentation and concatenation.

    With phi quasi-homogeneous (verified by exact weight fit) and the
    lifting and simplicity hypotheses asserted, base codimension 1 makes
    the construction simple; under the transversality assertion, base
    codimension >= 2 makes it non-simple.
    """
    flags = frozenset(hypotheses)
    if not is_quasi_homogeneous(phi):
        return Verdict.unknown("phi is not quasi-homogeneous")
    if f_base_cod == 1:
        needed = {FLAG_DZ, FLAG_AUG_SIMPLE}
        missing = tuple(sorted(needed - flags))
        if missing:
            return Verdict.unknown(*missing, base_codim=1)
        return Verdict.simple(
            "augmentation-and-concatenation of a codimension-1 germ",
            base_codim=1)
    if f_base_cod >= 2 and FLAG_TRANSVERSALITY in flags:
        return Verdict(
            NOT_SIMPLE,
            rule="augmentation-and-concatenation of codimension >= 2",
            evidence={"base_codim": f_base_cod, "threshold": 1},
            unverified=tuple(sorted({FLAG_DZ, FLAG_AUG_SIMPLE} - flags)))
    if f_base_cod >= 2:
        return Verdict.unknown(FLAG_TRANSVERSALITY, base_codim=f_base_cod)
    return Verdict.unknown("stable base; the criterion does not apply",
                           base_codim=f_base_cod)


PARTNER_CUSPIDAL_EDGE = "cuspidal_edge"
PARTNER_TWO_FOLDS = "two_transversal_folds"
PARTNER_TWO_IMMERSIONS = "two_transversal_immersions"


def gate_aug_cusp(f_aug: MultiGerm, partner_kind: str,
                  d_max: int = D_MAX) -> Verdict:
    """Multiplicity bound for an augmentation joined with a cuspidal edge or
    a transversal pair of folds (n >= p), or two transversal immersions
    (p = n + 1)."""
    n, p = f_aug.n, f_aug.p
    if partner_kind in (PARTNER_CUSPIDAL_EDGE, PARTNER_TWO_FOLDS):
        if n < p or n < 2:
            return Verdict.unknown(
                f"partner {partner_kind} needs n >= p and n >= 2")
        bound = Fraction(n * n - n + 1, n - 1)
    elif partner_kind == PARTNER_TWO_IMMERSIONS:
        if p != n + 1:
            return Verdict.unknown("immersion partners need p = n + 1")
        bound = Fraction(n * n + n, 2 * n - 1)
    else:
        raise ValueError(f"unknown partner kind {partner_kind!r}")
    m0 = multiplicity(f_aug, d_max)
    if m0 > bound:
        return Verdict(
            NOT_SIMPLE,
            rule=f"augmentation multiplicity bound against {partner_kind}",
            evidence={"multiplicity": m0, "bound": bound},
            unverified=(FLAG_IS_AUGMENTATION,))
    return Verdict.unknown("multiplicity within the bound",
                           multiplicity=m0, bound=bound)


@dataclass(frozen=True)
class ReportAssertions:
    """Caller-supplied hypotheses for the aggregated report.

    flags feed the gates, and each must be one that a gate of the report
    reads: one of REPORT_FLAGS, or of AUGCONC_FLAGS when augconc is given
    (any other raises ValueError naming it); augconc supplies the data that
    the simultaneous augmentation-and-concatenation gate cannot recover
    from the germ alone (base codimension and augmenting function).
    """

    flags: frozenset[str] = frozenset()
    augconc: tuple[int, Poly] | None = None

    def __post_init__(self):
        read = REPORT_FLAGS + (() if self.augconc is None else AUGCONC_FLAGS)
        unread = sorted(self.flags - set(read))
        if unread:
            raise ValueError(f"no gate of this report reads the assertion "
                             f"flag(s) {', '.join(unread)}; it reads "
                             f"{', '.join(read)}")


@dataclass(frozen=True)
class SimplicityReport:
    verdict: Verdict
    trace: tuple[tuple[str, Verdict], ...]


def _atlas_verdict(f: MultiGerm, d_max: int) -> Verdict:
    found = atlas_mod.lookup(f, d_max)
    candidates = tuple((name, dict(params)) for name, params in found.matches)
    if found.exact:
        return Verdict.simple("atlas match", candidates=candidates)
    if candidates:
        return Verdict.unknown(
            "invariants match atlas candidates but no literal normal-form match",
            candidates=candidates)
    return Verdict.unknown("no atlas entry with these invariants")


def simplicity_report(f: MultiGerm,
                      d_max: int = D_MAX,
                      assertions: ReportAssertions | None = None) -> SimplicityReport:
    """Run the gates and the atlas lookup until the verdict is decided.

    Any NotSimple wins; Simple arises only from an atlas match or from the
    augmentation-and-concatenation gate; otherwise Unknown with the union
    of the unverified hypotheses, in trace order.

    The gates run in the order nishimura, branch_count, tau_pairing,
    augconc (only with its assertion), atlas, primitive_plus_morse; the
    trace records those that ran.  The first NotSimple ends the report.
    After a Simple only a gate that can still prove NotSimple runs: not
    the atlas lookup, and primitive_plus_morse only when primitivity is
    asserted (without it that gate can only abstain).  When several gates
    could prove NotSimple, the earliest in this order decides: augconc's
    NotSimple is returned before primitive_plus_morse runs.

    A gate (or the atlas lookup) whose dimension does not stabilize by the
    degree cap gives an Unknown trace entry naming the cap and carrying the
    values reached.  A proven verdict from another gate still stands.  An
    Unknown is what a larger cap could still change, so instead of it the
    first such NotStabilizedError is raised.

    A gate whose dimension is proved infinite (ProvedInfiniteError) gives a
    NotSimple entry, rule "not A-finite", with the proof as evidence.  Each
    gate computes on f or on a sub-multigerm of f, and such a proof shows
    that one of them is not A-finite (a branch that is not finite, with
    n <= p, or a germ unstable off 0): then neither is f, since by the
    Mather-Gaffney criterion a finite germ is A-finite exactly when it is
    stable off 0, and a sub-multigerm of a stable multigerm is stable.  A
    simple germ is A-finite (Mond and Nuno-Ballesteros, "Singularities of
    Mappings", Springer 2020).
    """
    assertions = assertions or ReportAssertions()
    trace: list[tuple[str, Verdict]] = []
    unstable: list[NotStabilizedError] = []

    def run(name: str, refutes: bool, gate, *args, **kwargs) -> None:
        # a gate that cannot prove NotSimple changes nothing after a Simple
        kinds = {verdict.kind for _, verdict in trace}
        if NOT_SIMPLE in kinds or (SIMPLE in kinds and not refutes):
            return
        try:
            verdict = gate(*args, **kwargs)
        except NotStabilizedError as exc:
            unstable.append(exc)
            verdict = Verdict.unknown(
                f"did not stabilize by degree {exc.d_max}",
                d_max=exc.d_max, history=exc.history)
        except ProvedInfiniteError as proof:
            verdict = Verdict.not_simple("not A-finite", reason=proof.reason,
                                         **proof.certificate)
        trace.append((name, verdict))

    primitive = FLAG_PRIMITIVITY in assertions.flags
    run("nishimura", True, gate_nishimura, f, d_max)
    run("branch_count", True, gate_branch_count, f, d_max)
    run("tau_pairing", True, gate_tau_pairing, f, d_max)
    if assertions.augconc is not None:
        base_cod, phi = assertions.augconc
        run("augconc", True, gate_augconc, base_cod, phi, assertions.flags)
    run("atlas", False, _atlas_verdict, f, d_max)
    run("primitive_plus_morse", primitive, gate_primitive_plus_morse, f,
        d_max, primitive_flag=primitive)

    for kind in (NOT_SIMPLE, SIMPLE):
        for name, verdict in trace:
            if verdict.kind == kind:
                return SimplicityReport(verdict=verdict, trace=tuple(trace))
    if unstable:
        raise unstable[0]
    reasons: list[str] = []
    for _, verdict in trace:
        for reason in verdict.unverified:
            if reason not in reasons:
                reasons.append(reason)
    return SimplicityReport(verdict=Verdict.unknown(*reasons),
                            trace=tuple(trace))
