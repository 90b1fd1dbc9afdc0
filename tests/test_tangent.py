"""The codimension engine: extended/non-extended values, consistency checks."""

from __future__ import annotations

import random
import threading

import pytest

from germcalc import atlas, cli, ops, syntax, tangent
from germcalc.errors import NotStabilizedError, ProvedInfiniteError
from germcalc.germ import (Branch, MultiGerm, linear_prenormal_form,
                           multiplicity, weights)
from germcalc.ring import D_MAX, Poly, substitute
from germcalc.tangent import (WilsonReport, _graded_tangent, a_codim,
                              ae_codim, is_stable, wilson_check)
from germcalc._echelon import RowSpan
from test_graded_curve import reference_slots, reference_tangent_rows


def V(n, i):
    return Poly.variable(n, i)


def B(*comps):
    return Branch(tuple(comps))


def G(*branches):
    return MultiGerm(tuple(branches))


X, Y, Z = V(3, 0), V(3, 1), V(3, 2)
T = V(1, 0)


class TestAeCodim:
    def test_stable_fold(self):
        assert ae_codim(G(B(X, Y, Z * Z))).value == 0

    def test_quintic_form(self):
        g = G(B(X, Y, Z ** 5 + X * Z + Y * Z * Z))
        assert ae_codim(g).value == 1

    def test_plane_curve(self):
        g = G(Branch((T ** 2, T ** 5)))
        assert ae_codim(g).value == 2

    def test_fold_and_cusp_bigerm(self):
        g = G(B(X ** 3 + Y * X, Y, Z), B(X, Y * Y + Z ** 3, Z))
        assert ae_codim(g).value == 2


class TestFailureCache:
    @pytest.mark.parametrize("codim", [ae_codim, a_codim], ids=["ae", "a"])
    def test_repeated_failure_raises_afresh_without_recomputing(
            self, codim, monkeypatch):
        # 4_2^6 is certified only at degree 11, and has no positive
        # weights, so under a cap of 10 no proof of infinity replaces
        # the failure
        germ, d_max = atlas.instantiate("4_2^k", {"k": 6}), 10
        runs = []
        stabilized = tangent._stabilized_codim

        def counting(f, d_max, extended):
            runs.append(f)
            return stabilized(f, d_max, extended)

        monkeypatch.setattr(tangent, "_stabilized_codim", counting)
        codim.cache_clear()
        errors = []
        for _ in range(2):
            with pytest.raises(NotStabilizedError) as info:
                codim(germ, d_max)
            errors.append(info.value)
        first, second = errors
        assert first is not second
        assert str(first) == str(second)
        assert first.d_max == second.d_max == 10
        assert first.history == second.history and first.history
        assert runs == [germ]

    @pytest.mark.parametrize("codim", [ae_codim, a_codim], ids=["ae", "a"])
    def test_repeated_proof_raises_afresh_without_recomputing(
            self, codim, monkeypatch):
        # (x, y, x z^2) vanishes on the z-axis, so it is not finite
        germ, d_max = G(B(X, Y, X * Z * Z)), 8
        runs = []
        stabilized = tangent._stabilized_codim

        def counting(f, d_max, extended):
            runs.append(f)
            return stabilized(f, d_max, extended)

        monkeypatch.setattr(tangent, "_stabilized_codim", counting)
        for fn in vars(tangent).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        errors = []
        for _ in range(2):
            with pytest.raises(ProvedInfiniteError) as info:
                codim(germ, d_max)
            errors.append(info.value)
        first, second = errors
        assert first is not second
        assert (str(first), first.reason, first.certificate) == \
            (str(second), second.reason, second.certificate)
        assert first.certificate == {"line": (0, 0, 1)}
        assert runs == [germ]

    @pytest.mark.parametrize("codim", [ae_codim, a_codim], ids=["ae", "a"])
    @pytest.mark.parametrize("germ, spellings", [
        (G(B(X, Y, Z ** 3 + X * Z)),
         [lambda c, f: c(f), lambda c, f: c(f, D_MAX),
          lambda c, f: c(f, d_max=D_MAX)]),
        (atlas.instantiate("4_2^k", {"k": 6}),
         [lambda c, f: c(f, 10), lambda c, f: c(f, d_max=10),
          lambda c, f: c(f=f, d_max=10)]),
    ], ids=["stabilizes", "fails"])
    def test_every_spelling_of_d_max_computes_once(self, codim, germ,
                                                   spellings, monkeypatch):
        runs = []
        stabilized = tangent._stabilized_codim

        def counting(f, d_max, extended):
            runs.append(f)
            return stabilized(f, d_max, extended)

        monkeypatch.setattr(tangent, "_stabilized_codim", counting)
        for fn in vars(tangent).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        outcomes = []
        for spell in spellings:
            try:
                outcomes.append(spell(codim, germ))
            except NotStabilizedError as error:
                outcomes.append(error)
        assert runs == [germ]
        first = outcomes[0]
        for other in outcomes[1:]:
            if isinstance(first, NotStabilizedError):
                assert other is not first
                assert (str(other), other.d_max, other.history) == \
                    (str(first), first.d_max, first.history)
            else:
                assert other == first

    def test_every_spelling_of_d_max_tests_stability_once(self,
                                                          monkeypatch):
        germ, runs = G(B(X, Y, Z ** 3 + X * Z)), []
        graded = tangent._graded_tangent

        def counting(f, *args):
            runs.append(f)
            return graded(f, *args)

        monkeypatch.setattr(tangent, "_graded_tangent", counting)
        is_stable.cache_clear()
        answers = [is_stable(germ), is_stable(germ, D_MAX),
                   is_stable(germ, d_max=D_MAX),
                   is_stable(f=germ, d_max=D_MAX)]
        assert answers == [True] * 4
        assert len(runs) == 1

    def test_repeated_stability_failure_raises_afresh_without_recomputing(
            self, monkeypatch):
        # for n > p the multiplicity search fails at the cap, unproved
        germ, runs = G(Branch((V(2, 0) * V(2, 1),))), []
        power = tangent.multiplicity_and_power

        def counting(f, d_max):
            runs.append(f)
            return power(f, d_max)

        monkeypatch.setattr(tangent, "multiplicity_and_power", counting)
        is_stable.cache_clear()
        errors = []
        for _ in range(2):
            with pytest.raises(NotStabilizedError) as info:
                is_stable(germ, 6)
            errors.append(info.value)
        first, second = errors
        assert first is not second
        assert (str(first), first.d_max, first.history) == \
            (str(second), second.d_max, second.history)
        assert runs == [germ]

    def test_cache_info_counts_a_repeat_and_a_new_spelling_as_hits(self):
        failing = atlas.instantiate("4_2^k", {"k": 6})
        stable = G(B(X, Y, Z * Z))
        ae_codim.cache_clear()
        for _ in range(2):
            with pytest.raises(NotStabilizedError):
                ae_codim(failing, 10)
        with pytest.raises(NotStabilizedError):
            ae_codim(failing, d_max=10)
        assert ae_codim(stable).value == 0
        assert ae_codim(stable, D_MAX).value == 0
        info = ae_codim.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 2, 2)


class TestACodim:
    def test_plane_curve(self):
        # extended 2, one branch, (n, p) = (1, 2): non-extended = 2 - 1 + 2
        assert a_codim(G(Branch((T ** 2, T ** 5)))).value == 3

    def test_fold_pair_with_contact(self):
        # extended 2, r = 2, n = p = 3: non-extended = 2 + 3
        g = G(B(X, Y, Z * Z), B(X, Y, Z * Z + Y * Y + X ** 3))
        assert a_codim(g).value == 5


class TestWilson:
    def test_quintic_consistent(self):
        g = G(B(X, Y, Z ** 5 + X * Z + Y * Z * Z))
        assert wilson_check(g).status == WilsonReport.CONSISTENT

    def test_stable_not_applicable(self):
        assert wilson_check(G(B(X, Y, Z * Z))).status == WilsonReport.NOT_APPLICABLE

    def test_curve_consistent(self):
        report = wilson_check(G(Branch((T ** 2, T ** 5))))
        assert report.status == WilsonReport.CONSISTENT
        assert (report.extended, report.non_extended) == (2, 3)


class TestIsStable:
    def test_cuspidal_edge(self):
        assert is_stable(G(B(X, Y, Z ** 3 + Y * Z)))

    def test_cusp_curve(self):
        assert not is_stable(G(Branch((T ** 2, T ** 3))))

    def test_two_cusps_with_contact(self):
        g = G(B(X ** 3 + Z * X, Y, Z), B(X, Y, Z ** 3 + Y * Z))
        assert not is_stable(g)

    def test_answers_where_the_codimension_is_not_certified(self):
        # 4_2^6 has codimension 6, certified only at degree 11
        g = atlas.instantiate("4_2^k", {"k": 6})
        with pytest.raises(NotStabilizedError):
            ae_codim(g, 10)
        assert is_stable(g, 10) is False

    def test_a_map_that_is_not_finite_is_not_stable(self):
        assert is_stable(G(B(X, Y, X * Z * Z)), 8) is False

    def test_no_proof_when_the_source_is_larger(self):
        # for n > p no map is finite, yet the Morse function x y is stable
        # though it vanishes on both axes: its multiplicity search fails at
        # the cap, unproved, and so do its codimension and stability
        x, y = V(2, 0), V(2, 1)
        g = G(Branch((x * y,)))
        for fn in (multiplicity, ae_codim, is_stable):
            with pytest.raises(NotStabilizedError):
                fn(g, 6)

    def test_agrees_with_the_codimension_on_the_cap_3_catalog(self):
        for entry in atlas.entries():
            for params in atlas._parameter_sweep(entry, 3):
                g = atlas.instantiate(entry.name, params)
                assert is_stable(g) == (ae_codim(g).value == 0), g


def _classify_germs() -> list[MultiGerm]:
    """The finite germs a classify pass evaluates: the catalog rows up to
    parameter 3 and the augmentation-and-concatenation of the triple-fold
    base by w^2, w^3 and w^4, each in the canonical form `eval` reads."""
    rows = [atlas.instantiate(entry.name, params) for entry in atlas.entries()
            for params in atlas._parameter_sweep(entry, 3)]
    base = ops.normalized_unfolding(syntax.parse_multigerm(
        "{(x^2,y,u);(x,y^2,u);(x^2+y+u,y,u)}", canonical=False), 1)
    rows += [ops.sim_aug_concat(base, syntax.parse_poly(f"w^{k}"))
             for k in (2, 3, 4)]
    return [syntax.canonical_form(g)[0] for g in rows]


PENTAGERM = ("{(x,y,z^2);(x,y,z^2+x);(x,y,z^2+y);(x,y,z^2+x+y);"
             "(x,y,z^2+x-y)}")
SEXTUPLE = "{(x,y,z,0);(x,y,0,z);(x,0,y,z);(0,x,y,z);(x,y,z,x);(x,y,z,y)}"


class TestInfinityCertificate:
    def test_silent_on_every_finite_catalog_and_classify_germ(self):
        # every catalog row through parameter 8 (the cap-3 rows, whose
        # a_codim the engine tests, among them) and every finite classify
        # input is A-finite, so no certificate may exist for any of them
        germs = {atlas.instantiate(entry.name, params)
                 for entry in atlas.entries()
                 for params in atlas._parameter_sweep(entry, 8)}
        assert len(germs) == 164  # of 165 rows; one is a boundary member
        classify = _classify_germs()
        assert len(classify) == 62
        for g in list(germs) + classify:
            assert tangent.unstable_point(g) is None, g

    @pytest.mark.parametrize("text", [PENTAGERM, SEXTUPLE, "(x,y,z^3)"],
                             ids=["fold-pentagerm", "sextuple-point", "z3"])
    def test_fires_with_a_witness_that_checks(self, text):
        f = syntax.parse_multigerm(text)
        proof = tangent.unstable_point(f)
        assert proof is not None
        y = proof.point
        assert any(y)
        # the weights are positive and make every component homogeneous
        assert all(w > 0 for ws in proof.source_weights for w in ws)
        assert all(v > 0 for v in proof.target_weights)
        for ws, branch in zip(proof.source_weights, f.branches):
            for v, comp in zip(proof.target_weights, branch.components):
                assert all(sum(a * w for a, w in zip(mono, ws)) == v
                           for mono, _ in comp.items())
        # each point lies over y; translated there, the points form a germ
        # whose truncated value at degree 3, a lower bound of its extended
        # codimension, is not 0, so it is not stable
        parts = []
        for b, x in proof.fibre:
            branch = f.branches[b]
            shifted = [V(f.n, i) + c for i, c in enumerate(x)]
            moved = [substitute(comp, shifted) for comp in branch.components]
            assert tuple(m.constant_term() for m in moved) == y
            parts.append(Branch(tuple(m - c for m, c in zip(moved, y))))
        values, _ = _graded_tangent(MultiGerm(tuple(parts)), 3, True)
        assert values[3] > 0

    @pytest.mark.parametrize("text, point", [
        (PENTAGERM, (1, 0, 1)), (SEXTUPLE, (0, 0, 1, 0)),
        ("(x,y,z^3)", (0, 1, 0))],
        ids=["fold-pentagerm", "sextuple-point", "z3"])
    def test_both_codimensions_are_proved_infinite(self, text, point):
        f = syntax.parse_multigerm(text)
        for codim in (ae_codim, a_codim):
            with pytest.raises(ProvedInfiniteError) as info:
                codim(f)
            assert info.value.certificate["point"] == point
        assert wilson_check(f).status == WilsonReport.NOT_APPLICABLE

    def test_two_threaded_searches_both_raise_the_proof(self, monkeypatch):
        # the first call of the certificate is held until the other
        # search has ended, so that search reaches its last candidate
        # while the proof is still being computed.  It must compute the
        # proof itself, not fail at that candidate and keep the failure
        f = syntax.parse_multigerm(PENTAGERM)
        for fn in vars(tangent).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        certificate = tangent.unstable_point
        ended = {codim.__name__: threading.Event()
                 for codim in (ae_codim, a_codim)}
        callers, waited, lock = [], [], threading.Lock()

        def holding(g, d_max=D_MAX):
            name = threading.current_thread().name
            with lock:
                callers.append(name)
                held = len(callers) == 1
            if held:
                (other,) = (done for search, done in ended.items()
                            if search != name)
                waited.append(other.wait(timeout=30))
            return certificate(g, d_max)

        monkeypatch.setattr(tangent, "unstable_point", holding)
        outcomes = {}

        def search(codim):
            try:
                outcomes[codim.__name__] = codim(f)
            except Exception as error:
                outcomes[codim.__name__] = error
            finally:
                ended[codim.__name__].set()

        threads = [threading.Thread(target=search, args=(codim,),
                                    name=codim.__name__)
                   for codim in (ae_codim, a_codim)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert waited == [True]
        assert all(isinstance(outcome, ProvedInfiniteError)
                   for outcome in outcomes.values()), outcomes
        assert len(outcomes) == 2
        for codim in (ae_codim, a_codim):
            with pytest.raises(ProvedInfiniteError):
                codim(f)

    @pytest.mark.parametrize("name, params, d_max", [
        ("A1A2-b", {"k": 8}, 7), ("3_muA1-b", {"mu": 8}, 8)],
        ids=["A1A2-b-8", "3_muA1-b-8"])
    def test_weighted_finite_rows_below_their_cap_still_exit_2(
            self, name, params, d_max, capsys, monkeypatch):
        # both rows have positive weights, and are finite, so the
        # certificate runs before the last candidate and finds nothing:
        # passing is monotone, so under any cap from their least passing
        # degree (8 and 9) they are certified, and below it they fail
        f = atlas.instantiate(name, params)
        assert weights(f) is not None
        for fn in vars(tangent).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        found = []
        certificate = tangent.unstable_point

        def spying(g, d_max=D_MAX):
            found.append(certificate(g, d_max))
            return found[-1]

        monkeypatch.setattr(tangent, "unstable_point", spying)
        text = syntax.format_multigerm(f)
        assert cli.run(["eval", "--germ", text, "--max-degree",
                        str(d_max)]) == 2
        assert f"did not stabilize by degree {d_max}" in \
            capsys.readouterr().err
        assert found == [None]
        assert cli.run(["eval", "--germ", text, "--max-degree",
                        str(d_max + 1)]) == 0


class TestInvariance:
    def setup_method(self):
        self.g = G(B(X ** 3 + Y * X, Y, Z), B(X, Y * Y + Z ** 3, Z))
        self.base = ae_codim(self.g).value

    def test_branch_permutation(self):
        swapped = G(*reversed(self.g.branches))
        assert ae_codim(swapped).value == self.base

    def test_source_variable_permutation(self):
        perm = [2, 0, 1]
        branches = tuple(
            Branch(tuple(c.remap_variables(3, perm) for c in b.components))
            for b in self.g.branches)
        assert ae_codim(MultiGerm(branches)).value == self.base

    def test_common_target_linear_change(self):
        rng = random.Random(77)
        for _ in range(3):
            rows = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
            for _ in range(6):
                i, j = rng.sample(range(3), 2)
                c = rng.randint(-2, 2)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            branches = []
            for b in self.g.branches:
                comps = [sum((Poly.const(3, rows[i][j]) * b.components[j]
                              for j in range(3)), Poly.zero(3))
                         for i in range(3)]
                branches.append(Branch(tuple(comps)))
            assert ae_codim(MultiGerm(tuple(branches))).value == self.base


def _moved_quintic():
    # (x, y, z^5 + xz + yz^2) moved by a linear source and target change
    x, y, z = X + 2 * Y, -2 * X - 3 * Y, 2 * X + Y + Z
    a, b, c = x, y, z ** 5 + x * z + y * z * z
    return G(B(-a - 2 * b + c, -2 * a - b + 3 * c, 4 * a + 3 * b - 6 * c))


MOVED_QUINTIC = _moved_quintic()


class TestBasis:
    @pytest.mark.parametrize("germ,value", [
        (G(Branch((T ** 2, T ** 5))), 2),
        (G(B(X, Y, Z ** 5 + X * Z + Y * Z * Z)), 1),
        # its slots index its prenormal form, not the germ
        (MOVED_QUINTIC, 1),
    ])
    def test_basis_matches_value_and_is_independent(self, germ, value):
        result = ae_codim(germ)
        assert result.value == value
        assert len(result.basis) == value

        # rebuild the tangent rows of the form the engine eliminated on at
        # the stabilized degree, with the independent reference builder,
        # and check the unit section at each basis slot is outside the span
        # until adjoined
        germ, _, _ = linear_prenormal_form(germ)
        d = result.degree_used
        col = {s: i for i, s in enumerate(reference_slots(germ, d, True))}
        span = RowSpan()
        for row in reference_tangent_rows(germ, d, True, col):
            span.insert(row)
        for slot in result.basis:
            row = {col[slot]: 1}
            assert not span.contains(row)
            assert span.insert(row)
            assert span.contains(row)


class TestClassicalMonogerms:
    def test_cross_cap_is_stable(self):
        x, y = V(2, 0), V(2, 1)
        g = G(Branch((x, y * y, x * y)))
        assert ae_codim(g).value == 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_curve_cusp_augmented_by_power(self, k):
        # augmenting the plane cusp curve by x^{k+1} multiplies the base
        # codimension 1 by tau(x^{k+1}) = k
        x, y = V(2, 0), V(2, 1)
        g = G(Branch((y * y, y ** 3 + x ** (k + 1) * y, x)))
        assert ae_codim(g).value == k

    @pytest.mark.parametrize("a,b", [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5)])
    def test_monomial_curves_match_delta_invariant(self, a, b):
        # for quasi-homogeneous curve parameterizations the codimension
        # equals the delta invariant, (a-1)(b-1)/2 for (t^a, t^b)
        g = G(Branch((T ** a, T ** b)))
        assert ae_codim(g).value == (a - 1) * (b - 1) // 2


def test_augmentation_family_of_codim_one_base(augmentation_adjacency_family):
    # the base (x, z^4+x*z) has codimension 1; augmenting by z^k must give
    # codimension k - 1, stepping down the adjacency chain as k drops
    for k, germ in augmentation_adjacency_family((2, 3, 4)):
        assert ae_codim(germ).value == k - 1


def test_adjacency_chain_descends(augmentation_adjacency_family):
    values = [ae_codim(germ).value
              for _, germ in augmentation_adjacency_family((4, 3, 2))]
    assert values == [3, 2, 1]
