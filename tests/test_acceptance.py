"""Acceptance suite: one test per criterion, one pass/fail line each.

Criteria, all with exact integer/rational comparisons:

  1. monogerm table reproduction;
  2. multigerm table reproduction at parameters k, mu <= 3;
  3. the codimension-formula equality clause for the simultaneous
     augmentation and concatenation of the codimension-1 triple-fold base;
  4. gate soundness on the catalog plus the specific multiplicity-bound
     failures;
  5. property suites (multiplicity formula, codimension cross-check,
     quasi-homogeneous tau = mu, parser round-trip, linear invariance);
  6. the classification-completeness claim itself is out of scope and is
     represented by the table recomputation plus gate consistency above.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines and
timings.
"""

from __future__ import annotations

import random
import time

from germcalc import atlas, gates, syntax
from germcalc.germ import Branch, MultiGerm, multiplicity
from germcalc.ops import Unfolding, sim_aug_concat, predicted_codim_augconc
from germcalc.ring import Poly, milnor, substitute, tjurina
from germcalc.tangent import WilsonReport, ae_codim, wilson_check

P = syntax.parse_multigerm


def V(n, i):
    return Poly.variable(n, i)


def _pass(line: str) -> None:
    print(f"\nACCEPTANCE PASS: {line}")


def test_criterion_1_monogerm_table():
    cases = [("A1", None, 0)]
    cases += [("3_mu", {"P": ("A", m)}, m) for m in (1, 2, 3, 4)]
    cases += [("3_mu", {"P": ("D", 4)}, 4)]
    cases += [("4_1^k", {"k": k}, k - 1) for k in (1, 2, 3)]
    cases += [("4_2^k", {"k": k}, k) for k in (2, 3)]
    cases += [("5_1", None, 1), ("5_2", None, 2)]
    worst = 0.0
    for name, params, expected in cases:
        row = atlas.verify(name, params)
        assert row.match and row.computed == expected, \
            f"{name} {params}: computed {row.computed}, expected {expected}"
        worst = max(worst, row.seconds)
        assert row.seconds < 60, f"{name} exceeded the 60 s budget"
    _pass(f"criterion 1: monogerm table, {len(cases)} instances reproduce "
          f"exactly (slowest entry {worst:.2f}s)")


def test_criterion_2_multigerm_table():
    start = time.perf_counter()
    report = atlas.verify_all(3)
    elapsed = time.perf_counter() - start
    multi = [row for row in report.rows
             if atlas._BY_NAME[row.name].kind == "multigerm"]
    assert multi, "no multigerm rows verified"
    failures = [row for row in multi if not row.match]
    assert not failures, f"mismatches: {[(r.name, r.params_text) for r in failures]}"

    by_name = {(row.name, row.params_text): row.computed for row in multi}
    ladder = [by_name[(f"A2A2-{s}", "-")] for s in "abcd"]
    assert ladder == [1, 2, 3, 4]
    quadrigerm = [by_name[("A1A1A1A1", f"k={k}")] for k in (1, 2, 3)]
    assert quadrigerm == [1, 2, 3]
    assert elapsed < 600, f"multigerm sweep took {elapsed:.0f}s"
    _pass(f"criterion 2: multigerm table, {len(multi)} instances over "
          f"{len({row.name for row in multi})} rows reproduce exactly "
          f"({elapsed:.1f}s)")


def test_criterion_3_augconc_equality_clause():
    # codimension-1 triple-fold base in (2, 2), unfolded through the third
    # branch, then simultaneously augmented by z^k and concatenated
    x, y, l = V(3, 0), V(3, 1), V(3, 2)
    total = MultiGerm((
        Branch((x * x, y, l)),
        Branch((x, y * y, l)),
        Branch((x * x + y + l, y, l)),
    ))
    u = Unfolding(total, s=1)
    assert ae_codim(u.base).value == 1
    w = V(1, 0)
    for k in (2, 3):
        out = sim_aug_concat(u, w ** k)
        tau = tjurina(w ** k)
        predicted = predicted_codim_augconc(1, tau)
        got = ae_codim(out).value
        assert got == predicted == k, f"k={k}: got {got}, predicted {predicted}"
    _pass("criterion 3: augment-and-concatenate equality holds for the "
          "triple-fold base with phi = z^2, z^3 (values 2 and 3)")


def test_criterion_4_gate_soundness():
    start = time.perf_counter()
    checked = 0
    for entry in atlas.entries():
        for params in atlas._parameter_sweep(entry, 3):
            germ = atlas.instantiate(entry.name, params)
            report = gates.simplicity_report(germ)
            # the refuting gates run even after the atlas match
            ran = [gate_name for gate_name, _ in report.trace]
            assert {"nishimura", "branch_count", "tau_pairing"} <= set(ran), \
                f"{entry.name} {params}: only {ran} ran"
            for gate_name, verdict in report.trace:
                assert verdict.kind != gates.NOT_SIMPLE, \
                    f"{gate_name} fired on {entry.name} {params}"
            checked += 1

    a2a3 = P("{(x,y,z^3+y*z);(x^4+y*x+z*x^2,y,z)}")
    v = gates.gate_nishimura(a2a3)
    assert v.kind == gates.NOT_SIMPLE and v.evidence["multiplicity"] == 7

    pentagerm = P("{(x,y,z^2);(x,y,z^2+x);(x,y,z^2+y);"
                  "(x,y,z^2+x+y);(x,y,z^2+x-y)}")
    assert gates.gate_nishimura(pentagerm).kind == gates.NOT_SIMPLE

    sextuple = P("{(x,y,z,0);(x,y,0,z);(x,0,y,z);(0,x,y,z);"
                 "(x,y,z,x);(x,y,z,y)}")
    assert gates.gate_nishimura(sextuple).kind == gates.NOT_SIMPLE
    elapsed = time.perf_counter() - start
    _pass(f"criterion 4: no gate contradicts the catalog on {checked} "
          f"instantiations; the multiplicity bound rejects the two-cusp/"
          f"swallowtail pair, the fold pentagerm and the sextuple point "
          f"({elapsed:.1f}s)")


def _unimodular(rng, size):
    rows = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(3 * size):
        i, j = rng.sample(range(size), 2)
        c = rng.randint(-2, 2)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def _stable_branch(rng, n, k):
    z = V(n, n - 1)
    comp = z ** (k + 1)
    for power in range(1, k):
        linear = Poly.zero(n)
        while linear.is_zero():
            linear = sum((Poly.const(n, rng.randint(-3, 3)) * V(n, i)
                          for i in range(n - 1)), Poly.zero(n))
        comp = comp + linear * z ** power
    return Branch(tuple([V(n, i) for i in range(n - 1)] + [comp]))


def test_criterion_5_property_suites():
    start = time.perf_counter()

    # multiplicity formula on 20 randomized stable labels
    rng = random.Random(1201)
    for _ in range(20):
        ks = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        g = MultiGerm(tuple(_stable_branch(rng, 3, k) for k in ks))
        assert multiplicity(g) == sum(ks) + len(ks)

    # codimension cross-check on every non-stable catalog instance
    wilson_checked = 0
    for entry in atlas.entries():
        for params in atlas._parameter_sweep(entry, 3):
            if atlas.expected_codim(entry.name, params) == 0:
                continue
            germ = atlas.instantiate(entry.name, params)
            report = wilson_check(germ)
            assert report.status == WilsonReport.CONSISTENT, \
                f"{entry.name} {params}: {report}"
            wilson_checked += 1

    # tau = mu for the quasi-homogeneous standard forms
    for series, mu in atlas.simple_functions_up_to(8):
        p = atlas.simple_function(series, mu)
        assert tjurina(p) == milnor(p) == mu

    # parser round-trip over the generated corpus
    corpus = 0
    for entry in atlas.entries():
        for params in atlas._parameter_sweep(entry, 3):
            germ = atlas.instantiate(entry.name, params)
            assert syntax.parse_multigerm(syntax.format_multigerm(germ)) == germ
            corpus += 1

    # linear-coordinate-change invariance of multiplicity and codimension
    rng = random.Random(77)
    samples = [
        P("{(x^3+y*x,y,z);(x,y^2+z^2,z)}"),
        P("(x,y,z^5+x*z+y*z^2)"),
    ]
    changes = 0
    for g in samples:
        base_m0 = multiplicity(g)
        base_ae = ae_codim(g).value
        for _ in range(5):
            n = g.n
            source = _unimodular(rng, n)
            target = _unimodular(rng, g.p)
            assignment = [sum((Poly.const(n, source[i][j]) * V(n, j)
                               for j in range(n)), Poly.zero(n))
                          for i in range(n)]
            branches = []
            for b in g.branches:
                comps = [substitute(c, assignment) for c in b.components]
                mixed = [sum((Poly.const(n, target[i][j]) * comps[j]
                              for j in range(len(comps))), Poly.zero(n))
                         for i in range(len(comps))]
                branches.append(Branch(tuple(mixed)))
            moved = MultiGerm(tuple(branches))
            assert multiplicity(moved) == base_m0
            assert ae_codim(moved).value == base_ae
            changes += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"property suites took {elapsed:.0f}s"
    _pass(f"criterion 5: property suites pass (20 multiplicity samples, "
          f"{wilson_checked} codimension cross-checks, tau=mu on the "
          f"standard forms, {corpus} round-trips, {changes} coordinate "
          f"changes; {elapsed:.1f}s)")


def test_criterion_6_completeness_note():
    # The classification-completeness claim is not reproducible at desk
    # scale and is out of scope; acceptance rests on the table
    # recomputation and the gate-consistency suites above.
    _pass("criterion 6: completeness of the classification is out of scope "
          "by design; covered indirectly by criteria 2 and 4")
