"""Seeded input sets of the three workloads, with their references.

`generate(workload, seed)` returns the inputs handed to the worker and, by
input id, the reference each answer is graded against.  Inputs reach the
program as germ-expression text (or, for `atlas-sweep`, as the catalog row
and parameter that `atlas.verify_all` itself passes to `atlas.verify`).
"""

from __future__ import annotations

import hashlib
import json
import random

import reference as ref

WORKLOADS = ("atlas-sweep", "dense-coords", "classify")

ATLAS_PARAM_CAP = 8
CLASSIFY_PARAM_CAP = 3

# `dense-coords` moves two catalog normal forms by linear coordinate
# changes, f -> T . f(S x).  The pairs (S, T) are draws of the generator of
# acceptance criterion 5 (random.Random(77), 3*size elementary row
# operations with multipliers in [-2, 2]; the third draw of each of its two
# samples):
#
#   5_1          (x,y,z^5+x*z+y*z^2)
#                S = [[1, 2, 0], [-2, -3, 0], [2, 1, 1]]
#                T = [[-1, -2, 1], [-2, -1, 3], [4, 3, -6]]
#   A1A2-a k=2   {(x^3+y*x,y,z);(x,y^2+z^2,z)}
#                S = [[1, 12, 0], [0, 16, 3], [0, 5, 1]]
#                T = [[1, 0, 2], [0, 1, 5], [2, -1, 0]]
#
# The texts below are those germs expanded, terms by descending degree.
# The cost of one moved germ depends strongly on the draw (4.8 s to 19.4 s
# over the ten draws of criterion 5) and even on the signs of the
# coordinates, which steer the variable order the parser picks (4.8 s
# against 7.4 s for one draw).  So the draws are fixed and the seed only
# orders them: every seed measures the same work.
DENSE_MOVED = {
    "A1A2-a k=2": (
        "{(x^3+36*x^2*y+432*x*y^2+1728*y^3+16*x*y+3*x*z+192*y^2+36*y*z+10*y"
        "+2*z,41*y+8*z,2*x^3+72*x^2*y+864*x*y^2+3456*y^3+32*x*y+6*x*z+384*y^2"
        "+72*y*z-16*y-3*z);(x+22*y+2*z,281*y^2+106*y*z+10*z^2+25*y+5*z,"
        "-281*y^2-106*y*z-10*z^2+2*x+24*y)}"
    ),
    "5_1": (
        "(32*x^5+80*x^4*y+80*x^4*z+80*x^3*y^2+160*x^3*y*z+80*x^3*z^2"
        "+40*x^2*y^3+120*x^2*y^2*z+120*x^2*y*z^2+40*x^2*z^3+10*x*y^4"
        "+40*x*y^3*z+60*x*y^2*z^2+40*x*y*z^3+10*x*z^4+y^5+5*y^4*z+10*y^3*z^2"
        "+10*y^2*z^3+5*y*z^4+z^5-8*x^3-20*x^2*y-8*x^2*z-14*x*y^2-16*x*y*z"
        "-2*x*z^2-3*y^3-6*y^2*z-3*y*z^2+2*x^2+5*x*y+x*z+2*y^2+2*y*z+3*x+4*y"
        ",96*x^5+240*x^4*y+240*x^4*z+240*x^3*y^2+480*x^3*y*z+240*x^3*z^2"
        "+120*x^2*y^3+360*x^2*y^2*z+360*x^2*y*z^2+120*x^2*z^3+30*x*y^4"
        "+120*x*y^3*z+180*x*y^2*z^2+120*x*y*z^3+30*x*z^4+3*y^5+15*y^4*z"
        "+30*y^3*z^2+30*y^2*z^3+15*y*z^4+3*z^5-24*x^3-60*x^2*y-24*x^2*z"
        "-42*x*y^2-48*x*y*z-6*x*z^2-9*y^3-18*y^2*z-9*y*z^2+6*x^2+15*x*y+3*x*z"
        "+6*y^2+6*y*z-y,-192*x^5-480*x^4*y-480*x^4*z-480*x^3*y^2-960*x^3*y*z"
        "-480*x^3*z^2-240*x^2*y^3-720*x^2*y^2*z-720*x^2*y*z^2-240*x^2*z^3"
        "-60*x*y^4-240*x*y^3*z-360*x*y^2*z^2-240*x*y*z^3-60*x*z^4-6*y^5"
        "-30*y^4*z-60*y^3*z^2-60*y^2*z^3-30*y*z^4-6*z^5+48*x^3+120*x^2*y"
        "+48*x^2*z+84*x*y^2+96*x*y*z+12*x*z^2+18*y^3+36*y^2*z+18*y*z^2-12*x^2"
        "-30*x*y-6*x*z-12*y^2-12*y*z-2*x-y)"
    ),
}


# -- the workloads ------------------------------------------------------------------

def _atlas_sweep(rng: random.Random):
    inputs, refs = [], {}
    for name, params in ref.sweep(ATLAS_PARAM_CAP):
        iid = ref.input_id(name, params)
        inputs.append({"id": iid, "kind": "verify", "name": name,
                       "params": params})
        refs[iid] = {"aecod": ref.expected_codim(name, params)}
    rng.shuffle(inputs)
    return inputs, refs


def _dense_coords(rng: random.Random):
    inputs, refs = [], {}
    for base, text in DENSE_MOVED.items():
        iid = f"{base} moved"
        inputs.append({"id": iid, "kind": "dense", "germ": text})
        refs[iid] = {"m0": ref.DENSE_BASES[base]["m0"],
                     "aecod": ref.DENSE_BASES[base]["aecod"]}
    rng.shuffle(inputs)
    return inputs, refs


def _classify(rng: random.Random):
    inputs, refs = [], {}
    for name, params in ref.sweep(CLASSIFY_PARAM_CAP):
        iid = ref.input_id(name, params)
        inputs.append({"id": iid, "kind": "classify",
                       "germ": ref.catalog_text(name, params)})
        refs[iid] = {"aecod": ref.expected_codim(name, params),
                     "verdict": "simple"}
    for k in ref.AUGCONC_POWERS:
        iid = f"augconc w^{k}"
        inputs.append({"id": iid, "kind": "augconc",
                       "total": ref.AUGCONC_TOTAL, "phi": f"w^{k}"})
        refs[iid] = {"aecod": k, "verdict": None}
    for label, text in ref.NON_SIMPLE.items():
        iid = f"non-simple {label}"
        inputs.append({"id": iid, "kind": "classify", "germ": text})
        refs[iid] = {"aecod": None, "verdict": "not_simple"}
    # Answers read the caches that earlier inputs filled, so the order sets
    # each input's cost.  A fixed shuffle keeps that pattern the same for
    # every seed; the seed picks where the session starts in it.
    random.Random("classify").shuffle(inputs)
    start = rng.randrange(len(inputs))
    return inputs[start:] + inputs[:start], refs


def generate(workload: str, seed: int):
    """(inputs, references by input id) of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    build = {"atlas-sweep": _atlas_sweep, "dense-coords": _dense_coords,
             "classify": _classify}[workload]
    return build(rng)


def fingerprint(inputs: list[dict]) -> str:
    """Digest of the exact inputs sent to the program."""
    text = json.dumps(inputs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
