"""Reference answers for the benchmark, kept apart from the engine under test.

Every graded answer comes from here: the codimension formulas and normal
forms of the simple-multigerm tables, the multiplicities implied by the
type labels, and the verdicts known for the non-simple germs of the
acceptance suite.  Nothing in this module imports germcalc.

`KNOWN_DEFECTS` lists the inputs on which the engine is known to answer
wrongly, each with the wrong answer it gives.  They stay in the input sets
and count as failures; a run is `correct` when every failure it sees is one
of them and gives exactly that recorded answer.
"""

from __future__ import annotations

# -- simple plane function germs ----------------------------------------------

def simple_function_labels(mu_cap: int) -> list[tuple[str, int]]:
    """All (series, mu) labels of simple plane functions with mu <= cap."""
    out = [("A", m) for m in range(1, mu_cap + 1)]
    out += [("D", m) for m in range(4, mu_cap + 1)]
    out += [("E", m) for m in (6, 7, 8) if m <= mu_cap]
    return out


def simple_function_terms(series: str, mu: int) -> list[str]:
    """Normal form of a simple plane function in x, y, as a list of terms."""
    if series == "A":
        return ["x^2", f"y^{mu + 1}"]
    if series == "D":
        return ["x^2*y", f"y^{mu - 1}"]
    return {6: ["x^3", "y^4"], 7: ["x^3", "x*y^3"], 8: ["x^3", "y^5"]}[mu]


# -- the tables ----------------------------------------------------------------
#
# name: (parameter, smallest value, template, codimension formula).
# Templates use <k> for the parameter and <k1> for parameter + 1; the
# function-parameter rows (P, h) are built by `catalog_text`.

ROWS: dict[str, tuple] = {
    "A1": (None, 0, "(x,y,z^2)", lambda: 0),
    "3_mu": ("P", 1, None, None),
    "4_1^k": ("k", 1, "(x,y,z^4+x*z+y^<k>*z^2)", lambda k: k - 1),
    "4_2^k": ("k", 2, "(x,y,z^4+y^2*z+x^<k>*z+x*z^2)", lambda k: k),
    "5_1": (None, 0, "(x,y,z^5+x*z+y*z^2)", lambda: 1),
    "5_2": (None, 0, "(x,y,z^5+x*z+y^2*z^2+y*z^3)", lambda: 2),
    "A1A1": ("h", 1, None, None),
    "A1A2-a": ("k", 1, "{(x^3+y*x,y,z);(x,y^2+z^<k>,z)}", lambda k: k - 1),
    "A1A2-b": ("k", 1, "{(x^3+y*x,y,z);(x^2+z^<k>,y,z)}", lambda k: 2 * (k - 1)),
    "A1A3": ("k", 1, "{(x^4+y*x+z*x^2,y,z);(x,y^2+z^<k>,z)}", lambda k: k),
    "A2A2-a": (None, 0, "{(x^3+y*x,y,z);(x,y,z^3+y*z)}", lambda: 1),
    "A2A2-b": (None, 0, "{(x^3+y^2*x+z*x,y,z);(x,y,z^3+y*z)}", lambda: 2),
    "A2A2-c": (None, 0, "{(x^3+y*x,y,z);(x^3+z*x+x^2*y,y,z)}", lambda: 3),
    "A2A2-d": (None, 0, "{(x^3+y*x,y,z);(x^3+z*x,y,z)}", lambda: 4),
    "3_muA1-a": ("mu", 1, "{(x^3+y^2*x+z^<k1>*x,y,z);(x,y,z^2)}", lambda m: m + 1),
    "3_muA1-b": ("mu", 1, "{(x^3+y^2*x+z^<k1>*x,y,z);(x,y^2,z)}", lambda m: 2 * m),
    "4_1^kA1": ("k", 1, "{(x^4+y*x+z^<k>*x^2,y,z);(x,y,z^2)}", lambda k: k),
    "3_muA2": ("mu", 1, "{(x^3+y^2*x+z^<k1>*x,y,z);(x,y,z^3+y*z)}", lambda m: m + 2),
    "A1A1A1-a": ("k", 1, "{(x^2,y,z);(x^2+y+z^<k>,y,z);(x,y^2,z)}", lambda k: k - 1),
    "A1A1A1-b": ("k", 1, "{(x^2,y,z);(x^2+y^<k>+z^2,y,z);(x,y^2,z)}", lambda k: k),
    "A1A1A1-c": ("k", 2, "{(x^2,y,z);(x^2+y*z+z^<k>,y,z);(x,y^2,z)}", lambda k: k),
    "A1A1A1-d": (None, 0, "{(x^2,y,z);(x^2+y^2+z^3,y,z);(x,y^2,z)}", lambda: 4),
    "A1A1A2-a": ("k", 1, "{(x,y,z^2);(x,y,z^2+y^2+x^<k>);(x^3+y*x,y,z)}",
                 lambda k: k + 1),
    "A1A1A2-b": ("k", 1, "{(x,y,z^2);(x,y^2+z^<k>,z);(x^3+y*x,y,z)}", lambda k: k),
    "3_muA1A1": ("mu", 2, "{(x^3+y^2*x+z^<k1>*x,y,z);(x,y,z^2);(x,y,z^2+y)}",
                 lambda m: m + 2),
    "A1A1A1A1": ("k", 1, "{(x^2,y,z);(x,y^2,z);(x^2+y+z^<k>,y,z);(x,y,z^2)}",
                 lambda k: k),
}


def sweep(param_cap: int) -> list[tuple[str, dict]]:
    """Every (row, parameters) pair up to the cap, in table order."""
    out = []
    for name, (param, low, _, _) in ROWS.items():
        if param is None:
            out.append((name, {}))
        elif param in ("P", "h"):
            out += [(name, {param: label})
                    for label in simple_function_labels(param_cap)]
        else:
            out += [(name, {param: v}) for v in range(low, param_cap + 1)]
    return out


def input_id(name: str, params: dict) -> str:
    """Stable text label of one table instantiation, e.g. `A1A3 k=7`."""
    if not params:
        return name
    (key, value), = params.items()
    if isinstance(value, (tuple, list)):
        value = f"{value[0]}{value[1]}"
    return f"{name} {key}={value}"


def expected_codim(name: str, params: dict) -> int:
    """The codimension formula of the table row."""
    param, _, _, formula = ROWS[name]
    if param is None:
        return formula()
    if param in ("P", "h"):
        return params[param][1]  # mu of the plane function
    return formula(params[param])


def catalog_text(name: str, params: dict) -> str:
    """The normal form of one instantiation as a germ expression."""
    param, _, template, _ = ROWS[name]
    if param == "P":
        terms = simple_function_terms(*params["P"])
        return "(x,y,z^3" + "".join(f"+{t}*z" for t in terms) + ")"
    if param == "h":
        terms = simple_function_terms(*params["h"])
        return "{(x,y,z^2);(x,y,z^2" + "".join(f"+{t}" for t in terms) + ")}"
    if param is None:
        return template
    v = params[param]
    return template.replace("<k>", str(v)).replace("<k1>", str(v + 1))


# -- dense coordinates -----------------------------------------------------------
#
# The two normal forms that `dense-coords` moves by linear coordinate
# changes (see workloads.DENSE_MOVED), each with its table codimension and
# the multiplicity of its type label (sum of k_i + 1 over A_{k_1,...,k_r}).

DENSE_BASES = {
    "5_1": {"m0": 5, "aecod": 1},          # A_4
    "A1A2-a k=2": {"m0": 5, "aecod": 1},   # A_{2,1}
}


# -- classify: constructions and non-simple germs ------------------------------

# Criterion 3 of the acceptance suite: the codimension-1 triple-fold base
# unfolded through its third branch, augmented by phi = w^k and
# concatenated with a fold.  The equality clause gives codimension k.
AUGCONC_TOTAL = "{(x^2,y,u);(x,y^2,u);(x^2+y+u,y,u)}"
AUGCONC_POWERS = (2, 3, 4)

# Criterion 4 of the acceptance suite: germs that the multiplicity bound
# proves non-simple.
NON_SIMPLE = {
    "two-cusp/swallowtail": "{(x,y,z^3+y*z);(x^4+y*x+z*x^2,y,z)}",
    "fold pentagerm": "{(x,y,z^2);(x,y,z^2+x);(x,y,z^2+y);(x,y,z^2+x+y);"
                      "(x,y,z^2+x-y)}",
    "sextuple point": "{(x,y,z,0);(x,y,0,z);(x,0,y,z);(0,x,y,z);(x,y,z,x);"
                      "(x,y,z,y)}",
}


# -- defects of the engine at the time the benchmark was written -------------------

KNOWN_DEFECTS = {
    "atlas-sweep": {
        # the window-2 stabilization rule stops on a stair of width 2 in the
        # truncation curve and under-reports with exit 0
        "4_2^k k=6": {"aecod": 5},
        "4_2^k k=7": {"aecod": 5},
        "4_2^k k=8": {"aecod": 5},
        "A1A3 k=7": {"aecod": 6},
        "A1A3 k=8": {"aecod": 6},
    },
    "classify": {
        # `gate` exits 2 (a codimension does not stabilize) although the
        # multiplicity bound alone already proves the germ non-simple
        "non-simple fold pentagerm": {"gate_exit": 2},
        "non-simple sextuple point": {"gate_exit": 2},
    },
    "dense-coords": {},
}
