"""germcalc: exact invariants, constructions and simplicity gates for
corank-1 polynomial multigerms, plus a verified normal-form atlas."""

from .ring import Poly, substitute, quotient_dim, milnor, tjurina
from .germ import Branch, MultiGerm, AType, corank, multiplicity, recognize_type, stratum_dim
from .tangent import ae_codim, a_codim, wilson_check, is_stable, CodimResult
from .errors import (GermcalcError, NotStabilizedError, ProvedInfiniteError,
                     NotCorankOneError, NotStableTypeError, GermSyntaxError)
from . import atlas, gates, ops, syntax  # noqa: E402  (submodule access)

__all__ = [
    "Poly", "substitute", "quotient_dim", "milnor", "tjurina",
    "Branch", "MultiGerm", "AType", "corank", "multiplicity", "recognize_type",
    "stratum_dim", "ae_codim", "a_codim", "wilson_check", "is_stable", "CodimResult",
    "GermcalcError", "NotStabilizedError", "ProvedInfiniteError",
    "NotCorankOneError", "NotStableTypeError", "GermSyntaxError",
]

__version__ = "0.1.0"
