"""Exceptions shared across the package, and how a failure is cached."""

from __future__ import annotations

from functools import lru_cache, wraps


class GermcalcError(Exception):
    """Base class for all germcalc errors."""


class NotStabilizedError(GermcalcError):
    """A truncated-jet dimension did not stabilize before hitting d_max.

    This usually signals an infinite-dimensional quotient (non-isolated
    singularity, non-finite codimension) or a d_max that is too small for
    the germ at hand.
    """

    def __init__(self, message: str, d_max: int | None = None,
                 history: tuple[int, ...] = ()):
        super().__init__(message)
        self.d_max = d_max
        self.history = tuple(history)


def remember_failures(maxsize: int):
    """`lru_cache(maxsize)` over positional arguments that remembers a
    NotStabilizedError like a value: a repeated call raises a fresh one
    with the same message, d_max and history, without computing again."""
    def decorate(fn):
        @lru_cache(maxsize=maxsize)
        def outcome(*args):
            try:
                return fn(*args), None
            except NotStabilizedError as error:
                return None, (str(error), error.d_max, error.history)

        @wraps(fn)
        def cached(*args):
            value, failure = outcome(*args)
            if failure:
                raise NotStabilizedError(*failure)
            return value

        cached.cache_info, cached.cache_clear = (outcome.cache_info,
                                                 outcome.cache_clear)
        return cached
    return decorate


class NotCorankOneError(GermcalcError):
    """A branch has corank 2 or more, outside the supported range."""


class NotStableTypeError(GermcalcError):
    """The requested label does not belong to a stable multigerm."""


class GermSyntaxError(GermcalcError):
    """A germ expression failed to parse."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position
