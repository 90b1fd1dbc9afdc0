"""Exceptions shared across the package, and how a failure is cached."""

from __future__ import annotations

import inspect
from functools import lru_cache, wraps


class GermcalcError(Exception):
    """Base class for all germcalc errors."""


class NotStabilizedError(GermcalcError):
    """A truncated-jet dimension did not stabilize before hitting d_max.

    No certificate either way was found by the cap: the dimension may be
    finite and certified only above d_max, or infinite where no proof of
    it applies (`ProvedInfiniteError` is raised where one does).
    """

    def __init__(self, message: str, d_max: int | None = None,
                 history: tuple[int, ...] = ()):
        super().__init__(message)
        self.d_max = d_max
        self.history = tuple(history)


class ProvedInfiniteError(GermcalcError):
    """A dimension proved infinite by a certificate.

    Unlike NotStabilizedError this is an answer, not a failure to find
    one.  `reason` says what the certificate shows, such as "not finite:
    ..." or "not A-finite: ...", and `certificate` holds its data as a
    mapping of plain values (tuples, ints and Fractions).
    """

    def __init__(self, message: str, reason: str = "",
                 certificate: dict | None = None):
        super().__init__(message)
        self.reason = reason
        self.certificate = dict(certificate or {})


def remember_failures(maxsize: int):
    """`lru_cache(maxsize)` keyed by value: a call is written out
    positionally, defaults filled in, before the lookup, so every spelling
    of the same arguments shares one entry.  A NotStabilizedError or a
    ProvedInfiniteError is remembered like a value: a repeated call raises
    a fresh one of the same class with the same message and attributes,
    without computing again.  `cache_info` counts one hit or miss per
    call."""
    def decorate(fn):
        signature = inspect.signature(fn)
        size = len(signature.parameters)

        @lru_cache(maxsize=maxsize)
        def outcome(*args):
            try:
                return fn(*args), None
            except (NotStabilizedError, ProvedInfiniteError) as error:
                # the class, message and attributes, not the traceback
                return None, (type(error), str(error), dict(vars(error)))

        @wraps(fn)
        def cached(*args, **kwargs):
            if kwargs or len(args) != size:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                args = bound.args
            value, failure = outcome(*args)
            if failure:
                kind, message, attributes = failure
                error = kind(message)
                vars(error).update(attributes)
                raise error
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
