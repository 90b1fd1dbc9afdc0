"""Exceptions shared across the package; `germ.remembered` remembers a
NotStabilizedError or a ProvedInfiniteError like a value."""

from __future__ import annotations


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


class NotCorankOneError(GermcalcError):
    """A branch has corank 2 or more, outside the supported range."""


class NotStableTypeError(GermcalcError):
    """The requested label does not belong to a stable multigerm."""


class GermSyntaxError(GermcalcError):
    """A germ expression failed to parse."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position
