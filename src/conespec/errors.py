"""Error hierarchy shared across the package.

Every failure mode the library reports deliberately is a subclass of
ConespecError, so callers (notably the CLI) can map exceptions to exit
codes without string matching.
"""

from __future__ import annotations


class ConespecError(Exception):
    pass


class ValidationError(ConespecError):
    """An operation table violates an axiom; `witness` names the elements."""

    def __init__(self, message: str, witness: tuple = ()):
        super().__init__(message)
        self.witness = witness


class NonAssociative(ValidationError):
    pass


class NonCommutative(ValidationError):
    pass


class NoDistributivity(ValidationError):
    pass


class BadUnit(ValidationError):
    pass


class KindMismatch(ConespecError):
    pass


class SizeBound(ConespecError):
    """A bound was exceeded: a product carrier, the partial families a join
    visits, the opens a space lists, glue's chart product (each
    `tables.SEARCH_MAX`), or the CLI's input bound (`--size-bound`)."""

    def __init__(self, message: str, bound: int):
        super().__init__(message)
        self.bound = bound


class InvariantViolation(ConespecError):
    """A theorem-backed internal invariant failed; always a bug, exit code 4."""


class CocycleViolation(ConespecError):
    pass
