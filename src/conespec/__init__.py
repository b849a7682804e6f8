"""Spectra of finite rings and monoids under cone-injectivity contexts."""

from .contexts import get_context  # noqa: F401
from .tables import FiniteAlgebra, Hom, validate  # noqa: F401

__version__ = "0.1.0"
