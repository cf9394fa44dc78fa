"""Exact 4-bar partition combinatorics and mixed Schur S/Q expansions."""

from .partitions import StrictPartition, bar_core
from .barquot import quotient
from .mixed import verify

__version__ = "0.1.0"

__all__ = ["StrictPartition", "bar_core", "quotient", "verify"]
