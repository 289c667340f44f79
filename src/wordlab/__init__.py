# wordlab: exact experiments with subword complexity, recurrence,
# strictly ergodic subshift levels, and subshift convolution algebras.

from .words_core import (
    WindowCensus,
    count_occurrences,
    min_period,
)

__all__ = [
    "WindowCensus",
    "count_occurrences",
    "min_period",
]

__version__ = "0.1.0"
