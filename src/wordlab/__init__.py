# wordlab: exact experiments with subword complexity, recurrence,
# strictly ergodic subshift levels, and subshift convolution algebras.

from .words_core import (
    WindowCensus,
    count_occurrences,
    min_period,
    sliding_containment_scan,
)

__all__ = [
    "WindowCensus",
    "count_occurrences",
    "min_period",
    "sliding_containment_scan",
]

__version__ = "0.1.0"
