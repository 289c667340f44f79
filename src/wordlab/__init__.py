# wordlab: exact experiments with subword complexity, recurrence,
# strictly ergodic subshift levels, and subshift convolution algebras.

from .words_core import (
    Alphabet,
    WindowCensus,
    count_occurrences,
    distinct_factor_count,
    factor_set,
    frequency,
    min_period,
    sliding_containment_scan,
)

__all__ = [
    "Alphabet",
    "WindowCensus",
    "count_occurrences",
    "distinct_factor_count",
    "factor_set",
    "frequency",
    "min_period",
    "sliding_containment_scan",
]

__version__ = "0.1.0"
