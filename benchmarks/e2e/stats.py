"""The estimators every reported number goes through."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def quartiles(samples: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def steady(samples: Sequence[float]) -> float:
    """The minimum: this repo's estimator for a repeated timing.

    On the 2-vCPU hosts this runs on, interference only ever *adds* time,
    in bursts of milliseconds whose intensity drifts over minutes: over
    two minutes a fixed 2 ms kernel's minimum in every 2 s window held
    within 2 % while the window means drifted between 1.10× and 1.24× of
    it, and in a noisy spell whole invocations read 2× slow.  Across four
    batches of ten runs of each workload the run-to-run spread of the
    repetitions' minimum, lower quartile and median averaged 11 %, 13 %
    and 16 % of the value (README, "Noise").  The fastest repetition is
    the one the host disturbed least; the median and IQR of the same
    samples are printed beside it so the spread stays visible.
    """
    return min(samples)


def summary(samples: Sequence[float]) -> Dict[str, float]:
    q1, q2, q3 = quartiles(samples)
    return {"median": q2, "iqr": q3 - q1, "n": len(samples)}
