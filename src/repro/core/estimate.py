"""Join-size (selectivity) estimation by pair sampling.

Query optimizers want the expected result size of a similarity join
*before* paying for it.  :func:`estimate_join_size` samples pairs
uniformly from the ``n·(n−1)/2`` pair space, decides each sampled
pair's membership as cheaply as possible — size filter, global label
filter, the approximate GED bracket (:func:`repro.ged.approximate.
ged_bounds`), and only then the threshold A* — and scales the positive
rate back up, with a Wilson score interval for the uncertainty.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from repro.engine.count_filter import passes_size_filter
from repro.grams.labels import global_label_lower_bound
from repro.exceptions import ParameterError
from repro.ged.approximate import ged_bounds
from repro.ged.astar import graph_edit_distance
from repro.graph.graph import Graph

__all__ = ["JoinSizeEstimate", "estimate_join_size"]


@dataclass(frozen=True)
class JoinSizeEstimate:
    """Outcome of a sampling-based join-size estimation.

    ``estimate`` scales the sample's positive rate to the full pair
    space; ``low``/``high`` are the Wilson 95% interval bounds scaled
    the same way; ``exact_ged_calls`` counts how often the expensive
    verifier actually ran (the filters/bounds decide the rest).
    """

    total_pairs: int
    sampled: int
    positives: int
    estimate: float
    low: float
    high: float
    exact_ged_calls: int

    def __str__(self) -> str:
        return (
            f"~{self.estimate:.1f} pairs "
            f"(95% CI [{self.low:.1f}, {self.high:.1f}]) "
            f"from {self.positives}/{self.sampled} sampled positives"
        )


def _wilson(positives: int, n: int, z: float = 1.96):
    if n == 0:
        return 0.0, 1.0
    p = positives / n
    denom = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    margin = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, centre - margin), min(1.0, centre + margin)


def _pair_within(r: Graph, s: Graph, tau: int) -> (bool, bool):
    """(is_result, used_exact_ged) with cheap deciders first."""
    if not passes_size_filter(r, s, tau):
        return False, False
    if global_label_lower_bound(r, s) > tau:
        return False, False
    lower, upper = ged_bounds(r, s, beam_width=8)
    if lower > tau:
        return False, False
    if upper <= tau:
        return True, False
    return graph_edit_distance(r, s, threshold=tau) <= tau, True


def estimate_join_size(
    graphs: Sequence[Graph],
    tau: int,
    sample_pairs: int = 200,
    seed: int = 0,
) -> JoinSizeEstimate:
    """Estimate ``|{⟨r, s⟩ : ged ≤ τ}|`` from a uniform pair sample.

    Sampling is without replacement when the pair space is small enough
    (≤ 4× the requested sample), in which case small spaces are simply
    evaluated exhaustively and the interval collapses onto the exact
    count.

    Raises
    ------
    ParameterError
        On a negative ``tau`` or non-positive ``sample_pairs``.
    """
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    if sample_pairs < 1:
        raise ParameterError(f"sample_pairs must be >= 1, got {sample_pairs}")

    n = len(graphs)
    total = n * (n - 1) // 2
    if total == 0:
        return JoinSizeEstimate(0, 0, 0, 0.0, 0.0, 0.0, 0)

    rng = random.Random(seed)
    exhaustive = total <= 4 * sample_pairs
    if exhaustive:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        chosen = set()
        while len(chosen) < sample_pairs:
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i != j:
                chosen.add((min(i, j), max(i, j)))
        pairs = sorted(chosen)

    positives = 0
    exact_calls = 0
    for i, j in pairs:
        hit, used_exact = _pair_within(graphs[i], graphs[j], tau)
        positives += hit
        exact_calls += used_exact

    if exhaustive:
        exact = float(positives)
        return JoinSizeEstimate(total, len(pairs), positives, exact, exact, exact, exact_calls)

    low_p, high_p = _wilson(positives, len(pairs))
    rate = positives / len(pairs)
    return JoinSizeEstimate(
        total_pairs=total,
        sampled=len(pairs),
        positives=positives,
        estimate=rate * total,
        low=low_p * total,
        high=high_p * total,
        exact_ged_calls=exact_calls,
    )
