"""Hitting-set / set-cover solvers.

The paper's *minimum graph edit operation* problem (Section IV-A) reduces
to a minimum hitting set: the elements to hit are the mismatching q-grams,
and each graph vertex "hits" the q-grams containing it (Theorem 2 shows
vertex relabelings dominate all other operations).  This package provides
the two solvers the paper needs:

* an exact solver, feasible because the answer only matters up to the
  threshold ``τ`` — branch-and-bound over the (≤ q+1) vertices of an
  uncovered q-gram is FPT in the solution size;
* the classic greedy, whose Slavík approximation ratio
  ``ln n − ln ln n + 0.78`` turns the greedy value into a certified
  *lower bound* on the optimum (the paper's Algorithm 2).
"""

from repro.setcover.hitting import (
    exact_min_hitting_set,
    greedy_hitting_set,
    greedy_lower_bound,
    slavik_ratio,
)

__all__ = [
    "greedy_hitting_set",
    "exact_min_hitting_set",
    "greedy_lower_bound",
    "slavik_ratio",
]
