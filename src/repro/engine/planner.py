"""Static cost-based planning of the per-pair filter cascade.

Every ordering of the Verify cascade is sound (each filter is an
independent GED lower bound), so the *order* is a pure performance
decision: the optimal cascade runs filters in ascending
``cost / (1 - pass_rate)`` — the classical predicate-ordering rule,
where ``pass_rate`` is the probability a pair survives the filter and
``cost`` its per-pair evaluation cost.  The expected per-pair cost of
an order ``f1, f2, ..., fk`` is ``c1 + p1·c2 + p1·p2·c3 + ...``.

Under ``plan="auto"`` the cascade order is picked once before the
first pair, from two pieces:

* **Collection statistics** (:func:`collect_statistics`) — cheap,
  deterministic aggregates over the q-gram profiles and label multisets
  the engine already extracts: size means, mean signature length,
  label-frequency skew and q-gram document-frequency skew.  Pure
  Python, so the auto planner works with or without numpy.
* **A static cost/selectivity model** — :func:`unit_costs` scales
  per-filter unit costs from the collection statistics (coefficients
  fitted offline against observed per-pair stage seconds on the
  AIDS-like reference workload; ``benchmarks/bench_planner.py`` reports
  the observed per-stage costs so the coefficients can be re-derived),
  and :func:`estimate_pass_rates` measures per-filter selectivity on a
  deterministic systematic sample of size-compatible graph pairs.
  :func:`choose_order` and :func:`expected_cost` turn both into the
  cascade order; :func:`static_choice` bundles the whole decision.

Determinism contract: the choice is a pure function of the collection,
``tau`` and fixed unit-cost constants — wall-clock time never feeds it.
Every driver (the executor's ``prepare``, the search index's build)
therefore picks the same order for the same collection, and a resumed
join re-derives the order its journal was written under.

Parameter advice (``q``, prefix mode) is *advisory only*
(:func:`advise_parameters`): changing ``q`` or the prefix stage changes
the candidate set, so it must be chosen before a join starts; the CLI's
``--explain-plan=json`` surfaces the advice instead of silently
applying it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from repro.engine.count_filter import passes_size_filter
from repro.engine.stages import PairContext, PairFilter
from repro.grams.qgrams import QGramProfile

__all__ = [
    "SAMPLE_GRAPHS",
    "SAMPLE_PAIR_CAP",
    "CollectionStats",
    "collect_statistics",
    "unit_costs",
    "estimate_pass_rates",
    "expected_cost",
    "choose_order",
    "static_choice",
    "advise_parameters",
]

#: Graphs in the systematic estimation sample (evenly spaced over the
#: collection, so both ends of a sorted or phased collection are seen).
SAMPLE_GRAPHS = 24

#: Cap on sampled pairs actually evaluated by the filters.
SAMPLE_PAIR_CAP = 300

#: Pass rate assumed for a filter the sample produced no evidence for.
_DEFAULT_RATE = 0.5

LabelPair = Tuple


@dataclass(frozen=True)
class CollectionStats:
    """Deterministic aggregates of one collection, for the cost model.

    ``mean_signature`` is the mean q-gram multiset size ``|Q_r|`` (the
    count/local-label/multicover filters merge or group signatures, so
    their per-pair cost scales with it); ``mean_labels`` the mean
    number of distinct vertex+edge labels per graph (the global label
    filter's working set); ``label_skew`` the share of the collection's
    total label mass held by its most frequent label; ``df_skew`` the
    document frequency of the most frequent q-gram key as a fraction of
    the collection.
    """

    num_graphs: int
    mean_vertices: float
    mean_edges: float
    mean_signature: float
    mean_labels: float
    label_skew: float
    df_skew: float


def collect_statistics(
    profiles: Sequence[QGramProfile], labels: Sequence[LabelPair]
) -> CollectionStats:
    """Compute :class:`CollectionStats` from prepared profiles/labels.

    Pure Python over state the engine already holds (no numpy, no extra
    passes over the graphs): one pass over the profiles for sizes and
    q-gram document frequencies, one over the label multisets.
    """
    n = len(profiles)
    if n == 0:
        return CollectionStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    total_vertices = 0
    total_edges = 0
    total_signature = 0
    df: Counter = Counter()
    for profile in profiles:
        total_vertices += profile.graph.num_vertices
        total_edges += profile.graph.num_edges
        total_signature += profile.size
        df.update(profile.key_counts.keys())
    total_labels = 0
    label_mass: Counter = Counter()
    for vlab, elab in labels:
        total_labels += len(vlab) + len(elab)
        label_mass.update(vlab)
        label_mass.update(elab)
    mass = sum(label_mass.values())
    return CollectionStats(
        num_graphs=n,
        mean_vertices=total_vertices / n,
        mean_edges=total_edges / n,
        mean_signature=total_signature / n,
        mean_labels=total_labels / n,
        label_skew=(max(label_mass.values()) / mass) if mass else 0.0,
        df_skew=(max(df.values()) / n) if df else 0.0,
    )


def unit_costs(stats: CollectionStats) -> Dict[str, float]:
    """Per-filter unit costs (relative units) for this collection.

    The global label filter touches the distinct-label multisets; the
    count filter merges the sorted signatures; local label filtering
    additionally walks the mismatching instances and their vertices;
    the multicover bound solves a small set-multicover on top.  The
    base/slope coefficients were fitted offline to observed per-pair
    stage seconds (``StageStatistics.seconds / input``) on the
    AIDS-like reference workload; only their *ratios* matter to the
    ordering decision, and ``benchmarks/bench_planner.py`` records the
    observed per-stage costs each run so the fit can be re-checked.
    """
    sig = stats.mean_signature
    lab = stats.mean_labels
    return {
        "global-label-filter": 0.6 + 0.05 * lab,
        "count-filter": 0.8 + 0.05 * sig,
        "local-label-filter": 1.6 + 0.35 * sig,
        "multicover-filter": 2.4 + 0.60 * sig,
    }


def estimate_pass_rates(
    profiles: Sequence[QGramProfile],
    labels: Sequence[LabelPair],
    tau: int,
    filters: Sequence[PairFilter],
    sample_graphs: int = SAMPLE_GRAPHS,
    pair_cap: int = SAMPLE_PAIR_CAP,
) -> Dict[str, float]:
    """Estimate each filter's pass rate on a deterministic sample.

    Takes a systematic sample of ``sample_graphs`` evenly spaced
    profiles, forms their size-compatible pairs (the cascade only ever
    sees pairs that passed the size filter) up to ``pair_cap``, and
    evaluates every filter *independently* on each pair — the same
    shared :class:`~repro.engine.stages.PairContext` caching the
    cascade itself uses, so the estimate reflects the filters' real
    conditional behaviour (e.g. the local label filter passes pairs
    whose mismatch merge bailed out for the count filter, whatever the
    order).  Filters with no sampled evidence default to
    :data:`_DEFAULT_RATE`.
    """
    entered = {stage.name: 0 for stage in filters}
    passed = {stage.name: 0 for stage in filters}
    n = len(profiles)
    if n >= 2:
        stride = max(1, n // sample_graphs)
        sample = list(range(0, n, stride))[:sample_graphs]
        pairs_seen = 0
        for ai in range(len(sample)):
            if pairs_seen >= pair_cap:
                break
            for bi in range(ai + 1, len(sample)):
                if pairs_seen >= pair_cap:
                    break
                a, b = sample[ai], sample[bi]
                p_a, p_b = profiles[a], profiles[b]
                if not passes_size_filter(p_a.graph, p_b.graph, tau):
                    continue
                pairs_seen += 1
                ctx = PairContext(p_a, p_b, tau, labels[a], labels[b])
                for stage in filters:
                    entered[stage.name] += 1
                    if stage.prune(ctx) is None:
                        passed[stage.name] += 1
    rates = {}
    for stage in filters:
        seen = entered[stage.name]
        rates[stage.name] = (
            passed[stage.name] / seen if seen else _DEFAULT_RATE
        )
    return rates


def expected_cost(
    order: Sequence[str],
    rates: Mapping[str, float],
    costs: Mapping[str, float],
) -> float:
    """Expected per-pair cascade cost of ``order``: ``Σ_i c_i·Π_{k<i} p_k``."""
    total = 0.0
    surviving = 1.0
    for name in order:
        total += surviving * costs[name]
        surviving *= min(max(rates[name], 0.0), 1.0)
    return total


def choose_order(
    names: Sequence[str],
    rates: Mapping[str, float],
    costs: Mapping[str, float],
) -> Tuple[str, ...]:
    """The cost-optimal cascade order: ascending ``cost / (1 - pass)``.

    Filters that (apparently) never prune sort after every pruning
    filter, cheapest first; exact ties break on the stage name so the
    choice is deterministic across runs and platforms.
    """
    def rank(name: str) -> Tuple[int, float, str]:
        pass_rate = min(max(rates[name], 0.0), 1.0)
        remainder = 1.0 - pass_rate
        if remainder <= 1e-12:
            return (1, costs[name], name)
        return (0, costs[name] / remainder, name)

    return tuple(sorted(names, key=rank))


def static_choice(
    profiles: Sequence[QGramProfile],
    labels: Sequence[LabelPair],
    tau: int,
    filters: Sequence[PairFilter],
) -> Tuple[Tuple[str, ...], Dict[str, float], Dict[str, float]]:
    """The static planning bundle: ``(order, pass_rates, unit_costs)``.

    Convenience wrapper over :func:`collect_statistics`,
    :func:`estimate_pass_rates`, :func:`unit_costs` and
    :func:`choose_order` for callers that plan once from collection
    state (the executor's ``prepare``, the search index's build).
    """
    stats = collect_statistics(profiles, labels)
    rates = estimate_pass_rates(profiles, labels, tau, filters)
    costs = unit_costs(stats)
    names = tuple(stage.name for stage in filters)
    return choose_order(names, rates, costs), rates, costs


def advise_parameters(
    stats: CollectionStats, q: int, tau: int
) -> Dict[str, object]:
    """Advisory ``q``/prefix-mode recommendation for this collection.

    Follows the paper's evaluation: ``q=4`` on AIDS-sized molecule
    graphs, ``q=3`` on the smaller sparse PROTEIN graphs — small or
    sparse graphs have few long simple paths, so a large ``q`` starves
    the signatures.  Minimum-edit-filtered prefixes pay off whenever
    ``tau > 0``.  *Advisory only*: changing ``q`` or the prefix stage
    changes the candidate set itself, so the runtime optimizer never
    applies it — it must be chosen before the join (the advice is
    surfaced by ``--explain-plan=json``).
    """
    sparse = stats.mean_vertices < 12.0 or (
        stats.mean_vertices > 0.0
        and stats.mean_edges / stats.mean_vertices < 1.0
    )
    return {
        "current_q": q,
        "recommended_q": 3 if sparse else 4,
        "recommended_prefix": (
            "minedit-prefix" if tau > 0 else "basic-prefix"
        ),
        "note": (
            "advisory: q and the prefix mode shape the candidate set "
            "and must be fixed before the join starts"
        ),
    }
