"""Frozen pre-refactor join/search drivers — the parity oracle.

This module is a faithful copy of the four hand-rolled drivers as they
stood *before* the ``repro.engine`` staged-execution refactor:

* ``legacy_gsim_join``      — ``repro.core.join.gsim_join``
* ``legacy_gsim_join_rs``   — ``repro.core.join.gsim_join_rs``
* ``legacy_gsim_join_serial_parallel`` — the ``workers=1`` in-process
  path of ``repro.core.parallel.gsim_join_parallel`` (phase-1 candidate
  collection, chunked verification in scan order, journal write-through,
  final assembly).  The process-pool path was proven bit-identical to
  this path by the PR 3 suite and is therefore represented by it.
* ``LegacyGSimIndex``       — ``repro.core.search.GSimIndex``

``legacy_verify_pair`` (Algorithm 6) is inlined as well, so the oracle
depends only on layers the refactor does not restructure: the filter
primitives re-exported by ``repro.core`` (size/prefix/ordering/index —
byte-identical code that merely moved), ``repro.grams``, ``repro.ged``
and ``repro.runtime``.  ``tests/test_engine_parity.py`` runs these
drivers against the engine-backed ones and asserts bit-identical pairs,
statistics, expansion counts, bounded verdicts and journal interop.

The drivers also keep the two alternate paths the library itself no
longer ships, as oracles for the engine's one path:

* ``object_keys=True`` sorts profiles in the object-key ordering of
  ``tests/object_key_ordering.py`` instead of interning them, so the
  inverted index is keyed by q-gram tuples, ``compare_qgrams`` takes its
  Counter path and minimum edit filtering runs the paper's double
  binary search (``tests/test_vocab.py``);
* ``verifier="astar"`` (or ``"object"``) verifies with the object-graph
  A* of ``repro.ged.astar`` (``tests/test_compiled_ged.py``).

Do not "improve" this file; it is deliberately frozen history.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core import (
    InvertedIndex,
    basic_prefix,
    minedit_prefix,
    passes_size_filter,
)
from repro.engine.prefix import PrefixInfo
from repro.engine.result import BoundedPair, JoinResult, JoinStatistics
from repro.exceptions import ParameterError
from repro.ged.astar import graph_edit_distance_detailed
from repro.ged.compiled import VerificationCache, compiled_ged_detailed
from repro.ged.heuristics import label_heuristic, make_local_label_heuristic
from repro.ged.vertex_order import input_vertex_order, mismatch_vertex_order
from repro.grams.labels import (
    global_label_lower_bound,
    local_label_lower_bound,
    multicover_min_edit_bound,
)
from repro.grams.minedit import min_prefix_length
from repro.grams.mismatch import compare_qgrams
from repro.grams.qgrams import QGramProfile, extract_qgrams
from repro.grams.vocab import build_vocabulary
from repro.graph.graph import Graph
from repro.runtime.budget import VerificationBudget
from repro.runtime.faults import FaultPlan
from repro.runtime.journal import JoinJournal, VerificationRecord

from .object_key_ordering import build_ordering

BUDGETED_VERIFIERS = frozenset({"astar", "object", "compiled"})

_PRUNE_COUNTERS: Dict[str, str] = {
    "global_label": "pruned_by_global_label",
    "count": "pruned_by_count",
    "local_label": "pruned_by_local_label",
    "multicover": "pruned_by_local_label",
}


@dataclasses.dataclass(frozen=True)
class LegacyVerifyOutcome:
    """Pre-refactor ``repro.core.verify.VerifyOutcome``."""

    is_result: bool
    pruned_by: Optional[str]
    ged: Optional[int] = None
    undecided: bool = False
    lower: Optional[int] = None
    upper: Optional[int] = None
    expansions: int = 0
    ged_seconds: float = 0.0


def legacy_verify_pair(
    p_r,
    p_s,
    tau,
    labels_r,
    labels_s,
    use_local_label,
    improved_order,
    improved_h,
    stats=None,
    use_multicover=False,
    verifier="astar",
    budget=None,
    cache=None,
):
    """Pre-refactor Algorithm 6 cascade, copied verbatim."""
    r, s = p_r.graph, p_s.graph

    eps1 = global_label_lower_bound(r, s, labels_r, labels_s)
    if eps1 > tau:
        if stats:
            stats.pruned_by_global_label += 1
        return LegacyVerifyOutcome(False, "global_label")

    mismatch = compare_qgrams(p_r, p_s, tau)
    if mismatch.count_pruned:
        if stats:
            stats.pruned_by_count += 1
        return LegacyVerifyOutcome(False, "count")

    if use_local_label:
        eps4 = local_label_lower_bound(
            mismatch.mismatch_r, r, s, tau,
            other_labels=labels_s, required_mask=mismatch.required_mask_r,
        )
        if eps4 > tau:
            if stats:
                stats.pruned_by_local_label += 1
            return LegacyVerifyOutcome(False, "local_label")
        eps5 = local_label_lower_bound(
            mismatch.mismatch_s, s, r, tau,
            other_labels=labels_r, required_mask=mismatch.required_mask_s,
        )
        if eps5 > tau:
            if stats:
                stats.pruned_by_local_label += 1
            return LegacyVerifyOutcome(False, "local_label")

    if use_multicover:
        if (
            multicover_min_edit_bound(mismatch.surplus_groups_r(p_r, p_s), tau) > tau
            or multicover_min_edit_bound(mismatch.surplus_groups_s(p_r, p_s), tau) > tau
        ):
            if stats:
                stats.pruned_by_local_label += 1
            return LegacyVerifyOutcome(False, "multicover")

    if stats:
        stats.cand2 += 1
    order = (
        mismatch_vertex_order(r, mismatch.mismatch_r)
        if improved_order
        else input_vertex_order(r)
    )
    started = time.perf_counter()
    if verifier == "dfs":
        if budget is not None:
            raise ParameterError(
                "budgeted verification requires an A*-family verifier "
                "('astar'/'object'/'compiled')"
            )
        from repro.ged.dfs import dfs_ged

        heuristic = (
            make_local_label_heuristic(p_r.q, tau) if improved_h else label_heuristic
        )
        search = dfs_ged(
            r, s, threshold=tau, heuristic=heuristic, vertex_order=order
        )
    elif verifier == "compiled":
        if cache is None:
            cache = VerificationCache()
        cr = cache.compile(r)
        cs = cache.compile(s)
        index_of = cr.index_of
        int_order = [index_of[v] for v in order]
        search = compiled_ged_detailed(
            cr, cs, threshold=tau, vertex_order=int_order, budget=budget,
            improved_h=improved_h, q=p_r.q, h_tau=tau,
            subgraph_cache=cache.subgraph_cache,
        )
    elif verifier in ("astar", "object"):
        heuristic = (
            make_local_label_heuristic(p_r.q, tau) if improved_h else label_heuristic
        )
        search = graph_edit_distance_detailed(
            r, s, threshold=tau, heuristic=heuristic, vertex_order=order,
            budget=budget,
        )
    else:
        raise ParameterError(f"unknown verifier {verifier!r}")
    elapsed = time.perf_counter() - started
    if stats:
        stats.ged_time += elapsed
        stats.ged_calls += 1
        stats.ged_expansions += search.expanded
    if getattr(search, "budget_exhausted", False):
        lower, upper = search.lower, search.upper
        if upper is not None and upper <= tau:
            return LegacyVerifyOutcome(
                True, None, None, lower=lower, upper=upper,
                expansions=search.expanded, ged_seconds=elapsed,
            )
        if lower is not None and lower > tau:
            return LegacyVerifyOutcome(
                False, "ged", None, lower=lower, upper=upper,
                expansions=search.expanded, ged_seconds=elapsed,
            )
        if stats:
            stats.undecided += 1
        return LegacyVerifyOutcome(
            False, None, None, undecided=True, lower=lower, upper=upper,
            expansions=search.expanded, ged_seconds=elapsed,
        )
    if search.distance <= tau:
        return LegacyVerifyOutcome(
            True, None, search.distance,
            expansions=search.expanded, ged_seconds=elapsed,
        )
    return LegacyVerifyOutcome(
        False, "ged", search.distance,
        expansions=search.expanded, ged_seconds=elapsed,
    )


def _validate(graphs, tau, options):
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    if options.q < 0:
        raise ParameterError(f"q must be >= 0, got {options.q}")
    ids = [g.graph_id for g in graphs]
    if any(gid is None for gid in ids):
        raise ParameterError(
            "all graphs need ids; use repro.graph.assign_ids(graphs) first"
        )
    if len(set(ids)) != len(ids):
        raise ParameterError("graph ids must be distinct")
    if len({g.is_directed for g in graphs}) > 1:
        raise ParameterError("cannot mix directed and undirected graphs in a join")


def _build_sorter(profiles, object_keys):
    if object_keys:
        return build_ordering(profiles)
    return build_vocabulary(profiles)


def _prefix_info(profile, tau, options):
    if not options.minedit_prefix:
        return basic_prefix(profile, tau)
    if profile.signature is not None:
        return minedit_prefix(profile, tau)
    # Object-key profiles: the paper's double binary search.
    length = min_prefix_length(profile.grams, tau, profile.d_path)
    if length is None:
        return PrefixInfo(length=profile.size, prunable=False)
    return PrefixInfo(length=length, prunable=True)


def _journal_meta(graphs, tau, options, budget):
    ids_blob = repr(
        [
            (
                g.graph_id,
                g.num_vertices,
                g.num_edges,
                sorted(g.vertex_label_multiset().items()),
            )
            for g in graphs
        ]
    ).encode("utf-8")
    # The pre-refactor GSimJoinOptions had no ``plan`` or ``batch`` field;
    # strip them so the header reproduces the historical journal
    # byte-for-byte.
    options_dict = dataclasses.asdict(options)
    options_dict.pop("plan", None)
    options_dict.pop("batch", None)
    return {
        "kind": "self-join",
        "n": len(graphs),
        "tau": tau,
        "ids_sha": hashlib.sha256(ids_blob).hexdigest()[:16],
        "options": options_dict,
        "budget": (
            None
            if budget is None
            else [budget.max_expansions, budget.max_seconds]
        ),
    }


def _record_of(i, j, outcome):
    return VerificationRecord(
        i=i,
        j=j,
        is_result=outcome.is_result,
        pruned_by=outcome.pruned_by,
        ged=outcome.ged,
        expansions=outcome.expansions,
        ged_seconds=outcome.ged_seconds,
        undecided=outcome.undecided,
        lower=outcome.lower,
        upper=outcome.upper,
    )


def _replay_record(stats, rec):
    counter = _PRUNE_COUNTERS.get(rec.pruned_by or "")
    if counter is not None:
        setattr(stats, counter, getattr(stats, counter) + 1)
    if rec.ran_ged:
        stats.cand2 += 1
        stats.ged_calls += 1
        stats.ged_expansions += rec.expansions
        stats.ged_time += rec.ged_seconds
    if rec.undecided:
        stats.undecided += 1
    stats.replayed_pairs += 1


def _prepare_profiles(graphs, tau, options, stats, object_keys):
    profiles = [extract_qgrams(g, options.q) for g in graphs]
    sorter = _build_sorter(profiles, object_keys)
    prefixes = []
    for profile in profiles:
        sorter.sort_profile(profile)
        info = _prefix_info(profile, tau, options)
        prefixes.append(info)
        stats.total_prefix_length += info.length
        if not info.prunable:
            stats.unprunable_graphs += 1
    labels = [
        (g.vertex_label_multiset(), g.edge_label_multiset()) for g in graphs
    ]
    return profiles, prefixes, labels, sorter


def legacy_gsim_join(
    graphs,
    tau,
    options=None,
    budget=None,
    checkpoint=None,
    fault=None,
    object_keys=False,
):
    """Pre-refactor ``gsim_join`` (Algorithm 1), copied verbatim."""
    from repro.core.join import GSimJoinOptions

    if options is None:
        options = GSimJoinOptions()
    _validate(graphs, tau, options)
    if budget is not None and options.verifier not in BUDGETED_VERIFIERS:
        raise ParameterError(
            "budgeted verification requires an A*-family verifier "
            "('astar'/'object'/'compiled')"
        )

    stats = JoinStatistics(num_graphs=len(graphs), tau=tau, q=options.q)
    result = JoinResult(stats=stats)

    started = time.perf_counter()
    profiles, prefixes, labels, _sorter = _prepare_profiles(
        graphs, tau, options, stats, object_keys
    )
    stats.index_time += time.perf_counter() - started

    index = InvertedIndex()
    unprunable = []
    cache = VerificationCache() if options.verifier == "compiled" else None
    journal = (
        JoinJournal.open(checkpoint, _journal_meta(graphs, tau, options, budget))
        if checkpoint is not None
        else None
    )
    injector = fault.start() if fault is not None else None

    try:
        for i, profile in enumerate(profiles):
            info = prefixes[i]
            r = profile.graph

            started = time.perf_counter()
            candidate_ids = {}
            if info.prunable:
                for key in profile.prefix_keys(info.length):
                    for j in index.probe(key):
                        if j not in candidate_ids and passes_size_filter(
                            r, profiles[j].graph, tau
                        ):
                            candidate_ids[j] = True
                for j in unprunable:
                    if j not in candidate_ids and passes_size_filter(
                        r, profiles[j].graph, tau
                    ):
                        candidate_ids[j] = True
            else:
                for j in range(i):
                    if passes_size_filter(r, profiles[j].graph, tau):
                        candidate_ids[j] = True
            stats.cand1 += len(candidate_ids)
            stats.candidate_time += time.perf_counter() - started

            started = time.perf_counter()
            for j in candidate_ids:
                rec = (
                    journal.completed.get((i, j))
                    if journal is not None
                    else None
                )
                if rec is None:
                    if injector is not None:
                        injector.step()
                    outcome = legacy_verify_pair(
                        profile,
                        profiles[j],
                        tau,
                        labels[i],
                        labels[j],
                        use_local_label=options.local_label,
                        improved_order=options.improved_order,
                        improved_h=options.improved_h,
                        stats=stats,
                        use_multicover=options.multicover,
                        verifier=options.verifier,
                        budget=budget,
                        cache=cache,
                    )
                    if journal is not None:
                        journal.append(_record_of(i, j, outcome))
                    is_result, undecided = outcome.is_result, outcome.undecided
                    lower, upper = outcome.lower, outcome.upper
                else:
                    _replay_record(stats, rec)
                    is_result, undecided = rec.is_result, rec.undecided
                    lower, upper = rec.lower, rec.upper
                if is_result:
                    result.pairs.append((profiles[j].graph.graph_id, r.graph_id))
                elif undecided:
                    result.undecided.append(
                        BoundedPair(
                            profiles[j].graph.graph_id, r.graph_id, lower, upper
                        )
                    )
            stats.verify_time += time.perf_counter() - started

            started = time.perf_counter()
            if info.prunable:
                for key in profile.prefix_keys(info.length):
                    index.add(key, i)
            else:
                unprunable.append(i)
            stats.index_time += time.perf_counter() - started
    finally:
        if journal is not None:
            journal.close()

    stats.results = len(result.pairs)
    stats.index_distinct_keys = index.num_distinct_keys
    stats.index_postings = index.num_postings
    stats.index_bytes = index.size_bytes
    if cache is not None:
        stats.compile_time = cache.compile_seconds
        stats.compiled_graphs = len(cache)
    return result


def legacy_gsim_join_rs(
    outer, inner, tau, options=None, budget=None, object_keys=False
):
    """Pre-refactor ``gsim_join_rs``, copied verbatim (no checkpoint)."""
    from repro.core.join import GSimJoinOptions

    if options is None:
        options = GSimJoinOptions()
    _validate(outer, tau, options)
    _validate(inner, tau, options)
    if budget is not None and options.verifier not in BUDGETED_VERIFIERS:
        raise ParameterError(
            "budgeted verification requires an A*-family verifier "
            "('astar'/'object'/'compiled')"
        )

    stats = JoinStatistics(
        num_graphs=len(outer) + len(inner), tau=tau, q=options.q
    )
    result = JoinResult(stats=stats)

    started = time.perf_counter()
    all_graphs = list(outer) + list(inner)
    profiles_all = [extract_qgrams(g, options.q) for g in all_graphs]
    sorter = _build_sorter(profiles_all, object_keys)
    prefixes_all = []
    for profile in profiles_all:
        sorter.sort_profile(profile)
        info = _prefix_info(profile, tau, options)
        prefixes_all.append(info)
        stats.total_prefix_length += info.length
        if not info.prunable:
            stats.unprunable_graphs += 1
    labels_all = [
        (g.vertex_label_multiset(), g.edge_label_multiset()) for g in all_graphs
    ]
    n_outer = len(outer)
    outer_profiles = profiles_all[:n_outer]
    inner_profiles = profiles_all[n_outer:]

    index = InvertedIndex()
    cache = VerificationCache() if options.verifier == "compiled" else None
    inner_unprunable = []
    for j, profile in enumerate(inner_profiles):
        info = prefixes_all[n_outer + j]
        if info.prunable:
            for key in profile.prefix_keys(info.length):
                index.add(key, j)
        else:
            inner_unprunable.append(j)
    stats.index_time += time.perf_counter() - started

    for i, profile in enumerate(outer_profiles):
        info = prefixes_all[i]
        r = profile.graph

        started = time.perf_counter()
        candidate_ids = {}
        if info.prunable:
            for key in profile.prefix_keys(info.length):
                for j in index.probe(key):
                    if j not in candidate_ids and passes_size_filter(
                        r, inner_profiles[j].graph, tau
                    ):
                        candidate_ids[j] = True
            for j in inner_unprunable:
                if j not in candidate_ids and passes_size_filter(
                    r, inner_profiles[j].graph, tau
                ):
                    candidate_ids[j] = True
        else:
            for j in range(len(inner_profiles)):
                if passes_size_filter(r, inner_profiles[j].graph, tau):
                    candidate_ids[j] = True
        stats.cand1 += len(candidate_ids)
        stats.candidate_time += time.perf_counter() - started

        started = time.perf_counter()
        for j in candidate_ids:
            outcome = legacy_verify_pair(
                profile,
                inner_profiles[j],
                tau,
                labels_all[i],
                labels_all[n_outer + j],
                use_local_label=options.local_label,
                improved_order=options.improved_order,
                improved_h=options.improved_h,
                stats=stats,
                use_multicover=options.multicover,
                verifier=options.verifier,
                budget=budget,
                cache=cache,
            )
            if outcome.is_result:
                result.pairs.append(
                    (r.graph_id, inner_profiles[j].graph.graph_id)
                )
            elif outcome.undecided:
                result.undecided.append(
                    BoundedPair(
                        r.graph_id,
                        inner_profiles[j].graph.graph_id,
                        outcome.lower,
                        outcome.upper,
                    )
                )
        stats.verify_time += time.perf_counter() - started

    stats.results = len(result.pairs)
    stats.index_distinct_keys = index.num_distinct_keys
    stats.index_postings = index.num_postings
    stats.index_bytes = index.size_bytes
    if cache is not None:
        stats.compile_time = cache.compile_seconds
        stats.compiled_graphs = len(cache)
    return result


def legacy_gsim_join_serial_parallel(
    graphs,
    tau,
    options=None,
    chunk_size=8,
    budget=None,
    checkpoint=None,
    object_keys=False,
):
    """Pre-refactor ``gsim_join_parallel`` with ``workers=1``.

    The phase-1 candidate collection, chunked in-scan-order
    verification, journal write-through and final assembly are the
    verbatim pre-refactor control flow; the process pool (proven
    bit-identical to this path by the PR 3 suite) is elided.
    """
    from repro.core.join import GSimJoinOptions

    if options is None:
        options = GSimJoinOptions()
    _validate(graphs, tau, options)

    stats = JoinStatistics(num_graphs=len(graphs), tau=tau, q=options.q)
    result = JoinResult(stats=stats)

    started = time.perf_counter()
    profiles, prefixes, labels, sorter = _prepare_profiles(
        graphs, tau, options, stats, object_keys
    )
    stats.index_time += time.perf_counter() - started

    started = time.perf_counter()
    index = InvertedIndex()
    unprunable = []
    pairs = []
    for i, profile in enumerate(profiles):
        info = prefixes[i]
        r = profile.graph
        candidate_ids = {}
        if info.prunable:
            for key in profile.prefix_keys(info.length):
                for j in index.probe(key):
                    if j not in candidate_ids and passes_size_filter(
                        r, profiles[j].graph, tau
                    ):
                        candidate_ids[j] = True
            for j in unprunable:
                if j not in candidate_ids and passes_size_filter(
                    r, profiles[j].graph, tau
                ):
                    candidate_ids[j] = True
        else:
            for j in range(i):
                if passes_size_filter(r, profiles[j].graph, tau):
                    candidate_ids[j] = True
        pairs.extend((i, j) for j in candidate_ids)
        if info.prunable:
            for key in profile.prefix_keys(info.length):
                index.add(key, i)
        else:
            unprunable.append(i)
    stats.cand1 = len(pairs)
    stats.candidate_time += time.perf_counter() - started
    stats.index_distinct_keys = index.num_distinct_keys
    stats.index_postings = index.num_postings
    stats.index_bytes = index.size_bytes

    journal = (
        JoinJournal.open(checkpoint, _journal_meta(graphs, tau, options, budget))
        if checkpoint is not None
        else None
    )
    records = {}
    cache = VerificationCache() if options.verifier == "compiled" else None
    try:
        todo = []
        for key in pairs:
            rec = journal.completed.get(key) if journal is not None else None
            if rec is not None:
                _replay_record(stats, rec)
                records[key] = rec
            else:
                todo.append(key)

        started = time.perf_counter()
        chunks = [
            todo[k: k + chunk_size] for k in range(0, len(todo), chunk_size)
        ]
        for chunk in chunks:
            for i, j in chunk:
                outcome = legacy_verify_pair(
                    profiles[i],
                    profiles[j],
                    tau,
                    labels[i],
                    labels[j],
                    use_local_label=options.local_label,
                    improved_order=options.improved_order,
                    improved_h=options.improved_h,
                    stats=None,
                    use_multicover=options.multicover,
                    verifier=options.verifier,
                    budget=budget,
                    cache=cache,
                )
                rec = _record_of(i, j, outcome)
                _replay_record(stats, rec)
                stats.replayed_pairs -= 1  # fresh work, not a replay
                records[(rec.i, rec.j)] = rec
                if journal is not None:
                    journal.append(rec)
        stats.verify_time += time.perf_counter() - started
    finally:
        if journal is not None:
            journal.close()

    for i, j in pairs:
        rec = records[(i, j)]
        if rec.is_result:
            result.pairs.append((graphs[j].graph_id, graphs[i].graph_id))
        elif rec.undecided:
            result.undecided.append(
                BoundedPair(
                    graphs[j].graph_id,
                    graphs[i].graph_id,
                    rec.lower,
                    rec.upper,
                    "error" if rec.pruned_by == "error" else "budget",
                )
            )
    stats.results = len(result.pairs)
    return result


class LegacyGSimIndex:
    """Pre-refactor ``repro.core.search.GSimIndex``, copied verbatim."""

    def __init__(self, graphs=(), tau_max=2, options=None, object_keys=False):
        from repro.core.join import GSimJoinOptions

        if tau_max < 0:
            raise ParameterError(f"tau_max must be >= 0, got {tau_max}")
        self.tau_max = tau_max
        self.options = options if options is not None else GSimJoinOptions()
        self.graphs = []
        self._profiles = []
        self._labels = []
        self._ids = set()
        self._index = InvertedIndex()
        self._unprunable = []
        self._cache = (
            VerificationCache() if self.options.verifier == "compiled" else None
        )

        initial = list(graphs)
        initial_profiles = [extract_qgrams(g, self.options.q) for g in initial]
        self._sorter = _build_sorter(initial_profiles, object_keys)
        for g, profile in zip(initial, initial_profiles):
            self._validate_new(g)
            self._insert(g, profile)

    def __len__(self):
        return len(self.graphs)

    def _validate_new(self, g):
        if g.graph_id is None:
            raise ParameterError("indexed graphs need an id")
        if g.graph_id in self._ids:
            raise ParameterError(f"duplicate graph id {g.graph_id!r}")

    def _insert(self, g, profile):
        self._sorter.sort_profile(profile)
        info = self._prefix(profile, self.tau_max)
        position = len(self.graphs)
        self.graphs.append(g)
        self._profiles.append(profile)
        self._labels.append((g.vertex_label_multiset(), g.edge_label_multiset()))
        self._ids.add(g.graph_id)
        if info.prunable:
            for key in profile.prefix_keys(info.length):
                self._index.add(key, position)
        else:
            self._unprunable.append(position)

    def add(self, g):
        self._validate_new(g)
        self._insert(g, extract_qgrams(g, self.options.q))

    def _prefix(self, profile, tau):
        return _prefix_info(profile, tau, self.options)

    def query(self, g, tau, stats=None):
        if tau < 0:
            raise ParameterError(f"tau must be >= 0, got {tau}")
        if tau > self.tau_max:
            raise ParameterError(
                f"tau={tau} exceeds the index's tau_max={self.tau_max}"
            )
        profile = extract_qgrams(g, self.options.q)
        self._sorter.sort_profile(profile)
        info = self._prefix(profile, tau)

        candidates = {}
        if info.prunable:
            for key in profile.prefix_keys(info.length):
                for j in self._index.probe(key):
                    if j not in candidates and passes_size_filter(
                        g, self.graphs[j], tau
                    ):
                        candidates[j] = True
            for j in self._unprunable:
                if j not in candidates and passes_size_filter(g, self.graphs[j], tau):
                    candidates[j] = True
        else:
            for j in range(len(self.graphs)):
                if passes_size_filter(g, self.graphs[j], tau):
                    candidates[j] = True
        if stats:
            stats.cand1 += len(candidates)

        g_labels = (g.vertex_label_multiset(), g.edge_label_multiset())
        matches = []
        for j in candidates:
            if self.graphs[j].graph_id == g.graph_id:
                continue
            outcome = legacy_verify_pair(
                profile,
                self._profiles[j],
                tau,
                g_labels,
                self._labels[j],
                use_local_label=self.options.local_label,
                improved_order=self.options.improved_order,
                improved_h=self.options.improved_h,
                stats=stats,
                use_multicover=self.options.multicover,
                verifier=self.options.verifier,
                cache=self._cache,
            )
            if outcome.is_result:
                matches.append((self.graphs[j].graph_id, outcome.ged))
        matches.sort(key=lambda pair: (pair[1], repr(pair[0])))
        return matches
