"""Graph similarity *selection* — the query-at-a-time counterpart.

The paper positions the join as "a batch version of the graph
similarity selection problem" (Section I).  :class:`GSimIndex` provides
that selection interface with the same machinery: build an inverted
index over the collection's q-gram prefixes once, then answer
``query(g, tau)`` requests — each runs prefix probing, the Verify
cascade (Algorithm 6) and the optimized A* on the survivors.

The index is built for a maximum threshold ``tau_max``; any query with
``tau <= tau_max`` is answered exactly.  Data graphs are indexed with
their ``tau_max`` prefixes, a superset of every smaller-τ prefix, which
keeps prefix filtering sound for all admissible thresholds (at the cost
of a few extra candidates for small τ).  Graphs are also insertable
incrementally — the global q-gram ordering is frozen at construction,
and unseen q-gram keys conservatively sort last.

Queries run on the staged execution engine: the index builds its
:class:`~repro.engine.plan.JoinPlan` once and drives a per-query
:class:`~repro.engine.executor.Executor` over it, so a caller-supplied
:class:`~repro.engine.result.JoinStatistics` accumulates per-stage
survivor counts and timings across queries exactly like a join run's.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

from repro.engine.executor import Executor
from repro.engine.inverted_index import InvertedIndex
from repro.engine.options import (
    GSimJoinOptions,
    build_sorter,
    reject_mixed_directedness,
)
from repro.engine.plan import JoinPlan, build_plan
from repro.engine.prefix import PrefixInfo
from repro.engine.result import JoinStatistics
from repro.engine.stages import VerifyOutcome
from repro.exceptions import ParameterError
from repro.ged.compiled import VerificationCache
from repro.graph.graph import Graph
from repro.grams.columnar import ColumnarStore, build_columnar_store
from repro.grams.qgrams import QGramProfile, extract_qgrams
from repro.grams.vocab import QGramVocabulary

__all__ = ["GSimIndex"]


class GSimIndex:
    """A graph similarity search index with edit distance thresholds.

    Parameters
    ----------
    graphs:
        Initial collection (each graph needs a distinct id).
    tau_max:
        Largest threshold the index will serve.
    options:
        Filtering configuration (defaults to ``GSimJoinOptions.full()``).

    Examples
    --------
    >>> from repro.datasets import aids_like
    >>> index = GSimIndex(aids_like(50, seed=1), tau_max=3)
    >>> matches = index.query(index.graphs[0], tau=2)
    """

    def __init__(
        self,
        graphs: Sequence[Graph] = (),
        tau_max: int = 2,
        options: Optional[GSimJoinOptions] = None,
    ) -> None:
        if tau_max < 0:
            raise ParameterError(f"tau_max must be >= 0, got {tau_max}")
        self.tau_max = tau_max
        self.options = options if options is not None else GSimJoinOptions()
        # Built once; every query's executor runs this plan.
        self._plan: JoinPlan = build_plan(self.options)
        self.graphs: List[Graph] = []
        self._profiles: List[QGramProfile] = []
        self._labels: List[Tuple] = []
        self._ids: set = set()
        self._index = InvertedIndex()
        self._unprunable: List[int] = []
        self._prefix_lengths: List[int] = []
        # Columnar store for the batch kernels, built lazily on the
        # first batched query and invalidated by every insert.
        self._store: Optional[ColumnarStore] = None
        # Verification cache, living as long as the index: data graphs
        # are compiled on first query touching them and reused by every
        # later query (indexed graphs are never mutated), and the
        # pair-level verdict memo lets overlapping queries and top-k
        # probes reuse exact and bounded verdicts across calls.
        self._cache: Optional[VerificationCache] = VerificationCache()

        initial = list(graphs)
        initial_profiles = [extract_qgrams(g, self.options.q) for g in initial]
        # Freeze the ordering on the initial collection (or empty): an
        # interning vocabulary, ids in global-ordering rank; later
        # inserts intern unseen keys as overflow ids that sort last.
        self._sorter: QGramVocabulary = build_sorter(initial_profiles)
        for g, profile in zip(initial, initial_profiles):
            self._validate_new(g)
            self._insert(g, profile)

    def __len__(self) -> int:
        return len(self.graphs)

    def _validate_new(self, g: Graph) -> None:
        if g.graph_id is None:
            raise ParameterError("indexed graphs need an id")
        if g.graph_id in self._ids:
            raise ParameterError(f"duplicate graph id {g.graph_id!r}")
        reject_mixed_directedness(self.graphs[:1] + [g])

    def _insert(self, g: Graph, profile: QGramProfile) -> None:
        self._sorter.sort_profile(profile)
        info = self._prefix(profile, self.tau_max)
        position = len(self.graphs)
        self.graphs.append(g)
        self._profiles.append(profile)
        self._labels.append((g.vertex_label_multiset(), g.edge_label_multiset()))
        self._ids.add(g.graph_id)
        self._prefix_lengths.append(info.length)
        self._store = None
        if info.prunable:
            for key in profile.prefix_keys(info.length):
                self._index.add(key, position)
        else:
            self._unprunable.append(position)

    def add(self, g: Graph) -> None:
        """Insert a graph into the index.

        Q-gram keys unseen at construction get overflow ids past the
        vocabulary's frozen range — they sort after every frozen key
        (among themselves by ``repr``), preserving the "unknown sorts
        last" contract of the frozen global ordering.

        Raises
        ------
        ParameterError
            If the graph has no id, a duplicate id, or a directedness
            other than the indexed graphs'.
        """
        self._validate_new(g)
        self._insert(g, extract_qgrams(g, self.options.q))

    def _prefix(self, profile: QGramProfile, tau: int) -> PrefixInfo:
        return self._plan.prefix.prefix_info(profile, tau)

    def query(
        self,
        g: Graph,
        tau: int,
        stats: Optional[JoinStatistics] = None,
    ) -> List[Tuple[Hashable, int]]:
        """All indexed graphs within edit distance ``tau`` of ``g``.

        Returns ``(graph_id, distance)`` pairs (the query graph itself is
        excluded when indexed, by id).  ``stats`` optionally accrues
        candidate counts, GED timings and per-stage survivor rows
        across queries.

        Raises
        ------
        ParameterError
            If ``tau`` exceeds the index's ``tau_max`` or is negative, or
            ``g``'s directedness differs from the indexed graphs'.
        """
        if tau < 0:
            raise ParameterError(f"tau must be >= 0, got {tau}")
        if tau > self.tau_max:
            raise ParameterError(
                f"tau={tau} exceeds the index's tau_max={self.tau_max}"
            )
        reject_mixed_directedness(self.graphs[:1] + [g])
        executor = Executor(
            tau,
            self.options,
            stats if stats is not None else JoinStatistics(),
            cache=self._cache,
            plan=self._plan,
        )
        executor.profiles, executor.labels = self._profiles, self._labels
        if executor.batch and self.graphs:
            if self._store is None:
                self._store = build_columnar_store(
                    self._profiles,
                    self._labels,
                    prefix_lengths=self._prefix_lengths,
                )
            executor.attach_store(self._store)
        profile = extract_qgrams(g, self.options.q)
        self._sorter.sort_profile(profile)
        info = self._prefix(profile, tau)

        candidates = executor.collect_candidates(
            profile, info, self._index, self._unprunable, self._profiles,
            len(self.graphs),
        )
        js = [
            j for j in candidates if self.graphs[j].graph_id != g.graph_id
        ]
        matches: List[Tuple[Hashable, int]] = []

        def emit(r: int, s: int, outcome: VerifyOutcome) -> None:
            if outcome.is_result:
                matches.append((self.graphs[s].graph_id, outcome.ged))

        # The query graph is external to the store: its probe-side row
        # is assembled ad hoc (unseen labels can never intersect).
        executor.verify_block(
            -1, js, emit,
            probe=(profile, (g.vertex_label_multiset(), g.edge_label_multiset())),
        )
        matches.sort(key=lambda pair: (pair[1], repr(pair[0])))
        return matches

    def query_top_k(
        self,
        g: Graph,
        k: int,
        stats: Optional[JoinStatistics] = None,
    ) -> List[Tuple[Hashable, int]]:
        """The ``k`` nearest indexed graphs by edit distance.

        Thresholds are grown incrementally (``τ = 0, 1, ..., tau_max``)
        until ``k`` matches exist — the standard range-to-top-k
        reduction: every graph at distance ``<= τ`` is found by the
        ``τ`` query, so once ``>= k`` matches are in hand the ``k``
        smallest are globally correct.  If fewer than ``k`` graphs lie
        within ``tau_max``, all found matches are returned (possibly
        fewer than ``k``).

        Raises
        ------
        ParameterError
            If ``k < 1``.
        """
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        matches: List[Tuple[Hashable, int]] = []
        for tau in range(self.tau_max + 1):
            matches = self.query(g, tau, stats=stats)
            if len(matches) >= k:
                break
        return matches[:k]
