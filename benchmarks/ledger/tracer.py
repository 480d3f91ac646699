"""Outside-in layer tracing for the ledger.

Each layer of the join chain is timed by wrapping its public function at
the attribute where the program looks it up (``repro.engine.executor.
extract_qgrams``, ``repro.engine.stages.Verify.run``, ...).  No file of
the program changes: :func:`traced` installs the wrappers for one traced
unit of work and restores the originals afterwards, so untraced units run
the unmodified code.

A *span* layer records ``(id, name, start, end, parent id, op id)`` per
call on a stack; its self time is its duration minus the time of the
wrapped calls made inside it.  A *leaf* layer (the inverted index's
``add``/``probe``, graph compilation, streamed parsing) is called so
often that it is only aggregated: its time is charged to the layer and
subtracted from the enclosing span, but no span record is kept.  The
root span ``engine.driver`` covers the whole unit, so its self time is
whatever no wrapped layer claimed, and all self times sum to the root's
duration.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

ROOT = "engine.driver"

Observer = Optional[Callable[[Counter, object], None]]


def _grams(counts: Counter, profile) -> None:
    counts["grams.qgrams.extract.grams"] += profile.size


def _vocab(counts: Counter, sorter) -> None:
    counts["grams.vocab.build.distinct_keys"] = max(
        counts["grams.vocab.build.distinct_keys"], len(sorter)
    )


def _prefix(counts: Counter, info) -> None:
    counts["engine.prefix.length"] += info.length
    if not info.prunable:
        counts["engine.prefix.unprunable"] += 1


def _postings(counts: Counter, postings) -> None:
    counts["engine.inverted_index.probe.postings"] += len(postings)


def _cand1(counts: Counter, candidates) -> None:
    counts["engine.candidates.cand1"] += len(candidates)


def _batch(counts: Counter, verdicts) -> None:
    if verdicts is not None:
        counts["engine.batch.pairs"] += len(verdicts.tags)
        counts["engine.batch.pruned"] += sum(t is not None for t in verdicts.tags)


def _pruned(layer: str) -> Callable[[Counter, object], None]:
    def observe(counts: Counter, tag) -> None:
        if tag is not None:
            counts[layer + ".pruned"] += 1

    return observe


def _verify(counts: Counter, outcome) -> None:
    counts["ged.verify.results"] += outcome.is_result
    counts["ged.verify.expansions"] += outcome.expansions
    counts["ged.verify.memo_hits"] += outcome.backend == "memo"


#: (module, attribute path, layer, observer) of every span layer.
SPANS: List[Tuple[str, str, str, Observer]] = [
    ("repro.graph.io", "load_graphs", "graph.io.load", None),
    ("repro.engine.sharded", "dumps_graphs", "graph.io.scatter", None),
    ("repro.engine.executor", "extract_qgrams", "grams.qgrams.extract", _grams),
    ("repro.core.search", "extract_qgrams", "grams.qgrams.extract", _grams),
    ("repro.engine.executor", "build_sorter", "grams.vocab.build", _vocab),
    ("repro.core.search", "build_sorter", "grams.vocab.build", _vocab),
    ("repro.grams.vocab", "QGramVocabulary.sort_profile", "grams.vocab.sort", None),
    ("repro.engine.stages", "MinEditFilter.prefix_info", "engine.prefix", _prefix),
    ("repro.engine.stages", "BasicPrefix.prefix_info", "engine.prefix", _prefix),
    ("repro.engine.executor", "build_columnar_store", "grams.columnar.build", None),
    ("repro.core.search", "build_columnar_store", "grams.columnar.build", None),
    ("repro.engine.executor", "Executor.collect_candidates", "engine.candidates", _cand1),
    ("repro.engine.executor", "Executor.batch_prefilter", "engine.batch", _batch),
    ("repro.engine.stages", "GlobalLabelFilter.prune", "engine.stages.global-label",
     _pruned("engine.stages.global-label")),
    ("repro.engine.stages", "CountFilter.prune", "engine.stages.count",
     _pruned("engine.stages.count")),
    ("repro.engine.stages", "LabelFilter.prune", "engine.stages.local-label",
     _pruned("engine.stages.local-label")),
    ("repro.engine.stages", "compare_qgrams", "grams.mismatch", None),
    ("repro.engine.stages", "Verify.run", "ged.verify", _verify),
    ("repro.runtime.journal", "JoinJournal.append", "runtime.journal", None),
    ("repro.runtime.sharded", "SpillQueue.append", "runtime.sharded.spill", None),
    ("repro.runtime.sharded", "ShardManifest.update_pair", "runtime.sharded.manifest", None),
    ("repro.core.search", "GSimIndex.query", "core.search.query", None),
    ("repro.core.search", "GSimIndex.add", "core.search.add", None),
]

#: Leaf layers: aggregated per call, no span record.  None of them calls
#: another wrapped function.
LEAVES: List[Tuple[str, str, str, Observer]] = [
    ("repro.engine.inverted_index", "InvertedIndex.add", "engine.inverted_index.add", None),
    ("repro.engine.inverted_index", "InvertedIndex.probe", "engine.inverted_index.probe",
     _postings),
    ("repro.ged.compiled", "VerificationCache.compile", "ged.compile", None),
]

#: Functions returning an iterator whose ``next()`` calls are the work.
ITERATORS: List[Tuple[str, str, str]] = [
    ("repro.engine.sharded", "load_graphs_iter", "graph.io.load"),
]

#: Every timed layer, in chain order; each gets a ``<layer>.self_share``.
LAYERS: List[str] = list(
    dict.fromkeys(
        [layer for _m, _a, layer, _o in SPANS + LEAVES]
        + [layer for _m, _a, layer in ITERATORS]
        + [ROOT]
    )
)


class Tracer:
    """Spans and counters of one traced unit of work."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Op id stamped on every span; the workload advances it.
        self.op = 0
        self._next_id = 1
        # Frames are [span id, seconds spent in wrapped children].
        self._stack: List[list] = [[0, 0.0]]

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, layer: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        elapsed = end - start
        self._stack[-1][1] += elapsed
        self.self_s[layer] += elapsed - frame[1]
        self.calls[layer] += 1
        self.spans.append((frame[0], layer, start, end, self._stack[-1][0], self.op))

    def _leaf(self, layer: str, elapsed: float) -> None:
        self._stack[-1][1] += elapsed
        self.self_s[layer] += elapsed
        self.calls[layer] += 1

    def span(self, layer: str, fn: Callable, observe: Observer) -> Callable:
        """``fn`` wrapped in a span of ``layer``."""
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(layer, frame, start, perf_counter())
            if observe is not None:
                observe(tracer.counts, result)
            return result

        return wrapper

    def leaf(self, layer: str, fn: Callable, observe: Observer) -> Callable:
        """``fn`` wrapped as an aggregated leaf of ``layer``."""
        tracer = self

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leaf(layer, perf_counter() - start)
            if observe is not None:
                observe(tracer.counts, result)
            return result

        return wrapper

    def iterator(self, layer: str, fn: Callable) -> Callable:
        """``fn``'s returned iterator, each ``next()`` timed as a leaf."""
        tracer = self

        def timed(inner: Iterator) -> Iterator:
            try:
                while True:
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._leaf(layer, perf_counter() - start)
                    yield item
            finally:
                close = getattr(inner, "close", None)
                if close is not None:
                    close()

        def wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        return wrapper

    @contextmanager
    def root(self) -> Iterator[None]:
        """The ``engine.driver`` span around one unit of work."""
        frame = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(ROOT, frame, start, perf_counter())

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as JSON lines, in completion order."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, start, end, parent, op in self.spans:
                f.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def _resolve(module: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


@contextmanager
def traced(tracer: Optional[Tracer]) -> Iterator[None]:
    """Run the body as one traced unit (plain when ``tracer`` is None)."""
    if tracer is None:
        yield
        return
    saved = []

    def install(module: str, path: str, wrap: Callable[[Callable], Callable]) -> None:
        owner, attr = _resolve(module, path)
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    try:
        for module, path, layer, observe in SPANS:
            install(module, path, lambda fn: tracer.span(layer, fn, observe))
        for module, path, layer, observe in LEAVES:
            install(module, path, lambda fn: tracer.leaf(layer, fn, observe))
        for module, path, layer in ITERATORS:
            install(module, path, lambda fn: tracer.iterator(layer, fn))
        with tracer.root():
            yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracers: List[Tracer],
    traced_walls: List[float],
    overhead: float,
    graphs: int,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of the traced units, per unit of work.

    ``traced_walls`` are the harness-measured wall times of the traced
    units, ``overhead`` the traced-to-plain time ratio minus one;
    ``graphs`` is the collection size; ``extra`` carries counters
    measured outside the wrappers (the bytes a unit left on disk).
    """
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    for tracer in tracers:
        self_s.update(tracer.self_s)
        calls.update(tracer.calls)
        counts.update(tracer.counts)
    units = len(tracers)
    wall = sum(traced_walls)
    metrics: Dict[str, float] = {
        "trace.wall_s": wall / units,
        "trace.overhead_share": overhead,
        # The largest vocabulary built, not a per-unit sum.
        "grams.vocab.build.distinct_keys": max(
            t.counts["grams.vocab.build.distinct_keys"] for t in tracers
        ),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = self_s[layer] / wall
    per_unit = {
        "engine.prefix.unprunable": counts["engine.prefix.unprunable"],
        "grams.columnar.build.calls": calls["grams.columnar.build"],
        "engine.inverted_index.add.calls": calls["engine.inverted_index.add"],
        "engine.inverted_index.probe.calls": calls["engine.inverted_index.probe"],
        "engine.candidates.cand1": counts["engine.candidates.cand1"],
        "engine.stages.global-label.calls": calls["engine.stages.global-label"],
        "engine.stages.count.calls": calls["engine.stages.count"],
        "engine.stages.local-label.calls": calls["engine.stages.local-label"],
        "grams.mismatch.calls": calls["grams.mismatch"],
        "ged.verify.calls": calls["ged.verify"],
        "runtime.journal.calls": calls["runtime.journal"],
        "runtime.sharded.spill.calls": calls["runtime.sharded.spill"],
        "runtime.sharded.manifest.calls": calls["runtime.sharded.manifest"],
    }
    for name, total in per_unit.items():
        metrics[name] = total / units
    extract_calls = calls["grams.qgrams.extract"]
    metrics.update(
        {
            "grams.qgrams.extract.calls_per_graph": _ratio(extract_calls, graphs * units),
            "grams.qgrams.extract.grams_per_graph": _ratio(
                counts["grams.qgrams.extract.grams"], extract_calls
            ),
            "engine.prefix.avg_len": _ratio(
                counts["engine.prefix.length"], calls["engine.prefix"]
            ),
            "engine.candidates.postings_per_cand1": _ratio(
                counts["engine.inverted_index.probe.postings"],
                counts["engine.candidates.cand1"],
            ),
            "engine.batch.prune_share": _ratio(
                counts["engine.batch.pruned"], counts["engine.batch.pairs"]
            ),
            "ged.verify.result_share": _ratio(
                counts["ged.verify.results"], calls["ged.verify"]
            ),
            "ged.verify.expansions_per_call": _ratio(
                counts["ged.verify.expansions"], calls["ged.verify"]
            ),
            "ged.verify.memo_hit_share": _ratio(
                counts["ged.verify.memo_hits"], calls["ged.verify"]
            ),
        }
    )
    for stage in ("global-label", "count", "local-label"):
        layer = f"engine.stages.{stage}"
        metrics[f"{layer}.prune_share"] = _ratio(counts[layer + ".pruned"], calls[layer])
    metrics.update(extra)
    return metrics
