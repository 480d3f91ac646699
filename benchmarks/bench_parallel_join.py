"""Extension benchmark — multi-core verification speedup.

Not a paper figure: measures the parallel join (verification fanned out
over a process pool) against the sequential Algorithm 1 at the largest
τ, where the A* phase dominates and parallelism can pay.  A pool's
speed on a small machine moves with whatever else runs on it, so every
mode runs ``ROUNDS`` times, the order of the modes rotating from round
to round, and the table reports each mode's median time with its
quartiles and the median of the per-round speedups over the same
round's sequential run.  The speedup is bounded by the machine's core
count (printed in the table header) — on a single-core box the pool can
only add overhead, so this bench asserts result equality, not speedup.
"""

import os
import time
from statistics import median, quantiles

from workloads import AIDS_Q, MAX_TAU, dataset, format_table, write_series

from repro import GSimJoinOptions, gsim_join
from repro.core.parallel import gsim_join_parallel

#: Timed runs of every mode.
ROUNDS = 5

#: ``None`` is the sequential join, otherwise the pool's worker count.
MODES = (None, 2, 4)


def test_parallel_join_speedup(benchmark):
    graphs = list(dataset("aids"))
    tau = MAX_TAU
    options = GSimJoinOptions.full(q=AIDS_Q)
    expected = gsim_join(graphs, tau, options=options).pair_set()

    def run(workers):
        started = time.perf_counter()
        if workers is None:
            result = gsim_join(graphs, tau, options=options)
        else:
            result = gsim_join_parallel(
                graphs, tau, options=options, workers=workers
            )
        elapsed = time.perf_counter() - started
        assert result.pair_set() == expected
        return elapsed

    def compute():
        times = {mode: [] for mode in MODES}
        for k in range(ROUNDS):
            shift = k % len(MODES)
            for mode in MODES[shift:] + MODES[:shift]:
                times[mode].append(run(mode))
        rows = []
        for mode in MODES:
            q1, mid, q3 = quantiles(times[mode], n=4)
            speedup = median(
                seq / t for seq, t in zip(times[None], times[mode])
            )
            rows.append(
                [
                    "sequential" if mode is None else f"workers={mode}",
                    f"{mid:.2f}",
                    f"{q1:.2f}",
                    f"{q3:.2f}",
                    f"{speedup:.2f}",
                    len(expected),
                ]
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    cores = os.cpu_count() or 1
    table = format_table(
        f"Extension: parallel join (AIDS, tau={tau}, {cores} cpu core(s), "
        f"{ROUNDS} rounds in rotating order)",
        ["mode", "median (s)", "q1 (s)", "q3 (s)", "speedup", "results"],
        rows,
    )
    write_series("parallel_join", table, [])
    print("\n" + table)
