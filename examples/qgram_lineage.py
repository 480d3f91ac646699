"""From string joins to graph joins — the q-gram lineage.

GSimJoin ports the q-gram framework of string similarity joins to
graphs.  This example runs both sides of that lineage:

1. a string similarity join over a small dictionary
   (count + prefix + Ed-Join location filtering, banded-DP verify);
2. the corresponding graph similarity join over molecules;
3. the structural difference in mismatch reasoning: the string
   minimum-edit question is a polynomial interval-stabbing problem,
   while the graph version (paper Theorem 2) is an NP-hard hitting set.

Run:  python examples/qgram_lineage.py
"""

from repro import GSimJoinOptions, gsim_join
from repro.core import build_vocabulary, extract_qgrams, min_edit_exact
from repro.datasets import aids_like, figure1_graphs
from repro.strings import (
    min_edits_destroying,
    positional_qgrams,
    string_join,
)

DICTIONARY = [
    "similarity", "similarly", "similar", "simulator", "simulation",
    "graph", "graphs", "grapheme", "giraffe",
    "edit", "edits", "audit", "editor",
    "join", "joins", "joint", "point",
]


def main() -> None:
    # --- 1. String similarity join --------------------------------------
    pairs, stats = string_join(DICTIONARY, tau=2, q=2)
    print(f"String join (tau=2, q=2): {stats.results} pairs "
          f"from {stats.cand1} candidates "
          f"(avg prefix {stats.avg_prefix_length:.1f} grams)")
    for i, j in pairs:
        print(f"  {DICTIONARY[i]!r} ~ {DICTIONARY[j]!r}")

    # --- 2. Graph similarity join ---------------------------------------
    graphs = aids_like(num_graphs=80, seed=3)
    result = gsim_join(graphs, tau=2, options=GSimJoinOptions.full(q=4))
    print(f"\nGraph join (tau=2, q=4): {result.stats.results} pairs "
          f"from {result.stats.cand1} candidates "
          f"(avg prefix {result.stats.avg_prefix_length:.1f} grams)")

    # --- 3. Why graphs are harder ----------------------------------------
    word = "similarity"
    grams = positional_qgrams(word, 2)
    print(f"\n{word!r} has {len(grams)} positional 2-grams; destroying all "
          f"of them needs exactly {min_edits_destroying(grams, 2)} edits "
          f"(greedy interval stabbing, polynomial).")

    r, _ = figure1_graphs()
    profile = extract_qgrams(r, 1)
    build_vocabulary([profile]).sort_profile(profile)
    edits = min_edit_exact(profile.grams, cap=5)
    print(f"{r.graph_id!r} has {profile.size} path 1-grams; destroying all "
          f"of them needs {edits} edits (minimum hitting set, NP-hard "
          f"in general - Theorem 2).")
    print("\nPositions are the difference: string q-grams carry them, "
          "graph q-grams cannot.")


if __name__ == "__main__":
    main()
