"""Anatomy of the GSimJoin filter cascade, on the paper's own molecules.

Walks the Figure 1 pair (cyclopropanone vs 2-aminocyclopropanol) through
every technique in the paper, printing the intermediate quantities the
running examples quote: q-gram multisets, D_path, count filtering
bounds, minimum-edit prefix lengths, label filtering bounds, and finally
the A* search statistics under each optimization level.

Run:  python examples/filter_anatomy.py
"""

from repro.core import (
    build_vocabulary,
    compare_qgrams,
    count_lower_bound,
    extract_qgrams,
    global_label_lower_bound,
    local_label_lower_bound,
    min_prefix_length,
)
from repro.datasets import figure1_graphs
from repro.ged import (
    graph_edit_distance_detailed,
    input_vertex_order,
    label_heuristic,
    make_local_label_heuristic,
    mismatch_vertex_order,
    zero_heuristic,
)


def show_profile(name, profile):
    print(f"  Q_{name}: ", end="")
    parts = [
        f"{'-'.join(map(str, key))} (x{count})"
        for key, count in sorted(profile.key_counts.items(), key=repr)
    ]
    print(", ".join(parts))
    print(f"  |Q_{name}| = {profile.size},  D_path({name}) = {profile.d_path}")


def main() -> None:
    r, s = figure1_graphs()
    tau, q = 1, 1
    print(f"Pair: {r.graph_id} vs {s.graph_id},  tau = {tau},  q = {q}\n")

    # --- Path-based q-grams and count filtering (Section III) ----------
    p_r, p_s = extract_qgrams(r, q), extract_qgrams(s, q)
    print("Path-based q-grams (Example 3):")
    show_profile("r", p_r)
    show_profile("s", p_s)
    bound = count_lower_bound(p_r, p_s, tau)
    print(f"\nCount filtering (Example 4): need >= {bound} common q-grams")

    # --- Minimum edit filtering (Section IV) ---------------------------
    vocab = build_vocabulary([p_r, p_s])
    vocab.sort_profile(p_r)
    vocab.sort_profile(p_s)
    for name, profile in (("r", p_r), ("s", p_s)):
        basic = tau * profile.d_path + 1
        minedit = min_prefix_length(profile.grams, tau, profile.d_path)
        print(f"  prefix of {name}: basic = {basic}, minimum-edit = {minedit}")

    # --- Label filtering (Section V) ------------------------------------
    print(f"\nGlobal label filtering bound: {global_label_lower_bound(r, s)}")
    mismatch = compare_qgrams(p_r, p_s)
    print(f"Mismatching q-grams: {mismatch.epsilon_r} from r, "
          f"{mismatch.epsilon_s} from s")
    local = local_label_lower_bound(
        mismatch.mismatch_s, s, r, tau, required_keys=mismatch.absent_keys_s
    )
    print(f"Local label filtering bound from s's mismatches (Example 8): {local}")

    # --- GED computation (Section VI) -----------------------------------
    print("\nA* search at threshold tau = 3 (the pair's true distance):")
    configs = [
        ("h = 0 (uniform cost)", zero_heuristic, input_vertex_order(r)),
        ("global label h(x)", label_heuristic, input_vertex_order(r)),
        ("+ improved order", label_heuristic, mismatch_vertex_order(r, mismatch.mismatch_r)),
        ("+ improved h(x)", make_local_label_heuristic(q, 3),
         mismatch_vertex_order(r, mismatch.mismatch_r)),
    ]
    for label, heuristic, order in configs:
        res = graph_edit_distance_detailed(
            r, s, threshold=3, heuristic=heuristic, vertex_order=order
        )
        print(f"  {label:24s} distance={res.distance}  "
              f"expanded={res.expanded:4d}  generated={res.generated:4d}")


if __name__ == "__main__":
    main()
