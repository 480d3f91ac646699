"""Command-line interface for GSimJoin.

Four subcommands::

    python -m repro join   <collection.txt> --tau 2 [--q 4] [--variant full]
    python -m repro ged    <collection.txt> <id1> <id2> [--tau N]
    python -m repro stats  <collection.txt>
    python -m repro generate --kind aids --n 100 --seed 0 -o out.txt

Collections are in the library's line-oriented text format (see
:mod:`repro.graph.io`).  ``join`` prints the result pairs and the filter
statistics; ``--algorithm kat|appfull|naive`` switches to a baseline.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.baselines import appfull_join, kat_join, naive_join
from repro.core.join import GSimJoinOptions, gsim_join
from repro.datasets import aids_like, protein_like
from repro.exceptions import ReproError
from repro.ged import graph_edit_distance
from repro.ged.portfolio import BACKENDS
from repro.graph import assign_ids, collection_statistics, load_graphs, save_graphs
from repro.runtime import VerificationBudget

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GSimJoin: graph similarity joins with edit distance constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    join = sub.add_parser("join", help="self-join a collection")
    join.add_argument("collection", help="path to a graph collection file")
    join.add_argument("--tau", type=int, required=True, help="edit distance threshold")
    join.add_argument("--q", type=int, default=4, help="q-gram length (default 4)")
    join.add_argument(
        "--variant",
        choices=["basic", "minedit", "full"],
        default="full",
        help="GSimJoin filtering level (default full)",
    )
    join.add_argument(
        "--algorithm",
        choices=["gsimjoin", "kat", "appfull", "naive"],
        default="gsimjoin",
        help="join algorithm (default gsimjoin)",
    )
    join.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel verification processes (gsimjoin only; default 1)",
    )
    join.add_argument(
        "--verifier",
        choices=sorted(BACKENDS),
        default=None,
        help="GED backend: 'compiled' (default), 'dfs', or 'auto' "
        "(per-pair hardness dispatch; gsimjoin only)",
    )
    join.add_argument(
        "--budget-expansions",
        type=int,
        default=None,
        metavar="N",
        help="cap search expansions per pair; undecided pairs get GED "
        "bounds",
    )
    join.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        metavar="S",
        help="cap search wall-clock seconds per pair",
    )
    join.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help="journal verifications to FILE; re-running resumes from it",
    )
    join.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="chunk re-dispatches before in-process fallback (workers > 1)",
    )
    join.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="out-of-core sharded join over N size bands (streams the "
        "collection; requires --spill-dir)",
    )
    join.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="working directory for the sharded join: shard files, "
        "per-pair journals, spill queues and the recovery manifest",
    )
    join.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="cap resident graph data; over-budget shard pairs degrade "
        "to smaller sub-shards (sharded join only)",
    )
    join.add_argument(
        "--resume",
        action="store_true",
        help="resume the sharded-join run recorded in --spill-dir after "
        "a crash or kill",
    )
    join.add_argument(
        "--explain-plan",
        action="store_true",
        help="print the staged execution plan and the per-stage "
        "survivor/timing table to stderr (gsimjoin only)",
    )
    join.add_argument("--quiet", action="store_true", help="print only the pairs")
    join.add_argument(
        "--json",
        dest="json_path",
        metavar="FILE",
        default=None,
        help="also write pairs and statistics to a JSON file",
    )

    ged = sub.add_parser("ged", help="edit distance between two graphs of a collection")
    ged.add_argument("collection")
    ged.add_argument("id1", help="graph id (as in the file) or 0-based position")
    ged.add_argument("id2")
    ged.add_argument("--tau", type=int, default=None, help="optional threshold")

    stats = sub.add_parser("stats", help="Table-I style collection statistics")
    stats.add_argument("collection")

    gen = sub.add_parser("generate", help="generate a synthetic collection")
    gen.add_argument("--kind", choices=["aids", "protein"], default="aids")
    gen.add_argument("--n", type=int, default=100, help="number of graphs")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True, help="output file")
    return parser


def _load(path: str):
    if str(path).lower().endswith(".gxl"):
        from repro.graph.gxl import load_gxl

        graphs = assign_ids(load_gxl(path))
    else:
        graphs = assign_ids(load_graphs(path))
    if not graphs:
        raise ReproError(f"no graphs found in {path}")
    return graphs


def _find_graph(graphs, token: str):
    for g in graphs:
        if str(g.graph_id) == token:
            return g
    if token.isdigit() and int(token) < len(graphs):
        return graphs[int(token)]
    raise ReproError(f"no graph with id {token!r}")


def _print_result(result, args) -> int:
    for rid, sid in result.pairs:
        print(f"{rid}\t{sid}")
    if args.json_path:
        from repro.reporting import save_result_json

        save_result_json(result, args.json_path)
    if getattr(args, "explain_plan", False):
        print(result.stats.stage_table(), file=sys.stderr)
    if not args.quiet:
        print(result.stats.summary(), file=sys.stderr)
    return 0


def _gsimjoin_options(args) -> GSimJoinOptions:
    """The join options the flags select (variant, verifier)."""
    options = getattr(GSimJoinOptions, args.variant)(q=args.q)
    if args.verifier is not None:
        options = dataclasses.replace(options, verifier=args.verifier)
    return options


def _explain_plan(args, options: GSimJoinOptions) -> None:
    """Print the plan under ``--explain-plan`` to stderr."""
    if args.explain_plan:
        from repro.engine.plan import build_plan

        print(build_plan(options).describe(), file=sys.stderr)


def _cmd_join_sharded(args, budget) -> int:
    if args.spill_dir is None:
        raise ReproError("--shards requires --spill-dir")
    if args.algorithm != "gsimjoin":
        raise ReproError("--shards requires --algorithm gsimjoin")
    if args.checkpoint is not None:
        raise ReproError(
            "--shards journals per shard pair under --spill-dir; "
            "--checkpoint does not apply"
        )
    from repro.core.sharded import gsim_join_sharded

    options = _gsimjoin_options(args)
    _explain_plan(args, options)
    result = gsim_join_sharded(
        args.collection,
        args.tau,
        options=options,
        spill_dir=args.spill_dir,
        shards=args.shards,
        memory_budget_mb=args.memory_budget_mb,
        resume=args.resume,
        budget=budget,
        workers=args.workers,
        max_retries=args.max_retries,
    )
    return _print_result(result, args)


def _cmd_join(args) -> int:
    budget = None
    if args.budget_expansions is not None or args.budget_seconds is not None:
        budget = VerificationBudget(args.budget_expansions, args.budget_seconds)
    if args.algorithm != "gsimjoin" and (
        budget is not None
        or args.checkpoint is not None
        or args.explain_plan
        or args.verifier is not None
        or args.workers != 1
    ):
        raise ReproError(
            "--budget-*/--checkpoint/--explain-plan/--verifier/--workers "
            "require --algorithm gsimjoin"
        )
    if args.shards is not None:
        # Out-of-core path: the collection file is streamed, not loaded.
        return _cmd_join_sharded(args, budget)
    if args.resume or args.spill_dir or args.memory_budget_mb is not None:
        raise ReproError(
            "--spill-dir/--memory-budget-mb/--resume require --shards"
        )
    graphs = _load(args.collection)
    if args.algorithm == "gsimjoin":
        options = _gsimjoin_options(args)
        _explain_plan(args, options)
        if args.workers != 1:
            # gsim_join_parallel rejects workers < 1.
            from repro.core.parallel import gsim_join_parallel

            result = gsim_join_parallel(
                graphs,
                args.tau,
                options=options,
                workers=args.workers,
                budget=budget,
                checkpoint=args.checkpoint,
                max_retries=args.max_retries,
            )
        else:
            result = gsim_join(
                graphs,
                args.tau,
                options=options,
                budget=budget,
                checkpoint=args.checkpoint,
            )
    elif args.algorithm == "kat":
        result = kat_join(graphs, args.tau, q=1)
    elif args.algorithm == "appfull":
        result = appfull_join(graphs, args.tau)
    else:
        result = naive_join(graphs, args.tau)
    return _print_result(result, args)


def _cmd_ged(args) -> int:
    graphs = _load(args.collection)
    r = _find_graph(graphs, args.id1)
    s = _find_graph(graphs, args.id2)
    distance = graph_edit_distance(r, s, threshold=args.tau)
    if args.tau is not None and distance > args.tau:
        print(f"> {args.tau}")
    else:
        print(distance)
    return 0


def _cmd_stats(args) -> int:
    graphs = _load(args.collection)
    print(collection_statistics(graphs).as_table_row(args.collection))
    return 0


def _cmd_generate(args) -> int:
    builder = aids_like if args.kind == "aids" else protein_like
    graphs = builder(num_graphs=args.n, seed=args.seed)
    save_graphs(graphs, args.output)
    print(f"wrote {len(graphs)} graphs to {args.output}", file=sys.stderr)
    return 0


_COMMANDS = {
    "join": _cmd_join,
    "ged": _cmd_ged,
    "stats": _cmd_stats,
    "generate": _cmd_generate,
}


#: Exit code for an interrupted run (mirrors the shell's 128 + SIGINT).
EXIT_INTERRUPTED = 130


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    ``0`` on success, ``1`` on a :class:`~repro.exceptions.ReproError`
    or OS error, and :data:`EXIT_INTERRUPTED` (130) on Ctrl-C.  An
    interrupted ``join --checkpoint`` run leaves a valid journal behind
    (every record is flushed as it is written), so re-running the same
    command resumes where it stopped.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        checkpoint = getattr(args, "checkpoint", None)
        if checkpoint:
            print(
                f"interrupted; resume with the same command "
                f"(journal: {checkpoint})",
                file=sys.stderr,
            )
        else:
            print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
