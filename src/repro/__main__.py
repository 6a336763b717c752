"""Command-line interface: run the paper's decompositions on edge lists.

Usage examples::

    python -m repro stats graph.txt
    python -m repro fd graph.txt --epsilon 0.5 --out coloring.txt
    python -m repro sfd graph.txt --epsilon 0.25
    python -m repro orient graph.txt --method augmentation --json
    python -m repro decompose graph.txt --task forest --json
    python -m repro decompose graph.txt --task list_forest \\
        --palettes palettes.txt --epsilon 1.0
    python -m repro decompose graph.txt --profile
    python -m repro describe list_forest
    python -m repro generate forest-union --n 100 --alpha 4 --out graph.txt

Graphs are plain edge lists (see :mod:`repro.graph.io`).  Every
decomposition subcommand takes ``--json`` (print the structured
``to_json()`` payload — colors, stats, config, round accounting —
instead of the human report, so downstream tooling stops parsing
printed text).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .graph.io import (
    read_edge_list,
    read_palettes,
    write_coloring,
    write_edge_list,
    write_result_json,
)

# Built-in task names, for --help only; validation happens in the task
# registry so CLI users can run third-party register_task() tasks too.
BUILTIN_TASKS = (
    "forest",
    "star_forest",
    "list_forest",
    "list_star_forest",
    "pseudoforest",
    "orientation",
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="edge-list file")
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--alpha", type=int, default=None,
                        help="arboricity if known (else computed exactly)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write coloring here")
    parser.add_argument("--json", action="store_true",
                        help="print the structured result (to_json()) "
                        "instead of the human report")
    parser.add_argument("--report", action="store_true",
                        help="print a validity + statistics report")


def _emit_result(result, args, kind: str) -> None:
    """Shared --json/--out handling for the decomposition commands."""
    if args.json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    if args.out:
        if args.out.endswith(".json"):
            write_result_json(result, args.out)
        else:
            write_coloring(result.coloring, args.out)
        if not args.json:
            print(f"{kind} written to {args.out}")


def _cmd_stats(args: argparse.Namespace) -> int:
    from .nashwilliams import exact_arboricity, exact_pseudoarboricity

    graph = read_edge_list(args.graph)
    print(f"n = {graph.n}")
    print(f"m = {graph.m}")
    print(f"max degree = {graph.max_degree()}")
    print(f"simple = {graph.is_simple()}")
    print(f"arboricity = {exact_arboricity(graph)}")
    print(f"pseudoarboricity = {exact_pseudoarboricity(graph)}")
    return 0


def _cmd_fd(args: argparse.Namespace) -> int:
    from .core.api import forest_decomposition
    from .verify import check_forest_decomposition

    graph = read_edge_list(args.graph)
    result = forest_decomposition(
        graph, epsilon=args.epsilon, alpha=args.alpha,
        diameter_mode="auto" if args.bounded_diameter else None,
        seed=args.seed,
    )
    check_forest_decomposition(graph, result.coloring)
    if not args.json:
        print(f"forests used: {result.colors_used} "
              f"(budget (1+eps)alpha = {result.color_budget})")
        print(f"charged LOCAL rounds: {result.rounds.total}")
    if args.report:
        from .verify import summarize_decomposition

        print(summarize_decomposition(graph, result.coloring, "forest"))
    _emit_result(result, args, "coloring")
    return 0


def _cmd_sfd(args: argparse.Namespace) -> int:
    from .core.api import star_forest_decomposition
    from .verify import check_star_forest_decomposition

    graph = read_edge_list(args.graph)
    result = star_forest_decomposition(
        graph, epsilon=args.epsilon, alpha=args.alpha, seed=args.seed,
    )
    count = check_star_forest_decomposition(graph, result.coloring)
    if not args.json:
        print(f"star forests used: {count}")
        print(f"max matching deficit: {result.stats.max_deficit}")
        print(f"charged LOCAL rounds: {result.rounds.total}")
    if args.report:
        from .verify import summarize_decomposition

        print(summarize_decomposition(graph, result.coloring, "star"))
    _emit_result(result, args, "coloring")
    return 0


def _cmd_orient(args: argparse.Namespace) -> int:
    from .core import decompose, DecompositionConfig
    from .verify import check_orientation

    graph = read_edge_list(args.graph)
    config = DecompositionConfig(
        epsilon=args.epsilon, alpha=args.alpha, seed=args.seed,
    )
    result = decompose(
        graph, task="orientation", config=config, method=args.method
    )
    observed = check_orientation(graph, result.orientation, result.bound)
    if not args.json:
        print(f"out-degree bound: {result.bound} "
              f"(observed max: {observed})")
    _emit_result(result, args, "orientation (edge -> tail)")
    return 0


# Which optional CLI knobs each task's runner understands; forwarding
# them blindly would hit the runner as an unexpected keyword argument.
_TASKS_WITH_METHOD = ("orientation", "pseudoforest", "list_star_forest")
_TASKS_WITH_PALETTES = ("list_forest", "list_star_forest")
_REPORT_KIND = {
    "forest": "forest",
    "list_forest": "forest",
    "star_forest": "star",
    "list_star_forest": "star",
    "pseudoforest": "pseudoforest",
}


def _print_pass_profile(result) -> None:
    """--profile: the executed per-stage records as a fixed-width table."""
    passes = getattr(getattr(result, "stats", None), "passes", None)
    if not passes:
        print("(no per-pass records on this result)")
        return
    header = (
        f"{'pass':<18} {'wall_ms':>9} {'rounds':>7} "
        f"{'items':>7} {'reconcile':>9} {'touched':>8}"
    )
    print(header)
    print("-" * len(header))
    for record in passes:
        print(
            f"{record.name:<18} {record.wall_ms:>9.2f} {record.rounds:>7} "
            f"{record.items:>7} {record.reconcile_volume:>9} "
            f"{record.vertices_touched:>8}"
        )


def _cmd_decompose(args: argparse.Namespace) -> int:
    """The unified entry point: any registered task, one config."""
    from .core import decompose, DecompositionConfig

    graph = read_edge_list(args.graph)
    config = DecompositionConfig(
        epsilon=args.epsilon,
        alpha=args.alpha,
        seed=args.seed,
        diameter_mode=args.diameter_mode,
        cut_rule=args.cut_rule,
        carve_rule=args.carve_rule,
        validation=args.validation,
    )
    from .core.registry import get_task
    from .errors import RegistryError

    try:
        get_task(args.task)
    except RegistryError as error:
        print(str(error), file=sys.stderr)
        return 2
    kwargs = {}
    if args.method:
        if args.task not in _TASKS_WITH_METHOD:
            print(f"--method does not apply to task {args.task!r} "
                  f"(only {', '.join(_TASKS_WITH_METHOD)})", file=sys.stderr)
            return 2
        kwargs["method"] = args.method
    if args.palettes:
        if args.task not in _TASKS_WITH_PALETTES:
            print(f"--palettes does not apply to task {args.task!r} "
                  f"(only {', '.join(_TASKS_WITH_PALETTES)})", file=sys.stderr)
            return 2
        kwargs["palettes"] = read_palettes(args.palettes)
    result = decompose(graph, task=args.task, config=config, **kwargs)
    if not args.json:
        print(f"task: {args.task}")
        print(f"colors used: {result.num_colors()}")
        if result.rounds is not None:
            print(f"charged LOCAL rounds: {result.rounds.total}")
    if args.profile:
        _print_pass_profile(result)
    if args.report:
        kind = _REPORT_KIND.get(args.task)
        if kind is not None:
            from .verify import summarize_decomposition

            print(summarize_decomposition(graph, result.coloring, kind))
        else:
            print("(no summary report for this task; see --json)")
    _emit_result(result, args, "result")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from .core.api import describe
    from .errors import RegistryError

    try:
        print(describe(args.task))
    except RegistryError as error:
        print(str(error), file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the incremental decomposition daemon (repro.service)."""
    from .core import DecompositionConfig
    from .service.server import serve

    config = DecompositionConfig(
        delta_mode=args.delta_mode,
        delta_threshold=args.delta_threshold,
    )
    log_stream = None
    if args.log == "-":
        log_stream = sys.stderr
    elif args.log:
        log_stream = open(args.log, "a", encoding="utf-8")
    try:
        return serve(
            host=args.host,
            port=args.port,
            config=config,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            graph_path=args.graph,
            log_stream=log_stream,
        )
    finally:
        if log_stream is not None and log_stream is not sys.stderr:
            log_stream.close()


def _cmd_client(args: argparse.Namespace) -> int:
    """One request against a running daemon, response printed as JSON."""
    from .service.client import ServeClient, ServeError

    payload = json.loads(args.payload) if args.payload else {}
    if not isinstance(payload, dict):
        print("--payload must be a JSON object", file=sys.stderr)
        return 2
    try:
        with ServeClient(args.host, args.port) as client:
            response = client.request(args.op, **payload)
    except ServeError as error:
        print(json.dumps({"ok": False, "error": str(error),
                          "error_kind": error.kind}, indent=2, sort_keys=True))
        return 1
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .graph import generators

    if args.family == "forest-union":
        graph = generators.union_of_random_forests(
            args.n, args.alpha, seed=args.seed, simple=args.simple
        )
    elif args.family == "line-multigraph":
        graph = generators.line_multigraph(args.n, args.alpha)
    elif args.family == "grid":
        side = max(2, int(args.n ** 0.5))
        graph = generators.grid_graph(side, side)
    elif args.family == "preferential":
        graph = generators.preferential_attachment(
            args.n, args.alpha, seed=args.seed
        )
    else:
        print(f"unknown family {args.family!r}", file=sys.stderr)
        return 2
    if args.out:
        write_edge_list(graph, args.out)
        print(f"graph (n={graph.n}, m={graph.m}) written to {args.out}")
    else:
        write_edge_list(graph, sys.stdout)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nash-Williams forest/star-forest decompositions "
        "(Harris-Su-Vu, PODC 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="graph statistics incl. exact alpha")
    p_stats.add_argument("graph")
    p_stats.set_defaults(func=_cmd_stats)

    p_fd = sub.add_parser("fd", help="(1+eps)alpha forest decomposition")
    _add_common(p_fd)
    p_fd.add_argument("--bounded-diameter", action="store_true")
    p_fd.set_defaults(func=_cmd_fd)

    p_sfd = sub.add_parser("sfd", help="star-forest decomposition (simple graphs)")
    _add_common(p_sfd)
    p_sfd.set_defaults(func=_cmd_sfd)

    p_orient = sub.add_parser("orient", help="(1+eps)alpha orientation")
    _add_common(p_orient)
    p_orient.add_argument(
        "--method", default="augmentation",
        choices=("augmentation", "hpartition", "exact"),
    )
    p_orient.set_defaults(func=_cmd_orient)

    p_dec = sub.add_parser(
        "decompose",
        help="unified dispatcher: any registered task, one shared config",
    )
    _add_common(p_dec)
    # epsilon=None lets each task's conventional default resolve
    # (0.5 forest, 0.25 star_forest, 0.05 list_star_forest, ...);
    # an explicit --epsilon still wins.
    p_dec.set_defaults(epsilon=None)
    p_dec.add_argument(
        "--task", default="forest",
        help="a registered task name; built-ins: "
        + "|".join(BUILTIN_TASKS) + " (default: forest)",
    )
    p_dec.add_argument("--palettes", default=None,
                       help="palette file for the list tasks "
                       "(see repro.graph.io.read_palettes)")
    p_dec.add_argument("--method", default=None,
                       help="task-specific method (e.g. orientation: "
                       "augmentation|hpartition|exact; LSFD: amr|hpartition)")
    p_dec.add_argument("--diameter-mode", default=None,
                       choices=("safe", "strong", "auto"))
    p_dec.add_argument("--cut-rule", default="depth_residue",
                       choices=("depth_residue", "conditioned_sampling"))
    p_dec.add_argument("--carve-rule", default="doubling",
                       choices=("doubling", "simultaneous"))
    p_dec.add_argument("--validation", default="basic",
                       choices=("none", "basic", "full"))
    p_dec.add_argument("--profile", action="store_true",
                       help="print the executed per-stage records "
                       "(wall time, rounds, items, reconcile "
                       "volume, vertices touched) after the run")
    p_dec.set_defaults(func=_cmd_decompose)

    p_desc = sub.add_parser(
        "describe",
        help="print a task's stages (no execution)",
    )
    p_desc.add_argument(
        "task",
        help="a registered task name; built-ins: " + "|".join(BUILTIN_TASKS),
    )
    p_desc.set_defaults(func=_cmd_describe)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived incremental decomposition daemon "
        "(line-delimited JSON over TCP; see repro.service)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 = pick a free one; the bound "
                         "port is printed in the READY handshake)")
    p_serve.add_argument("--graph", default=None,
                         help="edge-list file to load at startup")
    p_serve.add_argument("--delta-mode", default="auto",
                         choices=("auto", "incremental", "full"),
                         help="delta engine policy (latency only; "
                         "results are identical)")
    p_serve.add_argument("--delta-threshold", type=float, default=0.25,
                         help="dirty-fraction above which auto mode "
                         "falls back to full recompute")
    p_serve.add_argument("--checkpoint-dir", default=None,
                         help="directory for snapshots + delta journal "
                         "(enables kill -9 durability)")
    p_serve.add_argument("--checkpoint-every", type=int, default=16,
                         help="batches between periodic snapshots "
                         "(0 = only journal + exit checkpoint)")
    p_serve.add_argument("--resume", action="store_true",
                         help="restore the last checkpoint generation "
                         "and replay its journal before serving")
    p_serve.add_argument("--log", default=None,
                         help="structured JSON-line log file "
                         "('-' = stderr)")
    p_serve.set_defaults(func=_cmd_serve)

    p_client = sub.add_parser(
        "client",
        help="send one op to a running serve daemon, print the JSON reply",
    )
    p_client.add_argument("op",
                          help="protocol op: ping|load_graph|watch|unwatch|"
                          "apply_delta|query|current|stats|checkpoint|"
                          "shutdown")
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, required=True)
    p_client.add_argument("--payload", default=None,
                          help="JSON object merged into the request")
    p_client.set_defaults(func=_cmd_client)

    p_gen = sub.add_parser("generate", help="generate a workload graph")
    p_gen.add_argument(
        "family",
        choices=("forest-union", "line-multigraph", "grid", "preferential"),
    )
    p_gen.add_argument("--n", type=int, default=50)
    p_gen.add_argument("--alpha", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--simple", action="store_true")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_generate)

    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro describe forest | head -3``).
        # Point stdout at devnull so the interpreter's final flush
        # cannot raise again, and exit nonzero as a closed pipe should.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
