"""Command-line front door.

Subcommands: gen-game, gen-graph, reduce, solve-protocol, stream-run,
verify.  Every randomized command takes an explicit --seed and is a pure
function of its flags and input files, so reruns are byte-identical.

Exit codes: 0 success, 1 verification check failed, 2 usage or parse
error, 3 infeasible parameters.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Optional

from . import gadgets, gameio, games, info, protocols, reduction, streaming, verify
from .errors import GameFormatError, InfeasibleParametersError, StreamFormatError
from .util import derive_rng

__all__ = ["main"]


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise _UsageError(message)


class _UsageError(Exception):
    pass


# Cap on the entries one command may draw or allocate: 2**27 int64 entries are
# 1 GiB, which keeps one sampler table under 1 GiB on an 8 GB host.  Each table
# also counts 64 entries for its Python object (260-450 bytes measured).
_MAX_ENTRIES = 2**27


def _check_size(what: str, tables: tuple[int, ...], dims: tuple[int, ...]) -> None:
    """Refuse, before any draw, prod(tables) arrays of prod(dims) entries past
    the cap; a non-positive factor is left for the library's usage errors."""
    count, size = math.prod(tables), math.prod(dims)
    if min(tables + dims) >= 1 and count * (size + 64) > _MAX_ENTRIES:
        raise InfeasibleParametersError(
            f"{what}: {count} array(s) of {size} entries, over the cap of {_MAX_ENTRIES} entries"
        )


# Cap on verify --trials, 500 times the largest default trial count (2000).
# At the cap the slowest suite, reduction (about 0.7 ms a trial on a 2-core
# Xeon VM), runs for about 12 minutes; a larger count is refused.
_MAX_TRIALS = 10**6


def _cmd_gen_game(args) -> int:
    _require(args.seed is not None, "gen-game needs --seed")
    _require(args.n is not None and args.p is not None, "gen-game needs --n and --p")
    rng = derive_rng(args.seed)
    if args.t is not None:
        _check_size("2*p*t*n", (2, args.p, args.t), (args.n,))
        r = args.r if args.r is not None else info.c_star_threshold(args.n)
        inst = games.sample_uniform_or_lpce(args.n, args.p, r, args.t, rng)
    elif args.r is not None:
        _check_size("2*p*n", (2, args.p), (args.n,))
        inst = games.sample_uniform_lpce(args.n, args.p, args.r, rng)
    else:
        _check_size("2*p*n^2", (2, args.p), (args.n, args.n))
        inst = games.sample_intersect_sc(args.n, args.p, rng)
    _emit(gameio.serialize_game(inst), args.output)
    return 0


_GADGETS = {
    "distance": gadgets.build_distance_gadget,
    "reach": gadgets.build_reachability_gadget,
    "matching": gadgets.build_matching_gadget,
}


def _cmd_gen_graph(args) -> int:
    if args.input is not None:
        inst = gameio.parse_game(Path(args.input).read_text())
        _require(
            isinstance(inst, games.IntersectScInstance),
            "gen-graph input must be an intersectsc game",
        )
        _require(
            args.p is None or args.p == inst.p - 1,
            f"--p {args.p} conflicts with input depth {inst.p} (expects p = depth - 1)",
        )
    else:
        _require(args.seed is not None, "gen-graph needs --seed when sampling")
        _require(args.k is not None and args.p is not None, "gen-graph needs --k and --p")
        _check_size("2*(p+1)*k^2", (2, args.p + 1), (args.k, args.k))
        inst = games.sample_intersect_sc(args.k, args.p + 1, derive_rng(args.seed))
    stream = _GADGETS[args.gadget](inst)
    _emit(gadgets.serialize_stream(stream), args.output)
    return 0


def _cmd_reduce(args) -> int:
    _require(args.seed is not None, "reduce needs --seed")
    if args.input is not None:
        inst = gameio.parse_game(Path(args.input).read_text())
        _require(
            isinstance(inst, games.OrLpceInstance), "reduce input must be an orlpce game"
        )
    else:
        _require(args.n is not None and args.p is not None, "reduce needs --n and --p")
        r = args.r if args.r is not None else info.c_star_threshold(args.n)
        t = args.t if args.t is not None else reduction.choose_params(args.n, args.p, r).t
        _check_size("2*p*t*n", (2, args.p, t), (args.n,))
        inst = games.sample_uniform_or_lpce(args.n, args.p, r, t, derive_rng(args.seed, 0))
    out = reduction.reduce_or_lpce(inst, derive_rng(args.seed, 1))
    if isinstance(out, reduction.ShortCircuit):
        j, side, layer = out.witness
        sys.stdout.write(f"shortcircuit answer=1 witness=item{j},side{side},layer{layer}\n")
        return 0
    _emit(gameio.serialize_game(out), args.output)
    return 0


def _cmd_solve_protocol(args) -> int:
    _require(args.input is not None, "solve-protocol needs --input")
    inst = gameio.parse_game(Path(args.input).read_text())
    _require(
        isinstance(inst, games.IntersectScInstance),
        "solve-protocol input must be an intersectsc game",
    )
    runner = (
        protocols.forward_sc_protocol if args.alg == "forward" else protocols.reverse_order_sc_protocol
    )
    answer, transcript = runner(inst)
    lines = []
    if args.dump:
        lines.append(transcript.dump())
    lines.append(f"answer={answer} rounds={transcript.rounds} total_bits={transcript.total_bits}\n")
    sys.stdout.write("".join(lines))
    return 0


def _cmd_stream_run(args) -> int:
    _require(args.input is not None, "stream-run needs --input")
    stream = gadgets.parse_stream(Path(args.input).read_text())
    _check_size("nv", (1,), (stream.nv,))
    factory = streaming.ALGORITHMS[args.alg]
    if args.alg in ("bidir-bfs", "forward-bfs"):
        alg = factory(2 * (stream.p + 1))
    else:
        alg = factory()
    budget = args.passes if args.passes is not None else stream.nv + 1
    report = streaming.run_streaming(alg, stream, budget)
    answer = "none" if report.answer is None else str(report.answer)
    text = (
        "answer,passes_used,max_state_bits\n"
        f"{answer},{report.passes_used},{report.max_state_bits}\n"
    )
    _emit(text, args.report)
    return 0


def _cmd_verify(args) -> int:
    _require(args.seed is not None, "verify needs --seed")
    if args.trials is not None and args.trials > _MAX_TRIALS:
        raise InfeasibleParametersError(
            f"trials={args.trials} is over the cap of {_MAX_TRIALS} trials"
        )
    results = verify.run_suite(args.suite, args.seed, args.trials)
    _emit(verify.to_csv(results), args.report)
    failed = [r for r in results if not r.passed]
    for r in failed:
        sys.stderr.write(f"FAILED {r.suite}/{r.check}: measured {r.measured}, wanted {r.threshold}\n")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chasebench",
        description="Construct, solve, and verify chase games, reductions, and graph streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *names: str):
        for name in names:
            if name in ("seed", "n", "p", "t", "r", "k", "passes", "trials"):
                p.add_argument(f"--{name}", type=int)
            else:
                p.add_argument(f"--{name}")

    g = sub.add_parser("gen-game", help="sample a game instance (scgame v1)")
    common(g, "seed", "n", "p", "t", "r", "output")
    g.set_defaults(func=_cmd_gen_game)

    g = sub.add_parser("gen-graph", help="build a gadget stream (graphstream v1)")
    common(g, "seed", "k", "p", "input", "output")
    g.add_argument("--gadget", choices=sorted(_GADGETS), required=True)
    g.set_defaults(func=_cmd_gen_graph)

    g = sub.add_parser("reduce", help="run the scramble-and-overlay reduction")
    common(g, "seed", "n", "p", "t", "r", "input", "output")
    g.set_defaults(func=_cmd_reduce)

    g = sub.add_parser("solve-protocol", help="run a blackboard protocol on a game file")
    common(g, "input")
    g.add_argument("--alg", choices=["forward", "reverse"], required=True)
    g.add_argument("--dump", action="store_true", help="print the transcript")
    g.set_defaults(func=_cmd_solve_protocol)

    g = sub.add_parser("stream-run", help="run a streaming algorithm over an edge stream")
    common(g, "input", "passes", "report")
    g.add_argument("--alg", choices=sorted(streaming.ALGORITHMS), required=True)
    g.set_defaults(func=_cmd_stream_run)

    g = sub.add_parser("verify", help="run a self-check suite and emit CSV")
    common(g, "seed", "trials", "report")
    g.add_argument("--suite", choices=[*verify.SUITES, "all"], required=True)
    g.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GameFormatError, StreamFormatError) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except (InfeasibleParametersError, MemoryError) as exc:
        sys.stderr.write(f"infeasible parameters: {str(exc) or 'out of memory'}\n")
        return 3
    except (_UsageError, FileNotFoundError, ValueError) as exc:
        # ValueError: a parameter the library rejects (e.g. --n 0, --passes -1)
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
