"""Command-line interface to the Sapper toolchain::

    python -m repro compile  design.sapper            # emit Verilog
    python -m repro simulate design.sapper -n 100     # run the simulator
    python -m repro synth    design.sapper            # gate census report
    python -m repro stats    design.sapper            # pass-pipeline effect
    python -m repro check    design.sapper            # design lint + taint audit
    python -m repro serve    --store DIR              # the NDJSON server

Each command turns its arguments into a :mod:`repro.commands` request,
runs the shared command and renders the result as text (see "Front
doors" in ARCHITECTURE.md; ``--help`` on each command lists its flags).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from collections.abc import Sequence

from repro import commands
from repro.commands import LATTICES, RequestError
from repro.lattice import LatticeError
from repro.sapper.errors import SapperError
from repro.store import ArtifactStore, StoreError
from repro.toolchain import Toolchain


def _positive_int(text: str) -> int:
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Sapper hardware security-policy toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("source", help="path to a .sapper source file, or '-' for stdin")
        p.add_argument("--lattice", choices=sorted(LATTICES), default="two",
                       help="security lattice (default: two-level L<H)")
        p.add_argument("--insecure", action="store_true",
                       help="compile the Base variant (no tags, no checks)")
        p.add_argument("--no-opt", action="store_true",
                       help="skip the optimization pipeline")
        p.add_argument("--name", default=None, help="module name (default: file stem)")
        p.add_argument("--store", default=None, metavar="DIR",
                       help="persistent artifact-store directory (reload compiled "
                            "and optimized artifacts across runs)")

    common(sub.add_parser("compile", help="compile to synthesizable Verilog"))

    sim = sub.add_parser("simulate", help="run the cycle-accurate simulator")
    common(sim)
    sim.add_argument("-n", "--cycles", type=int, default=32, help="cycles to run")
    sim.add_argument("-i", "--input", action="append", default=[], metavar="PORT=VALUE",
                     help="constant input drive (repeatable); with --lanes, "
                          "PORT=V0,V1,... drives one value per lane")
    sim.add_argument("--lanes", type=int, default=1, metavar="N",
                     help="advance N independent machine states with the "
                          "lane-batched simulator (default: 1, scalar)")
    sim.add_argument("--shards", type=int, default=1, metavar="S",
                     help="split the lane batch across S worker processes "
                          "(the multiprocess fleet; workers share "
                          "compiled artifacts through one store and results "
                          "are bit-identical to --shards 1; default: 1, "
                          "in-process)")
    sim.add_argument("--engine",
                     choices=commands.ENGINES,
                     default="auto",
                     help="simulation engine: 'scalar' (one Simulator per "
                          "run, --lanes 1 only), 'swar' (lane-packed tags "
                          "+ guard-banded wide-word lane packing), 'vector' "
                          "(NumPy uint64 lane arrays; needs numpy>=2), or "
                          "'auto' (scalar at 1 lane, swar for small "
                          "batches, vector from 64 lanes when numpy>=2 is "
                          "available; default)")
    sim.add_argument("--compact", action=argparse.BooleanOptionalAction, default=True,
                     help="retire lanes whose 'halted' output fires and repack "
                          "the batch to the survivors (lane compaction), "
                          "stopping early once every lane has halted; "
                          "default on, a no-op for designs without a 'halted' "
                          "output port or with --lanes 1")
    sim.add_argument("--quiet", action="store_true", help="only print the summary")

    common(sub.add_parser("synth", help="synthesize to a gate census / cost report"))
    common(sub.add_parser("stats", help="report what each optimization pass did"))

    check = sub.add_parser(
        "check",
        help="run the static design-lint + information-flow analyzer",
    )
    common(check)
    check.add_argument("--format", choices=["text", "json"], default="text",
                       help="report format (default: text)")
    check.add_argument("--seed-defect", choices=commands.SEED_DEFECTS, default=None,
                       help="inject a known defect before analysis -- a smoke "
                            "test that the checker fails loudly (exit 1)")

    serve = sub.add_parser(
        "serve",
        help="run the async artifact server (newline-delimited JSON requests)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=9178, help="TCP port (default 9178)")
    serve.add_argument("--stdio", action="store_true",
                       help="serve one client over stdin/stdout instead of TCP")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="persistent artifact-store directory shared by requests")
    serve.add_argument("--workers", type=_positive_int, default=4,
                       help="bounded build worker pool size (default 4)")
    serve.add_argument("--warm", action=argparse.BooleanOptionalAction, default=True,
                       help="pre-compile the two-level/diamond/powerset processor "
                            "family on startup (default on; --no-warm to skip)")
    return parser


def _design_fields(args: argparse.Namespace) -> dict:
    if args.source == "-":
        source, name = sys.stdin.read(), "design"
    else:
        source, name = Path(args.source).read_text(), Path(args.source).stem
    return {
        "source": source,
        "lattice": args.lattice,
        "secure": not args.insecure,
        "name": args.name or name,
    }


def _parse_inputs(pairs: Sequence[str]) -> dict[str, int | list[int]]:
    """``PORT=VALUE`` drives every lane; ``PORT=V0,V1,...`` drives one
    value per lane (length must match ``--lanes``)."""
    out: dict[str, int | list[int]] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad --input {pair!r}: expected PORT=VALUE")
        port, _, value = pair.partition("=")
        try:
            if "," in value:
                out[port.strip()] = [int(v, 0) for v in value.split(",")]
            else:
                out[port.strip()] = int(value, 0)
        except ValueError:
            raise SystemExit(f"bad --input {pair!r}: {value!r} is not an integer")
    return out


def _cmd_compile(args: argparse.Namespace, tc: Toolchain) -> int:
    print(commands.verilog(tc, commands.DesignRequest(**_design_fields(args))).verilog)
    return 0


def _print_step(cycle: int, outs: Sequence[dict[str, int]]) -> None:
    ports = " | ".join(" ".join(f"{k}={v}" for k, v in out.items()) for out in outs)
    print(f"cycle {cycle:4d}  {ports}")


def render_simulate(result: commands.SimulateResult) -> str:
    """The ``simulate`` summary lines for *result*."""
    if isinstance(result.violations, int):
        return (f"# {result.cycles} cycles, {result.violations} violation cycle(s), "
                f"final outputs: {result.outputs}")
    fleet = result.fleet
    if fleet is None:
        occupancy = f"final occupancy {result.active_lanes}/{result.lanes}"
    else:
        occupancy = f"{fleet['shards']} shard(s), mean occupancy {fleet['occupancy']:.2f}"
    lines = [f"# {result.cycles} cycles x {result.lanes} lanes "
             f"({result.lane_cycles} active lane-cycles, {occupancy})"]
    if fleet is not None:
        lines.append(f"# fleet: start_method={fleet['start_method']} "
                     f"degraded={fleet['degraded']} requeues={fleet['requeues']} "
                     f"store_hits={fleet['toolchain'].get('store_hit:compile', 0)}")
    lines += [f"# lane {lane}: {count} violation cycle(s), final outputs: {out}"
              for lane, (count, out) in enumerate(zip(result.violations, result.outputs))]
    return "\n".join(lines)


def _cmd_simulate(args: argparse.Namespace, tc: Toolchain) -> int:
    req = commands.SimulateRequest(
        **_design_fields(args),
        cycles=args.cycles,
        lanes=args.lanes,
        inputs=_parse_inputs(args.input),
        engine=args.engine,
        compact=args.compact,
        shards=args.shards,
    )
    if req.shards > 1 and not args.quiet:
        print(f"# --shards {req.shards}: per-cycle trace runs in the workers; "
              "printing the summary only")
    print(render_simulate(commands.simulate(tc, req, None if args.quiet else _print_step)))
    return 0


def _cmd_synth(args: argparse.Namespace, tc: Toolchain) -> int:
    rpt = commands.synth(tc, commands.DesignRequest(**_design_fields(args)))
    print(f"module {rpt.name}")
    for key, value in rpt.summary.items():
        print(f"  {key:12s} {value:,.1f}")
    print("  cells        " + " ".join(f"{k}={v}" for k, v in rpt.cells.items()))
    return 0


def _cmd_stats(args: argparse.Namespace, tc: Toolchain) -> int:
    result = commands.stats(tc, commands.DesignRequest(**_design_fields(args)))
    before, after = result.signals_before, result.signals_after
    print(f"module {result.module}: {before} -> {after} signals ({before - after} removed)")
    for stat in result.passes:
        flag = "*" if stat["changed"] else " "
        print(f" {flag} {stat['name']:10s} {stat['signals_before']:6d} -> "
              f"{stat['signals_after']:6d}  {stat['seconds'] * 1000:7.1f} ms")
    print(f"fixpoint after {result.sweeps} sweeps")
    return 0


def _cmd_check(args: argparse.Namespace, tc: Toolchain) -> int:
    req = commands.CheckRequest(**_design_fields(args), seed_defect=args.seed_defect)
    result = commands.check(tc, req)
    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        print(result.report.render_text())
    return 0 if result.report.ok else 1


def _cmd_serve(args: argparse.Namespace, tc: Toolchain) -> int:
    import asyncio

    from repro.server import ReproServer

    server = ReproServer(toolchain=tc, max_workers=args.workers)
    try:
        if args.stdio:
            asyncio.run(server.run_stdio(warm=args.warm))
        else:
            asyncio.run(server.run_tcp(args.host, args.port, warm=args.warm))
    except OSError as exc:
        raise SystemExit(
            f"error: cannot listen on {args.host}:{args.port}: {exc}\n"
            "hint: is another 'repro serve' already running there? "
            "pass --port to pick a free port, or --stdio to skip TCP entirely"
        )
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down", file=sys.stderr)
    return 0


_COMMANDS = {
    "compile": _cmd_compile,
    "simulate": _cmd_simulate,
    "synth": _cmd_synth,
    "stats": _cmd_stats,
    "check": _cmd_check,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    store = None
    if getattr(args, "store", None):
        try:
            store = ArtifactStore(args.store)
        except StoreError as exc:
            raise SystemExit(
                f"error: {exc}\n"
                "hint: --store needs a creatable, writable directory; "
                "check the path and its permissions"
            )
    tc = Toolchain(0 if getattr(args, "no_opt", False) else 1, store=store)
    try:
        return _COMMANDS[args.command](args, tc)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SapperError, LatticeError) as exc:
        print(f"{getattr(args, 'source', 'input')}: error: {exc}", file=sys.stderr)
        return 1
    except RequestError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
