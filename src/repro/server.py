"""``python -m repro serve`` -- the toolchain as an NDJSON service.

One :class:`ReproServer` owns one :class:`~repro.toolchain.Toolchain`
and answers newline-delimited JSON requests over TCP or stdio::

    {"id": 1, "op": "simulate", "source_path": "tdma.sapper", "cycles": 100}
    -> {"id": 1, "ok": true, "result": {"cycles": 100, ...}}

The design ops (``compile``, ``verilog``, ``synth``, ``check``,
``simulate``) build a :mod:`repro.commands` request from the JSON
object, run the shared command on a bounded thread pool and answer its
``to_json()`` (see "Front doors" in ARCHITECTURE.md).  ``verify``,
``fleet``, ``stats``, ``ping`` and ``shutdown`` are server-only.  Any
failure comes back as ``{"ok": false, "error": ...}``; the caps below
guard against greedy clients.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Any, TextIO

from repro import commands
from repro.commands import LATTICES, RequestError
from repro.lattice import LatticeError
from repro.sapper.errors import SapperError
from repro.toolchain import Toolchain

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 9178

#: Per-line size cap (the processor source is ~40 KB; leave headroom).
MAX_LINE = 8 * 1024 * 1024
#: Request-bound guards: a serving process must survive greedy clients.
MAX_CYCLES = 100_000
MAX_LANES = 4096
MAX_VERIFY_CYCLES = 2_000
MAX_SHARDS = 8
MAX_FLEET_WORKLOADS = 64
MAX_FLEET_LANES = 256


#: The startup pre-warm family (secure processors).
WARM_FAMILY = ("two", "diamond", "powerset")


class ReproServer:
    """One toolchain, many concurrent NDJSON clients."""

    def __init__(self, toolchain: Toolchain | None = None, max_workers: int = 4):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.tc = toolchain if toolchain is not None else Toolchain()
        self.max_workers = max_workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-build"
        )
        self._stopping = asyncio.Event()
        self.counters: dict[str, int] = {
            "requests": 0,
            "errors": 0,
            "connections": 0,
            "warmed": 0,
        }

    # -- request plumbing -----------------------------------------------------

    async def handle_line(self, line: str) -> dict:
        """Parse one NDJSON request line and produce the response dict."""
        try:
            req = json.loads(line)
        except json.JSONDecodeError as exc:
            self.counters["requests"] += 1
            self.counters["errors"] += 1
            return {"id": None, "ok": False, "error": f"malformed request JSON: {exc}"}
        return await self.handle_request(req)

    async def handle_request(self, req: Any) -> dict:
        self.counters["requests"] += 1
        rid = req.get("id") if isinstance(req, dict) else None
        try:
            if not isinstance(req, dict):
                raise RequestError("request must be a JSON object with an 'op' field")
            op = req.get("op")
            handler = self._OPS.get(op)
            if handler is None:
                known = ", ".join(sorted(self._OPS))
                raise RequestError(f"unknown op {op!r}; known ops: {known}")
            result = await handler(self, req)
            return {"id": rid, "ok": True, "result": result}
        except (RequestError, SapperError, LatticeError, FileNotFoundError) as exc:
            self.counters["errors"] += 1
            return {"id": rid, "ok": False, "error": str(exc)}
        except Exception as exc:  # a bug must not take the server down
            self.counters["errors"] += 1
            return {"id": rid, "ok": False, "error": f"internal error: {exc!r}"}

    # -- field extraction -----------------------------------------------------

    def _request(self, req: dict, kind: type = commands.DesignRequest, **fields: Any):
        """The :mod:`repro.commands` request *kind* for the JSON object
        *req* (the request validates its own field types)."""
        if "source" in req:
            source = req["source"]
        elif "source_path" in req:
            path = req["source_path"]
            commands.check_type("source_path", path, str)
            try:
                with open(path) as fh:
                    source = fh.read()
            except OSError as exc:
                raise RequestError(f"cannot read source_path {path!r}: {exc}")
        else:
            raise RequestError("request needs 'source' (text) or 'source_path'")
        return kind(
            source=source,
            lattice=req.get("lattice", "two"),
            secure=req.get("secure", True),
            name=req.get("name", "design"),
            **fields,
        )

    @staticmethod
    def _bounded(req: dict, name: str, default: int, lo: int, hi: int) -> int:
        value = req.get(name, default)
        commands.check_type(name, value, int)
        if not lo <= value <= hi:
            raise RequestError(f"field {name!r} must be in [{lo}, {hi}], got {value}")
        return value

    async def _in_pool(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(self._pool, fn, *args)

    # -- ops ------------------------------------------------------------------

    async def _op_ping(self, req: dict) -> dict:
        return {"pong": True}

    async def _run(self, command, request) -> dict:
        """Run *command* on the pool.  When the request's design is
        already compiling, wait for that build on the loop first, so
        waiters hold no pool thread (see :meth:`Toolchain.reserve`)."""
        key = self.tc.compile_key(
            request.source, LATTICES[request.lattice](), request.secure, request.name
        )
        building, reserved = self.tc.reserve(key)
        try:
            if building is not None and not reserved:
                await asyncio.wrap_future(building)
            return (await self._in_pool(command, self.tc, request)).to_json()
        finally:
            if reserved:
                self.tc.release(key, building)

    async def _op_simulate(self, req: dict) -> dict:
        return await self._run(commands.simulate, self._request(
            req,
            commands.SimulateRequest,
            cycles=self._bounded(req, "cycles", 32, 1, MAX_CYCLES),
            lanes=self._bounded(req, "lanes", 1, 1, MAX_LANES),
            inputs=req.get("inputs", {}),
        ))

    async def _op_verify(self, req: dict) -> dict:
        """Three-way cross-validation (reference interpreter vs raw vs
        optimized hardware) -- a mismatch is a verdict, not an error."""
        design = self._request(req)
        if not design.secure:
            raise RequestError(
                "verify covers the secure design only: the Fig. 6 reference "
                "interpreter models the secure variant; drop 'secure': false"
            )
        cycles = self._bounded(req, "cycles", 64, 1, MAX_VERIFY_CYCLES)

        def check() -> dict:
            from repro.sapper.crossval import assert_equivalent

            try:
                assert_equivalent(
                    design.source, LATTICES[design.lattice](), cycles, name=design.name
                )
            except AssertionError as exc:
                return {"equivalent": False, "cycles": cycles, "detail": str(exc)}
            return {"equivalent": True, "cycles": cycles}

        return await self._in_pool(check)

    async def _op_fleet(self, req: dict) -> dict:
        """Run a workload suite on the multiprocess fleet.

        ``workloads`` entries are either names from the built-in
        sec-4.3 suite (``repro.workloads``) or ``{"asm": ...,
        "max_cycles": ...}`` objects; results come back one per entry,
        in request order, plus the merged fleet counters (lane-cycles,
        occupancy, store hits, requeues).
        """
        shards = self._bounded(req, "shards", 2, 1, MAX_SHARDS)
        default_budget = self._bounded(req, "max_cycles", 10_000, 1, MAX_CYCLES)
        lanes = self._bounded(req, "lanes_per_worker", 32, 1, MAX_FLEET_LANES)
        entries = req.get("workloads")
        if not isinstance(entries, list) or not entries:
            raise RequestError("field 'workloads' must be a non-empty list")
        if len(entries) > MAX_FLEET_WORKLOADS:
            raise RequestError(
                f"at most {MAX_FLEET_WORKLOADS} workloads per request, got {len(entries)}"
            )
        from repro.workloads import ALL_WORKLOADS

        jobs: list[tuple[str, str, int]] = []
        for i, entry in enumerate(entries):
            if isinstance(entry, str):
                workload = ALL_WORKLOADS.get(entry)
                if workload is None:
                    known = ", ".join(sorted(ALL_WORKLOADS))
                    raise RequestError(f"unknown workload {entry!r}; known: {known}")
                jobs.append((entry, workload.source, min(workload.max_cycles, default_budget)))
            elif isinstance(entry, dict) and isinstance(entry.get("asm"), str):
                budget = self._bounded(entry, "max_cycles", default_budget, 1, MAX_CYCLES)
                name = entry.get("name")
                jobs.append((name if isinstance(name, str) else f"asm[{i}]",
                             entry["asm"], budget))
            else:
                raise RequestError(
                    f"workloads[{i}] must be a workload name or an object with 'asm'"
                )
        return await self._in_pool(self._run_fleet, jobs, shards, lanes)

    def _run_fleet(self, jobs: list, shards: int, lanes: int) -> dict:
        from repro.fleet import FleetRunner
        from repro.mips.assembler import AsmError, assemble

        try:
            exes = [assemble(source) for _name, source, _budget in jobs]
        except AsmError as exc:
            raise RequestError(f"workload assembly failed: {exc}")
        except Exception as exc:  # the assembler chokes on arbitrary text
            raise RequestError(
                f"workload assembly failed: {type(exc).__name__}: {exc}"
            )
        budgets = [budget for _name, _source, budget in jobs]
        with FleetRunner(
            shards=shards,
            lanes_per_worker=lanes,
            store=self.tc.store,  # share the server's artifact tier when present
            start_method="spawn",  # fork is unsafe under the server's thread pool
        ) as fleet:
            results = fleet.run(exes, max_cycles=budgets)
            merged = fleet.stats.merged()
        return {
            "shards": shards,
            "results": [
                {"name": name, **dataclasses.asdict(res)}
                for (name, _source, _budget), res in zip(jobs, results)
            ],
            "fleet": merged,
        }

    async def _op_stats(self, req: dict) -> dict:
        result = {
            "server": dict(self.counters),
            "toolchain": self.tc.counter_snapshot(),
            "cache": self.tc.cache_info(),
        }
        if self.tc.store is not None:
            result["store"] = self.tc.store.stats()
        return result

    async def _op_shutdown(self, req: dict) -> dict:
        self._stopping.set()
        return {"stopping": True}

    _OPS = {
        "ping": _op_ping,
        "compile": lambda self, req: self._run(commands.compile, self._request(req)),
        "verilog": lambda self, req: self._run(commands.verilog, self._request(req)),
        "synth": lambda self, req: self._run(commands.synth, self._request(req)),
        "check": lambda self, req: self._run(
            commands.check, self._request(req, commands.CheckRequest)
        ),
        "simulate": _op_simulate,
        "fleet": _op_fleet,
        "verify": _op_verify,
        "stats": _op_stats,
        "shutdown": _op_shutdown,
    }

    # -- warm set -------------------------------------------------------------

    async def warm(self, family: tuple[str, ...] = WARM_FAMILY) -> int:
        """Pre-build the secure-processor family through the ``compile``
        op (so early clients share the warm builds, see :meth:`_run`,
        instead of duplicating them).  Returns the number of designs
        warmed; failures are counted, logged, and non-fatal."""
        from repro.proc.design import generate_design

        warmed = 0
        for lattice_name in family:
            if self._stopping.is_set():
                break
            try:
                lattice = LATTICES[lattice_name]()
                source = await self._in_pool(generate_design, lattice)
                request = commands.DesignRequest(
                    source, lattice=lattice_name, name="sapper_mips"
                )
                await self._run(commands.compile, request)
                warmed += 1
                self.counters["warmed"] += 1
            except Exception as exc:
                print(
                    f"repro serve: warm({lattice_name}) failed: {exc}",
                    file=sys.stderr,
                    flush=True,
                )
        return warmed

    # -- transports -----------------------------------------------------------

    async def _client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.counters["connections"] += 1
        try:
            while not self._stopping.is_set():
                try:
                    line = await reader.readline()
                except ValueError:  # line exceeded the stream limit
                    writer.write(
                        (json.dumps({
                            "id": None,
                            "ok": False,
                            "error": f"request line exceeds {MAX_LINE} bytes",
                        }) + "\n").encode()
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                resp = await self.handle_line(line.decode(errors="replace"))
                writer.write((json.dumps(resp) + "\n").encode())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def start_tcp(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT):
        """Bind and return the listening ``asyncio.Server`` (raises
        ``OSError`` -- e.g. address in use -- for the caller to report)."""
        return await asyncio.start_server(self._client, host, port, limit=MAX_LINE)

    async def run_tcp(
        self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT, warm: bool = True
    ) -> None:
        server = await self.start_tcp(host, port)
        sock = server.sockets[0].getsockname()
        print(f"repro serve: listening on {sock[0]}:{sock[1]}", file=sys.stderr, flush=True)
        warm_task = asyncio.create_task(self.warm()) if warm else None
        try:
            async with server:
                await self._stopping.wait()
        finally:
            if warm_task is not None:
                warm_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await warm_task
            self._pool.shutdown(wait=False, cancel_futures=True)

    async def run_stdio(
        self,
        warm: bool = False,
        stdin: TextIO | None = None,
        stdout: TextIO | None = None,
    ) -> None:
        """Serve one client over stdin/stdout (testing, CI, inetd-style)."""
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        if warm:
            await self.warm()
        loop = asyncio.get_running_loop()
        try:
            while not self._stopping.is_set():
                line = await loop.run_in_executor(None, stdin.readline)
                if not line:
                    break
                if not line.strip():
                    continue
                resp = await self.handle_line(line)
                print(json.dumps(resp), file=stdout, flush=True)
        finally:
            self._pool.shutdown(wait=False, cancel_futures=True)
