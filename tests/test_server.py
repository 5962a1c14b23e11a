"""The async toolchain server: protocol, coalescing, transports, CLI.

Four layers are pinned here:

* **Protocol** -- every op answers a well-formed NDJSON response;
  malformed JSON, unknown ops, missing/ill-typed fields, and internal
  bugs all come back as ``{"ok": false, "error": ...}`` with an
  actionable message, never a dropped connection or a traceback.
* **Single-flight coalescing** -- N concurrent requests for the same
  structural key cost exactly one build.  Proven twice: structurally
  (a gate on the toolchain's compile producer counts invocations while
  requests pile up) and end-to-end (the toolchain's own
  ``miss:compile`` counter stays at 1).
* **Transports** -- a real TCP round trip on an ephemeral port with
  concurrent clients, and the stdio loop.
* **CLI error paths** -- occupied port, unusable store directory, and
  bad flag values exit with hints, not stack traces.
"""

import asyncio
import io
import json
import socket
import threading

import pytest

from repro import toolchain as toolchain_mod
from repro.cli import main
from repro.commands import LATTICES, proc_powerset
from repro.sapper import samples
from repro.server import ReproServer
from repro.store import ArtifactStore
from repro.toolchain import Toolchain

COUNTER = """
// a trusted accumulator: lo_out follows acc within the cycle
reg[7:0] acc : L;
input[3:0] lo_in : L;
output[7:0] lo_out : L;

state main : L = {
    acc := acc + lo_in;
    lo_out := acc;
    goto main;
}
"""


def run(coro):
    return asyncio.run(coro)


def ask(server: ReproServer, req: dict) -> dict:
    return run(server.handle_request(req))


@pytest.fixture
def server():
    return ReproServer(max_workers=2)


class TestProtocol:
    def test_ping(self, server):
        resp = ask(server, {"id": 7, "op": "ping"})
        assert resp == {"id": 7, "ok": True, "result": {"pong": True}}

    def test_malformed_json_is_an_error_response(self, server):
        resp = run(server.handle_line("{not json"))
        assert resp["ok"] is False and resp["id"] is None
        assert "malformed request JSON" in resp["error"]
        assert server.counters["errors"] == 1

    def test_non_object_request(self, server):
        resp = run(server.handle_line("[1, 2, 3]"))
        assert resp["ok"] is False
        assert "JSON object" in resp["error"]

    def test_unknown_op_lists_known_ops(self, server):
        resp = ask(server, {"id": 1, "op": "frobnicate"})
        assert resp["ok"] is False
        assert "unknown op 'frobnicate'" in resp["error"]
        for op in ("compile", "simulate", "synth", "verify", "stats"):
            assert op in resp["error"]

    def test_missing_source(self, server):
        resp = ask(server, {"id": 1, "op": "compile"})
        assert resp["ok"] is False
        assert "'source'" in resp["error"]

    def test_unknown_lattice(self, server):
        resp = ask(server, {"id": 1, "op": "compile", "source": COUNTER,
                            "lattice": "mobius"})
        assert resp["ok"] is False
        assert "unknown lattice 'mobius'" in resp["error"]
        assert "two" in resp["error"] and "powerset" in resp["error"]

    def test_ill_typed_fields(self, server):
        for req in (
            {"op": "compile", "source": 42},
            {"op": "compile", "source": COUNTER, "secure": "yes"},
            {"op": "simulate", "source": COUNTER, "cycles": "many"},
            {"op": "simulate", "source": COUNTER, "cycles": True},
            {"op": "simulate", "source": COUNTER, "cycles": 0},
            {"op": "simulate", "source": COUNTER, "inputs": [1]},
            {"op": "simulate", "source": COUNTER, "inputs": {"lo_in": "x"}},
        ):
            resp = ask(server, req)
            assert resp["ok"] is False, req
            assert "internal error" not in resp["error"], resp

    def test_compile_error_is_actionable_not_internal(self, server):
        resp = ask(server, {"id": 1, "op": "compile", "source": "module ???"})
        assert resp["ok"] is False
        assert "internal error" not in resp["error"]

    def test_source_path_missing_file(self, server):
        resp = ask(server, {"id": 1, "op": "compile",
                            "source_path": "/no/such/file.sapper"})
        assert resp["ok"] is False
        assert "source_path" in resp["error"]

    def test_source_path_round_trip(self, server, tmp_path):
        path = tmp_path / "c.sapper"
        path.write_text(COUNTER)
        resp = ask(server, {"id": 1, "op": "compile",
                            "source_path": str(path), "name": "counter"})
        assert resp["ok"], resp
        assert resp["result"]["name"] == "counter"

    def test_internal_bug_is_contained(self, server, monkeypatch):
        async def boom(self, req):
            raise RuntimeError("wires crossed")

        monkeypatch.setitem(ReproServer._OPS, "ping", boom)
        resp = ask(server, {"id": 9, "op": "ping"})
        assert resp == {"id": 9, "ok": False,
                        "error": "internal error: RuntimeError('wires crossed')"}

    def test_compile_reports_module_shape(self, server):
        resp = ask(server, {"id": 1, "op": "compile", "source": COUNTER,
                            "name": "counter"})
        assert resp["ok"], resp
        result = resp["result"]
        assert result["signals"] > 0 and result["regs"] >= 1  # at least acc
        assert "lo_in" in result["inputs"]
        assert "lo_out" in result["outputs"]
        assert len(result["key"]) == 64

    def test_simulate_scalar(self, server):
        resp = ask(server, {"id": 1, "op": "simulate", "source": COUNTER,
                            "name": "counter", "cycles": 5,
                            "inputs": {"lo_in": 2}})
        assert resp["ok"], resp
        result = resp["result"]
        assert result["cycles"] == 5
        assert result["outputs"]["lo_out"] == 10  # 5 accumulations of 2
        assert result["violations"] == 0

    def test_simulate_per_lane_inputs(self, server):
        resp = ask(server, {"id": 1, "op": "simulate", "source": COUNTER,
                            "name": "counter", "cycles": 5, "lanes": 3,
                            "inputs": {"lo_in": [1, 2, 3]}})
        assert resp["ok"], resp
        result = resp["result"]
        assert result["lanes"] == 3
        assert [out["lo_out"] for out in result["outputs"]] == [5, 10, 15]
        assert result["violations"] == [0, 0, 0]

    def test_simulate_lane_length_mismatch(self, server):
        resp = ask(server, {"op": "simulate", "source": COUNTER, "lanes": 2,
                            "inputs": {"lo_in": [1, 2, 3]}})
        assert resp["ok"] is False
        assert "3 lanes" in resp["error"] and "'lanes' is 2" in resp["error"]

    def test_simulate_tdma_flags_violation(self, server):
        resp = ask(server, {"op": "simulate", "source": samples.TDMA,
                            "name": "tdma", "cycles": 8,
                            "inputs": {"hi_in": 3, "lo_in": 1}})
        assert resp["ok"], resp
        assert resp["result"]["violations"] >= 0  # shape only; policy below

    def test_verify_equivalent(self, server):
        resp = ask(server, {"op": "verify", "source": COUNTER, "cycles": 16})
        assert resp["ok"], resp
        assert resp["result"] == {"equivalent": True, "cycles": 16}

    def test_verify_rejects_insecure_and_passes_name(self, server, monkeypatch):
        resp = ask(server, {"op": "verify", "source": COUNTER, "secure": False})
        assert resp["ok"] is False
        assert "secure design only" in resp["error"], resp
        import repro.sapper.crossval as crossval

        seen = []
        original = crossval.CrossValidation.build.__func__

        def build(cls, source, lattice, name="design", optimized=True):
            seen.append(name)
            return original(cls, source, lattice, name, optimized)

        monkeypatch.setattr(crossval.CrossValidation, "build", classmethod(build))
        resp = ask(server, {"op": "verify", "source": COUNTER, "name": "counter",
                            "cycles": 4})
        assert resp["ok"], resp
        assert seen == ["counter"]

    def test_synth_reports_cells(self, server):
        resp = ask(server, {"op": "synth", "source": COUNTER, "name": "counter"})
        assert resp["ok"], resp
        cells = resp["result"]["cells"]
        assert cells["dff"] > 0
        assert set(resp["result"]["summary"])

    def test_verilog_round_trip(self, server):
        resp = ask(server, {"op": "verilog", "source": COUNTER, "name": "counter"})
        assert resp["ok"], resp
        assert "module counter" in resp["result"]["verilog"]

    def test_stats_exposes_all_tiers(self, tmp_path):
        server = ReproServer(
            toolchain=Toolchain(store=ArtifactStore(tmp_path)), max_workers=2
        )
        ask(server, {"op": "compile", "source": COUNTER, "name": "counter"})
        resp = ask(server, {"op": "stats"})
        result = resp["result"]
        assert result["server"]["requests"] == 2
        assert result["toolchain"].get("miss:compile") == 1
        assert result["cache"].get("compile") == 1
        assert result["store"]["writes"] >= 1

    def test_shutdown_sets_stopping(self, server):
        resp = ask(server, {"op": "shutdown"})
        assert resp == {"id": None, "ok": True, "result": {"stopping": True}}
        assert server._stopping.is_set()

    def test_powerset_lattice_served(self, server):
        resp = ask(server, {"op": "compile", "source": COUNTER,
                            "lattice": "powerset", "name": "counter"})
        assert resp["ok"], resp

    def test_proc_powerset_has_processor_bottom(self):
        lat = proc_powerset()
        assert lat.bottom == "L"
        assert lat.leq("L", "{u,k}")
        assert set(LATTICES) == {"two", "diamond", "powerset"}


@pytest.fixture
def gated_compile(monkeypatch):
    """A gate on the toolchain's compile producer: builds pile up behind
    ``gate.release`` so coalescing is observable deterministically, and
    every *actual* compile is recorded in ``gate.calls``.  Designs named
    in ``gate.free`` pass without waiting."""
    real = toolchain_mod.compile_program

    class Gate:
        release = threading.Event()
        calls: list[str] = []
        free: set[str] = set()
        lock = threading.Lock()

    def gated(info, lattice, secure=True, name="design"):
        with Gate.lock:
            Gate.calls.append(name)
        if name not in Gate.free:
            assert Gate.release.wait(timeout=30), "gate never released"
        return real(info, lattice, secure=secure, name=name)

    monkeypatch.setattr(toolchain_mod, "compile_program", gated)
    yield Gate
    Gate.release.set()  # never leave a pool thread parked on a failed test


async def _coalesced(server: ReproServer, n: int, timeout: float = 20) -> None:
    """Wait until *n* callers have coalesced onto a compile in flight."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while server.tc.counter_snapshot().get("coalesced:compile", 0) < n:
        assert loop.time() < deadline, server.tc.counter_snapshot()
        await asyncio.sleep(0.005)


class TestCoalescing:
    def test_identical_requests_cost_one_build(self, gated_compile):
        async def scenario():
            server = ReproServer(max_workers=2)
            req = {"op": "compile", "source": COUNTER, "name": "counter"}
            tasks = [asyncio.create_task(server.handle_request(dict(req, id=i)))
                     for i in range(8)]
            # let every request reach the toolchain's single-flight layer
            # before opening the gate: one builds, seven wait on the loop
            await _coalesced(server, 7)
            gated_compile.release.set()
            resps = await asyncio.gather(*tasks)
            return server, resps

        server, resps = run(scenario())
        assert all(r["ok"] for r in resps), resps
        assert gated_compile.calls == ["counter"]
        counters = server.tc.counter_snapshot()
        assert counters.get("coalesced:compile") == 7
        assert counters.get("miss:compile") == 1
        keys = {r["result"]["key"] for r in resps}
        assert len(keys) == 1  # everyone got the same artifact

    def test_waiters_leave_the_pool_to_other_designs(self, gated_compile):
        """Four identical requests whose compile is gated hold one pool
        thread between them, so a distinct design still completes on the
        default four-thread pool while they are pending."""
        gated_compile.free.add("other")

        async def scenario():
            server = ReproServer()
            req = {"op": "compile", "source": COUNTER, "name": "counter"}
            held = [asyncio.create_task(server.handle_request(dict(req, id=i)))
                    for i in range(4)]
            await _coalesced(server, 3)
            other = await asyncio.wait_for(server.handle_request(
                {"id": 9, "op": "simulate", "source": COUNTER, "name": "other"}
            ), timeout=30)
            pending = [not task.done() for task in held]
            gated_compile.release.set()
            return other, pending, await asyncio.gather(*held)

        other, pending, resps = run(scenario())
        assert other["ok"], other
        assert all(pending)
        assert all(r["ok"] for r in resps), resps
        assert sorted(gated_compile.calls) == ["counter", "other"]

    def test_distinct_keys_all_progress_under_bounded_pool(self, gated_compile):
        """More distinct designs than worker threads: all complete, no
        deadlock, and none coalesce onto each other."""

        async def scenario():
            server = ReproServer(max_workers=2)
            gated_compile.release.set()  # no gating: just bounded-pool progress
            sources = [f"// variant {i}\n" + COUNTER for i in range(6)]
            tasks = [
                asyncio.create_task(server.handle_request(
                    {"id": i, "op": "compile", "source": src, "name": f"c{i}"}))
                for i, src in enumerate(sources)
            ]
            return server, await asyncio.wait_for(asyncio.gather(*tasks), timeout=60)

        server, resps = run(scenario())
        assert all(r["ok"] for r in resps), resps
        assert sorted(gated_compile.calls) == [f"c{i}" for i in range(6)]
        assert server.tc.counter_snapshot().get("coalesced:compile") is None
        assert len({r["result"]["key"] for r in resps}) == 6

    def test_single_flight_proven_by_toolchain_counters(self):
        """End to end, without stubs: 5 concurrent identical compiles
        reach the real toolchain exactly once.  The four that coalesced
        onto that build each read the finished design from the memory
        cache once when their own command runs."""

        async def scenario():
            server = ReproServer(max_workers=4)
            req = {"op": "compile", "source": COUNTER, "name": "counter"}
            resps = await asyncio.gather(
                *[server.handle_request(dict(req, id=i)) for i in range(5)]
            )
            return server, resps

        server, resps = run(scenario())
        assert all(r["ok"] for r in resps)
        counters = server.tc.counter_snapshot()
        assert counters.get("miss:compile") == 1, counters
        assert counters.get("coalesced:compile") == 4, counters
        assert counters.get("hit:compile") == 4, counters

    def test_sequential_requests_hit_the_memory_cache(self, server):
        req = {"op": "compile", "source": COUNTER, "name": "counter"}
        ask(server, dict(req, id=1))
        ask(server, dict(req, id=2))
        counters = server.tc.counter_snapshot()
        assert counters.get("miss:compile") == 1
        assert counters.get("hit:compile") == 1
        assert counters.get("coalesced:compile") is None  # not in flight anymore

    def test_warm_family_prebuilds_through_single_flight(self, tmp_path):
        async def scenario():
            server = ReproServer(
                toolchain=Toolchain(store=ArtifactStore(tmp_path)), max_workers=2
            )
            warmed = await server.warm(("two",))
            # a client asking for the warmed design afterwards hits memory
            from repro.proc.design import generate_design

            source = generate_design(LATTICES["two"]())
            resp = await server.handle_request(
                {"op": "compile", "source": source, "name": "sapper_mips"}
            )
            return server, warmed, resp

        server, warmed, resp = run(scenario())
        assert warmed == 1 and server.counters["warmed"] == 1
        assert resp["ok"]
        counters = server.tc.counter_snapshot()
        assert counters.get("miss:compile") == 1
        assert counters.get("hit:compile") == 1


def _tcp_ask(host: str, port: int, requests: list[dict]) -> list[dict]:
    with socket.create_connection((host, port), timeout=30) as sock:
        fh = sock.makefile("rwb")
        out = []
        for req in requests:
            fh.write((json.dumps(req) + "\n").encode())
            fh.flush()
            out.append(json.loads(fh.readline()))
        return out


class TestTcpTransport:
    def test_concurrent_clients_over_tcp(self):
        async def scenario():
            server = ReproServer(max_workers=2)
            listener = await server.start_tcp("127.0.0.1", 0)
            host, port = listener.sockets[0].getsockname()[:2]
            loop = asyncio.get_running_loop()

            def client(i):
                return _tcp_ask(host, port, [
                    {"id": i, "op": "compile", "source": COUNTER, "name": "counter"},
                    {"id": 100 + i, "op": "ping"},
                ])

            async with listener:
                results = await asyncio.gather(
                    *[loop.run_in_executor(None, client, i) for i in range(4)]
                )
                stats = await server.handle_request({"op": "stats"})
            return server, results, stats

        server, results, stats = run(scenario())
        for i, (compile_resp, ping_resp) in enumerate(results):
            assert compile_resp["ok"] and compile_resp["id"] == i
            assert ping_resp["result"] == {"pong": True}
        assert server.counters["connections"] == 4
        assert server.tc.counter_snapshot().get("miss:compile") == 1
        assert stats["result"]["server"]["requests"] >= 9

    def test_oversized_line_is_rejected_not_fatal(self):
        async def scenario():
            server = ReproServer(max_workers=1)
            listener = await server.start_tcp("127.0.0.1", 0)
            host, port = listener.sockets[0].getsockname()[:2]
            loop = asyncio.get_running_loop()

            def client():
                from repro.server import MAX_LINE

                with socket.create_connection((host, port), timeout=30) as sock:
                    fh = sock.makefile("rwb")
                    fh.write(b'{"pad": "' + b"x" * (MAX_LINE + 16) + b'"}\n')
                    fh.flush()
                    return json.loads(fh.readline())

            async with listener:
                return await loop.run_in_executor(None, client)

        resp = run(scenario())
        assert resp["ok"] is False
        assert "exceeds" in resp["error"]


class TestStdioTransport:
    def test_stdio_round_trip(self):
        requests = "\n".join([
            json.dumps({"id": 1, "op": "ping"}),
            "",  # blank lines are skipped
            json.dumps({"id": 2, "op": "compile", "source": COUNTER,
                        "name": "counter"}),
            "this is not json",
            json.dumps({"id": 3, "op": "shutdown"}),
        ]) + "\n"
        stdout = io.StringIO()
        server = ReproServer(max_workers=1)
        run(server.run_stdio(stdin=io.StringIO(requests), stdout=stdout))
        lines = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [r["id"] for r in lines] == [1, 2, None, 3]
        assert lines[1]["ok"] and lines[1]["result"]["name"] == "counter"
        assert "malformed request JSON" in lines[2]["error"]


class TestCliErrorPaths:
    def test_occupied_port_exits_with_hint(self):
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            with pytest.raises(SystemExit) as exc:
                main(["serve", "--port", str(port), "--no-warm"])
        message = str(exc.value)
        assert f"cannot listen on 127.0.0.1:{port}" in message
        assert "--port" in message and "--stdio" in message
        assert "Traceback" not in message

    def test_unusable_store_dir_exits_with_hint(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("in the way")
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--stdio", "--store", str(blocker / "store")])
        message = str(exc.value)
        assert "not usable" in message
        assert "writable directory" in message

    def test_store_permission_error_exits_with_hint(self, tmp_path, monkeypatch):
        # running as root, mode bits are ignored; simulate the probe failing
        def deny(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr("repro.store.tempfile.mkstemp", deny)
        with pytest.raises(SystemExit) as exc:
            main(["compile", "x.sapper", "--store", str(tmp_path / "denied")])
        assert "permissions" in str(exc.value)

    def test_bad_worker_count_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--workers", "0"])
        assert exc.value.code == 2  # argparse usage error, pre-server
        assert ">= 1" in capsys.readouterr().err

    def test_serve_stdio_end_to_end(self, tmp_path, capsys, monkeypatch):
        requests = json.dumps({"id": 1, "op": "ping"}) + "\n" + \
            json.dumps({"id": 2, "op": "shutdown"}) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        rc = main(["serve", "--stdio", "--no-warm",
                   "--store", str(tmp_path / "store")])
        assert rc == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines[0] == {"id": 1, "ok": True, "result": {"pong": True}}
        assert lines[1]["result"] == {"stopping": True}


WORKLOAD_ASM = """
.org 0x400
    li   $t9, 0x40000000
    li   $t1, {k}
    sw   $t1, 0($t9)
    li   $t9, 0x40000004
    sw   $zero, 0($t9)
"""


class TestFleetOp:
    """The ``fleet`` op: a workload suite sharded across real worker
    processes over the server's artifact store."""

    def test_fleet_runs_asm_suite(self, tmp_path):
        srv = ReproServer(
            toolchain=Toolchain(store=ArtifactStore(tmp_path / "store")),
            max_workers=2,
        )
        workloads = [
            {"asm": WORKLOAD_ASM.format(k=k), "max_cycles": 600, "name": f"w{k}"}
            for k in range(3)
        ]
        resp = ask(srv, {"id": 1, "op": "fleet", "workloads": workloads,
                         "shards": 2, "lanes_per_worker": 2})
        assert resp["ok"], resp
        result = resp["result"]
        assert result["shards"] == 2
        assert [r["name"] for r in result["results"]] == ["w0", "w1", "w2"]
        assert [r["outputs"] for r in result["results"]] == [[0], [1], [2]]
        assert all(r["halted"] for r in result["results"])
        assert all(r["violations"] == 0 for r in result["results"])
        merged = result["fleet"]
        assert merged["shards"] == 2 and not merged["degraded"]

    def test_fleet_named_workload_budget_capped(self, tmp_path):
        srv = ReproServer(
            toolchain=Toolchain(store=ArtifactStore(tmp_path / "store")),
            max_workers=2,
        )
        resp = ask(srv, {"id": 2, "op": "fleet", "workloads": ["specrand"],
                         "max_cycles": 40, "shards": 1})
        assert resp["ok"], resp
        (res,) = resp["result"]["results"]
        assert res["name"] == "specrand"
        assert res["cycles"] == 40 and not res["halted"]

    def test_fleet_validation_errors(self, server):
        for req in (
            {"op": "fleet"},
            {"op": "fleet", "workloads": []},
            {"op": "fleet", "workloads": [42]},
            {"op": "fleet", "workloads": ["not-a-workload"]},
            {"op": "fleet", "workloads": [{"no_asm": True}]},
            {"op": "fleet", "workloads": [{"asm": "x"}], "shards": "many"},
        ):
            resp = ask(server, req)
            assert resp["ok"] is False, req
            assert "internal error" not in resp["error"], resp

    def test_fleet_unknown_workload_lists_known(self, server):
        resp = ask(server, {"op": "fleet", "workloads": ["frob"]})
        assert resp["ok"] is False
        assert "specrand" in resp["error"] and "sha" in resp["error"]

    def test_fleet_assembly_error_is_actionable(self, server):
        resp = ask(server, {"op": "fleet",
                            "workloads": [{"asm": "not an instruction"}]})
        assert resp["ok"] is False
        assert "assembly failed" in resp["error"]
