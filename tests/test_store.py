"""The persistent artifact store: addressing, round trips, durability.

Three contracts are pinned here:

* **Addressing** -- structural keys canonicalize to stable digests
  across store instances; identity-keyed components are refused, so an
  ``id()`` can never leak into a file name another process would trust.
* **Round trip** (Hypothesis) -- a design persisted by one toolchain
  and reloaded by a *fresh* toolchain over a fresh store instance (the
  in-process stand-in for a new process) simulates bit-identically to a
  never-persisted toolchain, shadow-tag state included -- the lockstep
  pattern of tests/test_vector.py applied across the persistence
  boundary.
* **Durability** (fault injection) -- truncated, bit-flipped,
  version-bumped, and garbage entries are never served and never raise:
  the toolchain recomputes, the poisoned file is quarantined and then
  rewritten with a fresh, loadable entry.
"""

import builtins
import marshal
import os
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.hdl.batch as batch_mod
import repro.hdl.passes as passes_mod
from repro.hdl import HAVE_NUMPY, Simulator
from repro.lattice import two_level
from repro.sapper import samples
from repro.sapper.analysis import analyze
from repro.sapper.parser import parse_program
from repro.sapper.crossval import encode_inputs
from repro.store import (
    MISS,
    STORE_MAGIC,
    STORE_VERSION,
    ArtifactStore,
    StoreError,
    UnstableKey,
    digest_key,
    persistable_key,
)
from repro.toolchain import Toolchain, source_key

from tests import strategies
from tests.test_batch_sim import FSM1_SRC


class TestAddressing:
    def test_digest_is_stable_across_instances(self, tmp_path):
        key = ("compile", ("text", "ab" * 32), (("L", "H"), (("L", "H"),)), True, "x")
        a = ArtifactStore(tmp_path / "a")
        b = ArtifactStore(tmp_path / "b")
        assert digest_key(key) == digest_key(key)
        assert a.path_for(key).name == b.path_for(key).name
        assert a.path_for(key).parent.parent.name == "compile"

    def test_distinct_keys_get_distinct_paths(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.path_for(("a", 1)) != store.path_for(("a", 2))
        # canonical encoding is injective: these must not collide
        assert digest_key(("s", "ab")) != digest_key(("s", "a", "b"))
        assert digest_key(("i", 12)) != digest_key(("i", 1, 2))
        assert digest_key((True,)) != digest_key((1,))

    def test_persistable_key_accepts_structural_atoms(self):
        assert persistable_key(("compile", ("text", "d" * 64), 3, True, None))

    def test_persistable_key_refuses_identity_components(self):
        info = analyze(parse_program(samples.TDMA, "tdma"), two_level())
        key = ("compile", source_key(info), True)
        assert isinstance(key[1][1], UnstableKey)
        assert not persistable_key(key)
        with pytest.raises(TypeError):
            digest_key(key)

    def test_ast_sources_key_structurally(self):
        p1 = parse_program(samples.TDMA, "tdma")
        p2 = parse_program(samples.TDMA, "tdma")
        assert p1 is not p2
        assert source_key(p1) == source_key(p2)
        assert persistable_key(source_key(p1))


class TestStoreBasics:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = ("stage", "payload", 7)
        assert store.get(key, MISS) is MISS
        assert store.put(key, {"a": [1, 2, 3]})
        assert store.get(key) == {"a": [1, 2, 3]}
        assert store.counters["writes"] == 1
        assert store.counters["hits"] == 1
        assert store.counters["misses"] == 1

    def test_stored_none_is_distinguishable_from_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(("s", 1), None)
        assert store.get(("s", 1), MISS) is None
        assert store.get(("s", 2), MISS) is MISS

    def test_overwrite_replaces_atomically(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(("s", 1), "old")
        store.put(("s", 1), "new")
        assert store.get(("s", 1)) == "new"
        assert store.entry_count() == 1

    def test_unusable_root_raises_store_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(StoreError, match="not usable"):
            ArtifactStore(blocker / "store")

    def test_permission_denied_raises_store_error(self, tmp_path, monkeypatch):
        # root ignores mode bits, so simulate the EACCES probe failure
        def deny(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr("repro.store.tempfile.mkstemp", deny)
        with pytest.raises(StoreError, match="not usable"):
            ArtifactStore(tmp_path / "denied")

    def test_put_failure_degrades_gracefully(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)

        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.store.tempfile.mkstemp", fail)
        assert store.put(("s", 1), "value") is False
        assert store.counters["write_errors"] == 1
        assert store.get(("s", 1), MISS) is MISS


def _fresh_toolchain(tmp_path) -> Toolchain:
    """A toolchain over a *new* store instance on the same directory --
    the in-process simulation of a separate process warm-starting."""
    return Toolchain(store=ArtifactStore(tmp_path / "store"))


def _lockstep(module_a, module_b, design, traces, cycles):
    """Two optimized modules must agree cycle-for-cycle on every output
    port, register (architectural and shadow-tag), and array."""
    sim_a = Simulator(module_a, optimize=False)
    sim_b = Simulator(module_b, optimize=False)
    lanes = len(traces)
    for cycle in range(cycles):
        for lane in range(lanes):
            inputs = encode_inputs(design, traces[lane][cycle % len(traces[lane])])
            assert sim_a.step(inputs) == sim_b.step(inputs), f"cycle {cycle} diverged"
    assert sim_a.regs == sim_b.regs
    assert sim_a.arrays == sim_b.arrays


class TestRoundTripProperty:
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(program=strategies.programs(), data=st.data())
    def test_persisted_design_simulates_bit_identically(self, program, data, tmp_path_factory):
        """Random design -> persist -> reload via a fresh store -> the
        reloaded module simulates bit-identically to a never-persisted
        compile of the same program."""
        tmp_path = tmp_path_factory.mktemp("roundtrip")
        lat = two_level()
        trace = data.draw(strategies.stimulus_traces(cycles=4), label="trace")

        writer = _fresh_toolchain(tmp_path)
        design_w = writer.compile(program, lat, name="rt")
        module_w = writer.optimize(design_w)
        assert writer.counter_snapshot().get("store_miss:compile") == 1

        reader = _fresh_toolchain(tmp_path)
        design_r = reader.compile(program, lat, name="rt")
        module_r = reader.optimize(design_r)
        counters = reader.counter_snapshot()
        assert counters.get("store_hit:compile") == 1, counters
        assert counters.get("store_hit:optimize") == 1, counters
        assert design_r is not design_w  # genuinely reloaded, not aliased

        never_persisted = Toolchain()
        module_n = never_persisted.optimize(never_persisted.compile(program, lat, name="rt"))

        _lockstep(module_r, module_w, design_r, [trace], cycles=4)
        _lockstep(module_r, module_n, design_r, [trace], cycles=4)

    def test_backend_artifacts_round_trip(self, tmp_path):
        writer = _fresh_toolchain(tmp_path)
        design = writer.compile(samples.TDMA, two_level(), name="tdma")
        rpt = writer.synthesize(design)
        text = writer.verilog(design)

        reader = _fresh_toolchain(tmp_path)
        design_r = reader.compile(samples.TDMA, two_level(), name="tdma")
        assert reader.synthesize(design_r).summary() == rpt.summary()
        assert reader.verilog(design_r) == text
        counters = reader.counter_snapshot()
        assert counters.get("store_hit:synth") == 1
        assert counters.get("store_hit:verilog") == 1

    def test_pass_pipeline_change_misses(self, tmp_path, monkeypatch):
        """Optimized modules and the backend artifacts built from them key
        on the pass pipeline's source digest: a store written by another
        pipeline never serves its module, report or Verilog."""
        writer = _fresh_toolchain(tmp_path)
        design = writer.compile(samples.TDMA, two_level(), name="tdma")
        writer.synthesize(design)
        writer.verilog(design)
        monkeypatch.setattr(passes_mod, "PASSES_DIGEST", "0" * len(passes_mod.PASSES_DIGEST))

        warm = _fresh_toolchain(tmp_path)
        design_w = warm.compile(samples.TDMA, two_level(), name="tdma")
        warm.synthesize(design_w)
        warm.verilog(design_w)
        counters = warm.counter_snapshot()
        assert counters.get("store_hit:compile") == 1, counters
        assert counters.get("store_miss:optimize") == 1, counters
        for stage in ("optimize", "synth", "verilog"):
            assert f"store_hit:{stage}" not in counters, counters

    def test_object_keyed_sources_stay_out_of_the_store(self, tmp_path):
        tc = _fresh_toolchain(tmp_path)
        info = analyze(parse_program(samples.TDMA, "tdma"), two_level())
        design = tc.compile(info, two_level(), name="tdma")
        assert design.reg_tag
        # the ProgramInfo source cannot cross a process boundary: the
        # compile stage must not have written anything for it
        assert not list((tmp_path / "store").glob("compile/**/*.art"))


def _populate(tmp_path):
    """Compile + optimize TDMA through a stored toolchain; return the
    store directory and the reference (never-persisted) module."""
    tc = _fresh_toolchain(tmp_path)
    design = tc.compile(samples.TDMA, two_level(), name="tdma")
    tc.optimize(design)
    reference = Toolchain()
    ref_module = reference.optimize(reference.compile(samples.TDMA, two_level(), name="tdma"))
    return tmp_path / "store", ref_module


def _entries(store_dir):
    files = sorted(store_dir.glob("*/*/*.art"))
    assert files, "expected persisted artifacts"
    return files


def _assert_recovers(tmp_path, corrupt_counter="corrupt"):
    """A fresh toolchain over the damaged store must recompute (never
    raise, never serve poison), quarantine the bad entries, and rewrite
    them so a third toolchain loads clean artifacts again."""
    store = ArtifactStore(tmp_path / "store")
    tc = Toolchain(store=store)
    design = tc.compile(samples.TDMA, two_level(), name="tdma")
    module = tc.optimize(design)
    counters = tc.counter_snapshot()
    assert counters.get("store_hit:compile") is None, "poisoned entry was served"
    assert store.counters[corrupt_counter] >= 1, store.counters

    # the rewritten entries serve a clean third process
    tc3 = _fresh_toolchain(tmp_path)
    design3 = tc3.compile(samples.TDMA, two_level(), name="tdma")
    module3 = tc3.optimize(design3)
    assert tc3.counter_snapshot().get("store_hit:compile") == 1
    return design, module, module3


class TestDurabilityFaultInjection:
    def test_truncated_entries_recompute(self, tmp_path):
        store_dir, ref = _populate(tmp_path)
        for path in _entries(store_dir):
            blob = path.read_bytes()
            path.write_bytes(blob[: len(blob) // 2])
        design, module, module3 = _assert_recovers(tmp_path)
        _lockstep(module, ref, design, [[]], cycles=0)  # construction sanity
        sim_a, sim_b = Simulator(module, optimize=False), Simulator(ref, optimize=False)
        for _ in range(16):
            assert sim_a.step({"hi_in": 3}) == sim_b.step({"hi_in": 3})

    def test_zero_length_entries_recompute(self, tmp_path):
        store_dir, _ = _populate(tmp_path)
        for path in _entries(store_dir):
            path.write_bytes(b"")
        _assert_recovers(tmp_path)

    def test_bit_flip_in_payload_recomputes(self, tmp_path):
        store_dir, ref = _populate(tmp_path)
        for path in _entries(store_dir):
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0x40  # flip one payload bit
            path.write_bytes(bytes(blob))
        design, module, _ = _assert_recovers(tmp_path)
        sim_a, sim_b = Simulator(module, optimize=False), Simulator(ref, optimize=False)
        for _ in range(16):
            assert sim_a.step({"hi_in": 3}) == sim_b.step({"hi_in": 3})

    def test_bit_flip_in_header_digest_recomputes(self, tmp_path):
        store_dir, _ = _populate(tmp_path)
        for path in _entries(store_dir):
            blob = bytearray(path.read_bytes())
            blob[8] ^= 0x01  # inside the stored SHA-256 field
            path.write_bytes(bytes(blob))
        _assert_recovers(tmp_path)

    def test_version_bump_is_stale_not_crash(self, tmp_path):
        store_dir, _ = _populate(tmp_path)
        import struct

        for path in _entries(store_dir):
            blob = bytearray(path.read_bytes())
            struct.pack_into(">H", blob, len(STORE_MAGIC), STORE_VERSION + 1)
            path.write_bytes(bytes(blob))
        _assert_recovers(tmp_path, corrupt_counter="stale")

    def test_garbage_magic_recomputes(self, tmp_path):
        store_dir, _ = _populate(tmp_path)
        for path in _entries(store_dir):
            path.write_bytes(b"GARBAGE-NOT-AN-ARTIFACT" * 100)
        _assert_recovers(tmp_path)

    def test_quarantine_leaves_postmortem_copy(self, tmp_path):
        store_dir, _ = _populate(tmp_path)
        paths = _entries(store_dir)
        for path in paths:
            path.write_bytes(b"broken")
        _assert_recovers(tmp_path)
        for path in paths:
            assert path.with_suffix(".corrupt").exists()
            assert path.exists()  # rewritten live entry alongside

    def test_server_survives_corrupt_store(self, tmp_path):
        """The serving layer on top of a damaged store answers requests
        normally (recompute path), never a traceback/teardown."""
        import asyncio

        store_dir, _ = _populate(tmp_path)
        for path in _entries(store_dir):
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))

        from repro.server import ReproServer

        async def run():
            server = ReproServer(toolchain=_fresh_toolchain(tmp_path), max_workers=2)
            resp = await server.handle_request(
                {"id": 1, "op": "simulate", "source": samples.TDMA,
                 "name": "tdma", "cycles": 8, "inputs": {"hi_in": 3}}
            )
            assert resp["ok"], resp
            assert resp["result"]["cycles"] == 8
            stats = await server.handle_request({"id": 2, "op": "stats"})
            assert stats["result"]["store"]["corrupt"] >= 1
            return resp

        asyncio.run(run())


class TestStoreHygiene:
    def test_quarantined_entries_not_counted_live(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(("s", 1), "v")
        path = next(iter(store.entries()))
        path.write_bytes(b"junk")
        assert store.get(("s", 1), MISS) is MISS
        assert store.entry_count() == 0
        assert os.path.exists(path.with_suffix(".corrupt"))

    def test_stats_snapshot(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(("s", 1), "v")
        store.get(("s", 1))
        store.get(("s", 2))
        stats = store.stats()
        assert stats["writes"] == 1 and stats["hits"] == 1
        assert stats["misses"] == 1 and stats["entries"] == 1


# ---------------------------------------------------------------------------
# Concurrent multi-process access (the fleet's operating regime: one
# store directory shared by a parent and N worker processes).


def _race_put(root, payload, barrier, rounds):
    store = ArtifactStore(root)
    barrier.wait()
    for _ in range(rounds):
        store.put(("race", "entry"), payload)


def _race_compile(root, q):
    try:
        tc = Toolchain(store=ArtifactStore(root))
        design = tc.compile(samples.TDMA, two_level(), name="tdma")
        tc.optimize(design)
        q.put(("ok", tc.counter_snapshot()))
    except Exception as exc:  # pragma: no cover - failure reporting
        q.put(("err", repr(exc)))


class TestConcurrentAccess:
    """Two processes racing on the same digest must never produce a
    torn read: the atomic temp-file + rename publish means a reader
    sees a complete entry from one writer or the other (or a miss),
    and the corrupt counter stays at zero."""

    def test_racing_writers_never_tear(self, tmp_path):
        import multiprocessing as mp

        root = str(tmp_path / "store")
        payload_a = {"who": "a", "blob": "A" * 65536}
        payload_b = {"who": "b", "blob": "B" * 65536}
        ctx = mp.get_context("fork")
        barrier = ctx.Barrier(3)
        writers = [
            ctx.Process(target=_race_put, args=(root, payload_a, barrier, 25)),
            ctx.Process(target=_race_put, args=(root, payload_b, barrier, 25)),
        ]
        for p in writers:
            p.start()
        reader = ArtifactStore(root)
        barrier.wait()
        seen = 0
        while any(p.is_alive() for p in writers) or seen == 0:
            value = reader.get(("race", "entry"), MISS)
            if value is not MISS:
                seen += 1
                # a torn read would mix writers or truncate the blob
                assert value in (payload_a, payload_b), value.get("who")
        for p in writers:
            p.join(timeout=30)
            assert p.exitcode == 0
        final = reader.get(("race", "entry"))
        assert final in (payload_a, payload_b)
        assert reader.counters["corrupt"] == 0
        assert seen >= 1

    def test_concurrent_toolchains_publish_same_design(self, tmp_path):
        """Two fresh processes compile + optimize the same design over
        one cold store at the same time.  Both must succeed (the race
        is benign: last atomic publish wins) and a third process then
        warm-starts purely from the store."""
        import multiprocessing as mp

        root = str(tmp_path / "store")
        ctx = mp.get_context("fork")
        q = ctx.Queue()
        procs = [
            ctx.Process(target=_race_compile, args=(root, q)) for _ in range(2)
        ]
        for p in procs:
            p.start()
        outcomes = [q.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=30)
        assert [kind for kind, _ in outcomes] == ["ok", "ok"], outcomes

        tc3 = Toolchain(store=ArtifactStore(root))
        design = tc3.compile(samples.TDMA, two_level(), name="tdma")
        tc3.optimize(design)
        counters = tc3.counter_snapshot()
        assert counters.get("store_hit:compile") == 1, counters
        assert counters.get("store_hit:optimize") == 1, counters
        assert tc3.store.counters["corrupt"] == 0


# ---------------------------------------------------------------------------
# The codegen tier: the batched state layout (``layout``) and the
# state-folded bodies (``fold``; the generic step is the empty binding's)
# persisted beside the compile/optimize artifacts.

CODEGEN_ENGINES = ["swar"] + (["vector"] if HAVE_NUMPY else [])
CODEGEN_STEPS = 300
CODEGEN_LANES = 4


def _codegen_run(tc, which, engine, steps=CODEGEN_STEPS):
    """Source to *steps* cycles of a *which* batched simulator on *tc*;
    returns the simulator and its outputs.  "tdma" and "proc" lanes
    agree on a dispatch register every step (folded bodies only);
    "fsm" lanes also disagree on every one (the generic step runs)."""
    if which == "proc":
        from repro.mips.assembler import assemble
        from repro.proc.machine import compile_processor
        from repro.workloads import ALL_WORKLOADS

        design = compile_processor(two_level(), True, toolchain=tc)
        sim = tc.batch_simulator(design, CODEGEN_LANES, engine=engine)
        memory = assemble(ALL_WORKLOADS["specrand"].source).as_memory()
        for lane in range(CODEGEN_LANES):
            sim.load_array(lane, "memory", dict(memory))
        inputs = None
    elif which == "fsm":
        design = tc.compile(FSM1_SRC, two_level(), name="fsm1")
        sim = tc.batch_simulator(design, CODEGEN_LANES, engine=engine)
        inputs = [{"x": 3 + 50 * lane, "x__tag": 0} for lane in range(CODEGEN_LANES)]
    else:
        design = tc.compile(samples.TDMA, two_level(), name="tdma")
        sim = tc.batch_simulator(design, CODEGEN_LANES, engine=engine)
        inputs = [
            {"hi_in": 3 + lane, "hi_in__tag": lane & 1, "lo_in": 2 * lane, "lo_in__tag": 0}
            for lane in range(CODEGEN_LANES)
        ]
    return sim, [sim.step(inputs) for _ in range(steps)]


def _bodies(sim):
    return {combo: body.source for combo, body in sim._entry.bodies.items()}


@contextmanager
def _codegen_calls():
    """Count batched emission (code generator construction), builtin
    ``compile()`` and ``_fold_module`` calls inside the block."""
    calls = {"emit": 0, "compile": 0, "fold": 0}
    real_init, real_compile, real_fold = (
        batch_mod._BatchCodeGen.__init__, builtins.compile, batch_mod._fold_module,
    )

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    with mock.patch.object(batch_mod._BatchCodeGen, "__init__", counted("emit", real_init)), \
            mock.patch.object(builtins, "compile", counted("compile", real_compile)), \
            mock.patch.object(batch_mod, "_fold_module", counted("fold", real_fold)):
        yield calls


@pytest.fixture(scope="module")
def codegen_env(tmp_path_factory):
    """A store-less toolchain (the cold reference) and a writer
    toolchain over a store directory, shared by the codegen-tier tests
    so each design compiles once per side."""
    root = tmp_path_factory.mktemp("codegen") / "store"
    return Toolchain(), Toolchain(store=ArtifactStore(root)), root


class _BadMarshal:
    """Pickles like a stored step module whose marshal bytes are junk."""

    def __reduce__(self):
        return batch_mod._load_code, (b"\x00not marshal data",)


class _NotCode:
    """Pickles like a stored step module that marshals a non-code value."""

    def __reduce__(self):
        return batch_mod._load_code, (marshal.dumps(42),)


class TestCodegenTier:
    @pytest.mark.parametrize("engine", CODEGEN_ENGINES)
    @pytest.mark.parametrize("which", ["tdma", "proc", "fsm"])
    def test_warm_simulator_matches_cold(self, codegen_env, which, engine):
        """A simulator warm-started from the store runs no emission, no
        compile() and no fold, and matches a store-less build bit for
        bit per lane over 300 steps, folded bodies and (on "fsm") the
        generic step included, with byte-identical generic and folded
        sources."""
        cold, writer, root = codegen_env
        cold_sim, cold_outs = _codegen_run(cold, which, engine)
        _codegen_run(writer, which, engine)

        warm = Toolchain(store=ArtifactStore(root))
        with _codegen_calls() as calls:
            warm_sim, warm_outs = _codegen_run(warm, which, engine)
        assert calls == {"emit": 0, "compile": 0, "fold": 0}
        counters = warm.counter_snapshot()
        diverged = which == "fsm"
        entry = warm_sim._entry
        assert (warm_sim.generic_steps > 0) == diverged
        assert (entry.empty in entry.bodies) == diverged
        assert counters.get("store_hit:layout") == 1, counters
        # every body, the generic step on "fsm" included, from the store
        assert counters.get("store_hit:fold", 0) == len(entry.bodies) >= 1 + diverged, counters
        assert not [c for c in counters if c.startswith("store_miss:")], counters

        assert warm_outs == cold_outs
        for lane in range(CODEGEN_LANES):
            assert warm_sim.lane_regs(lane) == cold_sim.lane_regs(lane), lane
        assert warm_sim.arrays == cold_sim.arrays
        assert warm_sim.source == cold_sim.source
        assert _bodies(warm_sim) == _bodies(cold_sim)
        assert any(_bodies(warm_sim).values()), "no folded body ran"

    def test_pipeline_binding_read_from_store_across_toolchains(self, codegen_env):
        """The processor's (2,0,0,0) binding -- its Pipeline state --
        is a folded body like any other: a later toolchain reads it from
        the store instead of folding again, and a warm lockstep run
        never builds a code generator, not even to classify tiers."""
        _cold, writer, root = codegen_env
        _codegen_run(writer, "proc", "swar")
        warm = Toolchain(store=ArtifactStore(root))
        with _codegen_calls() as calls:
            sim, _ = _codegen_run(warm, "proc", "swar")
        bodies = sim._entry.bodies
        assert (2, 0, 0, 0) in bodies
        assert all(body is not None for body in bodies.values())
        assert calls["fold"] == 0 and calls["emit"] == 0, calls
        hits = warm.counter_snapshot().get("store_hit:fold", 0)
        assert hits == len(bodies)
        assert sim.generic_steps == 0 and sim._entry.empty not in bodies

    @pytest.mark.parametrize("name", ["GEN_DIGEST", "MAGIC"])
    def test_generator_or_interpreter_change_misses(self, tmp_path, monkeypatch, name):
        _codegen_run(_fresh_toolchain(tmp_path), "tdma", "swar", steps=4)
        monkeypatch.setattr(batch_mod, name, "0" * len(getattr(batch_mod, name)))
        warm = _fresh_toolchain(tmp_path)
        _codegen_run(warm, "tdma", "swar", steps=4)
        counters = warm.counter_snapshot()
        assert counters.get("store_miss:layout") == 1, counters
        assert "store_hit:layout" not in counters and "store_hit:fold" not in counters

    @pytest.mark.parametrize("damage", ["bit-flip", "bad-marshal", "not-code", "exec-fails"])
    def test_damaged_codegen_record_is_quarantined(self, tmp_path, damage):
        """A damaged generic-step record -- the ``fold`` record of the
        empty binding -- is counted, quarantined and regenerated on the
        first diverged step; the step that runs is the regenerated one,
        never the damaged one."""
        writer = _fresh_toolchain(tmp_path)
        ref, ref_outs = _codegen_run(writer, "fsm", "swar", steps=20)
        assert ref.generic_steps > 0
        design = writer.compile(FSM1_SRC, two_level(), name="fsm1")
        key = ("fold", *design._structural_key, writer.opt_level, "swar",
               batch_mod.GEN_DIGEST, batch_mod.MAGIC, ref._entry.empty)
        store = writer.store
        path = store.path_for(key)
        if damage == "bit-flip":
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0x40
            path.write_bytes(bytes(blob))
        else:
            code = {
                "bad-marshal": _BadMarshal(),
                "not-code": _NotCode(),
                "exec-fails": batch_mod._Code(compile("raise TypeError('x')", "<t>", "exec")),
            }[damage]
            store.put(key, store.get(key)._replace(code=code))

        compiled, loaded = [], []
        real_compile, real_load = batch_mod._compile, batch_mod._BatchEntry._load

        def compile_spy(*args):
            compiled.append(real_compile(*args))
            return compiled[-1]

        def load_spy(self, code):
            loaded.append(code)
            return real_load(self, code)

        warm = _fresh_toolchain(tmp_path)
        with mock.patch.object(batch_mod, "_compile", compile_spy), \
                mock.patch.object(batch_mod._BatchEntry, "_load", load_spy):
            sim, outs = _codegen_run(warm, "fsm", "swar", steps=20)
        counters = warm.counter_snapshot()
        bodies = sim._entry.bodies
        assert counters.get("store_miss:fold") == 1, counters
        assert counters.get("store_hit:fold") == len(bodies) - 1, counters
        assert warm.store.counters["corrupt"] == 1, warm.store.counters
        assert path.with_suffix(".corrupt").exists() and path.exists()
        assert len(compiled) == 1, "only the damaged record is regenerated"
        factory = bodies[sim._entry.empty].factory
        assert factory.__code__ in compiled[0].code.co_consts, "damaged step ran"
        assert compiled[0] in loaded
        if damage != "exec-fails":  # undecodable records never reach exec
            assert len(loaded) == len(bodies)
        assert outs == ref_outs and sim.source == ref.source

        again = _fresh_toolchain(tmp_path)
        again_sim, _ = _codegen_run(again, "fsm", "swar", steps=20)
        counters = again.counter_snapshot()
        assert counters.get("store_hit:fold") == len(again_sim._entry.bodies), counters
        assert not [c for c in counters if c.startswith("store_miss:")], counters
