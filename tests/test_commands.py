"""The shared command layer: one request, one answer from every door.

The server's ``simulate`` result must equal ``asdict`` of the in-process
command for the same request, and the CLI's summary must be the
rendering of that same result.  The cases cover the scalar engine, both
batched engines, and halted-lane compaction with uniform and per-lane
stimulus.
"""

import asyncio
import dataclasses

import pytest

from repro import commands
from repro.cli import main, render_simulate
from repro.sapper import samples
from repro.server import ReproServer
from repro.toolchain import Toolchain

HALTING = """
reg[7:0] cnt; input[7:0] k; output halted : L; output[7:0] v : L;
state s : L = { cnt := cnt + k; halted := cnt > 9; v := cnt; goto s; }
"""

CASES = {
    # id: (source, name, lanes, inputs, engine auto picks)
    "tdma-1": (samples.TDMA, "tdma", 1, {"hi_in": 3}, "scalar"),
    "tdma-4": (samples.TDMA, "tdma", 4, {"hi_in": 3}, "swar"),
    "tdma-64": (samples.TDMA, "tdma", 64, {"hi_in": 3}, "vector"),
    "halting-k3": (HALTING, "halting", 2, {"k": 3}, "swar"),
    "halting-skewed": (HALTING, "halting", 4, {"k": [1, 2, 5, 20]}, "swar"),
}


def _cli_inputs(inputs: dict) -> list[str]:
    args = []
    for port, value in inputs.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        args += ["-i", f"{port}={text}"]
    return args


@pytest.mark.parametrize("case", sorted(CASES))
def test_server_cli_and_command_agree(case, tmp_path, capsys):
    source, name, lanes, inputs, engine = CASES[case]
    if engine == "vector":
        pytest.importorskip("numpy", minversion="2")
    req = commands.SimulateRequest(source, name=name, cycles=50, lanes=lanes, inputs=inputs)
    assert req.resolved_engine == engine
    expected = dataclasses.asdict(commands.simulate(Toolchain(), req))

    server = ReproServer(max_workers=1)
    resp = asyncio.run(server.handle_request({
        "op": "simulate", "source": source, "name": name,
        "cycles": 50, "lanes": lanes, "inputs": inputs,
    }))
    assert resp["ok"], resp
    assert resp["result"] == expected

    path = tmp_path / f"{name}.sapper"
    path.write_text(source)
    args = ["simulate", str(path), "-n", "50", "--lanes", str(lanes), "--quiet"]
    assert main(args + _cli_inputs(inputs)) == 0
    rendered = render_simulate(commands.SimulateResult(**resp["result"]))
    assert capsys.readouterr().out == rendered + "\n"


def test_server_compacts_halted_lanes():
    """Every lane halts at cycle 4: the server stops there, as the CLI
    does, instead of running all 50 cycles."""
    server = ReproServer(max_workers=1)
    resp = asyncio.run(server.handle_request({
        "op": "simulate", "source": HALTING, "cycles": 50, "lanes": 2,
        "inputs": {"k": 3},
    }))
    result = resp["result"]
    assert result["cycles"] == 4 and result["lane_cycles"] == 8
    assert [out["v"] for out in result["outputs"]] == [12, 12]


@pytest.mark.parametrize("field,value", [("cycles", 0), ("cycles", -5), ("lanes", 0)])
def test_request_rejects_non_positive_counts(field, value):
    with pytest.raises(commands.RequestError, match=f"field '{field}' must be >= 1"):
        commands.SimulateRequest(HALTING, **{field: value})


def test_check_seed_defect_leaves_the_cached_design_clean():
    tc = Toolchain()
    seeded = commands.check(tc, commands.CheckRequest(samples.TDMA, seed_defect="comb-loop"))
    assert not seeded.report.ok
    clean = commands.check(tc, commands.CheckRequest(samples.TDMA))
    assert clean.report.ok and clean.key == seeded.key
