"""Smoke test: the benchmark's per-layer tracer still finds and wraps every traced name.

`blindbench/spans.py` looks each traced function up by name and reads
`len()` and `vars()` of what `run_session` returns; a rename or a changed
session type would break `blindbench/run.py --trace 1` without failing any
other test.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from blindsim import protocol
from blindsim.cli import main
from blindsim.sources import CHUNK_ROUNDS, ScenarioConfig

SPANS_PATH = Path(__file__).resolve().parent.parent / "blindbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("blindbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_name(tmp_path):
    spans = _load_spans()
    original = protocol.run_session
    tracer = spans.Tracer()
    tracer.install()  # raises AttributeError for a traced name that no longer exists
    try:
        tracer.command = 0
        assert main([
            "run", "--scenario", "double-ekert", "--protocol", "ekert", "--rounds", "100000",
            "--seed", "1", "--workers", "1", "--out", str(tmp_path / "summary.json"),
        ]) == 0
        tracer.command = 1
        assert main([
            "sweep", "--axis", "alpha", "--scenario", "double-ekert", "--start", "0.2",
            "--stop", "0.7", "--steps", "2", "--rounds", "20000", "--seed", "1",
            "--workers", "1", "--out", str(tmp_path / "sweep.csv"),
        ]) == 0
    finally:
        tracer.uninstall()
    assert protocol.run_session is original

    traced = {f"{layer}.{fn}" for layer, fns in spans.TRACED.items() for fn in fns}
    summary_spans = {s[0] for s in tracer.spans if s[4] == 0}
    sweep_spans = {s[0] for s in tracer.spans if s[4] == 1}
    # a summary passes through every traced layer function but sample_lambda:
    # a double-blind session draws each round's bin and places lambda in it
    assert summary_spans == traced - {"sources.sample_lambda"}
    # sweeps report no Eve audit and do not pay for one
    assert "sources.predict_outcome_codes" not in sweep_spans
    assert "protocol.run_session" in sweep_spans

    assert [(command, rounds) for command, rounds, _ in tracer.sessions] == [
        (0, 100_000), (1, 20_000), (1, 20_000),
    ]
    # neither command keeps per-round columns: under a byte per round retained
    for _, rounds, retained in tracer.sessions:
        assert retained < rounds


def test_run_session_retains_under_a_byte_per_round():
    # run_session streams: a 32-chunk session keeps its count tensor, no per-round column
    pc = protocol.ProtocolConfig(protocol="ekert", rounds=32 * CHUNK_ROUNDS, seed=46)
    session = protocol.run_session(pc, ScenarioConfig(kind="double-ekert"))
    assert len(session) == pc.rounds
    assert _load_spans().retained_bytes(session) < len(session)
