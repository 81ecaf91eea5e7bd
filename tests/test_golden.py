"""Golden SHA-256 digests of `blindsim run` and `blindsim sweep` output.

A refactor that keeps behaviour must keep these bytes. A digest may change
only for a reason stated in CHANGES.md (for example a floating-point change
that flips a measure-zero boundary round), never to make a test pass.

`run` sessions have 150 000 rounds: two full 65536-round chunks plus a partial
third, so chunk slicing and concatenation are covered.
"""

from __future__ import annotations

import hashlib

import pytest

from blindsim.cli import main
from blindsim.protocol import ProtocolConfig, run_session
from blindsim.sources import ScenarioConfig

SUMMARY_DIGESTS = {
    ("honest", "bbm92", 1): "8a750f3b8e1c0c4a04ae66728ef5308bc761008b7bfb3d9b06d6502ccc0298b5",
    ("honest", "bbm92", 2): "2463ec831d630b577b8a7911e3046de99a7d7f7d1534fdd6cb8e02d3f5111e4f",
    ("honest", "ekert", 1): "ede00b5dd4ac487a36afbe3c7c7e7940c2d83f6608577d51385a5b3a13ed0674",
    ("honest", "ekert", 2): "bc2a74c2a2471a94e926a6e2ff57f92a99e57d62207b02c5ee89a0a6615cd3d5",
    ("single-blinding", "bbm92", 1): "e9c4b9cffd991256784ad38a65282729182969d4937b16d70d6e362c76409c67",
    ("single-blinding", "bbm92", 2): "1123e34bcbfcd53e0694852a6a4a8c31fcf5beab7267fb60920c7f533e6d023c",
    ("double-bbm92", "bbm92", 1): "6c0f71c99b892fd5fb6b47ae36b433d97514a4f6b794345f71683c9ea3f709d4",
    ("double-bbm92", "bbm92", 2): "bb5c881154f5d3d562b7f190a1c2ac60321345f85f4e1a0c4be6814bc67e22f6",
    ("double-bbm92", "ekert", 1): "3b870eb2e58bfb4b4c355e5abe421a9876fe59bd1bfa8ee49a24ba0341840076",
    ("double-bbm92", "ekert", 2): "e9d85fa83e0837eb652fff190e87a9455ae2faf20ffac9d522fab769d8b769a3",
    ("double-ekert", "bbm92", 1): "1385c1fba9e4efc64b049694128302b4bf3adf0a8183cb9f9e7e18c78257dead",
    ("double-ekert", "bbm92", 2): "834626f48aa29894ed0532d81733a7429834d615f02c21548e8dcb604c6b02be",
    ("double-ekert", "ekert", 1): "af05b5a9910a414e2d6bcb1a62d3558e546bb21f8c7c590e7f7f1f04f3720d3f",
    ("double-ekert", "ekert", 2): "445844e3cf72380d610ccfdbaff5eaa46b6be19c7bb2db78a3f897a644934c17",
}

# double-ekert ekert summaries, 150 000 rounds, seed 5, under the options the
# default matrix leaves at their defaults
OPTION_DIGESTS = {
    ("--weak-side", "alternate"): "12dbdcfdaed48f03572684c9a48f467ade3850d3ed8620926e480f3814d3cc61",
    ("--weak-side", "fixed-a"): "d2f08566a6393c0f5b1809e663cbea1deeaa09c8617d9c62837397279068792e",
    ("--weak-side", "fixed-b"): "479f01898994d9e21953148fce691da9049b252cdf7ce96e7870797da94ffca9",
    ("--alpha", "0.3"): "b6f136cdd01d61216bb4febccb900033f4781fb4a81560dd53d7b617d21a980c",
}

# `sweep --axis alpha` over [0.2, 0.7]: 4 steps, 70 000 rounds per point, seed 11
ALPHA_SWEEP_DIGEST = "e2a7e2adfb401a480dea2e52bf996fc044481411eb9f48e97151e0c96123b4a1"

# streamed sessions at strong_intensity 1.5, which no CLI flag reaches: the
# little-endian int64 count tensor followed by repr(eve_tally), 150 000 rounds, seed 6
STRONG_1_5_DIGESTS = {
    ("double-bbm92", "bbm92"): "648f9f02931af035cb936978b4e6a4550aa8ab286a6e96e8108cd0e8fb0dff3f",
    ("double-ekert", "ekert"): "e3e01e2ddbd14846e029aaeaf9d45c485de93f9568f92524fb803cf98cfa3228",
}

# --records --eve-view dumps at 70 000 rounds (one full chunk plus a partial one), seed 3
RECORDS_DIGESTS = {
    ("honest", "ekert"): "854bcf2d900a77d6be217b6d99ee3a9c027cfcc01725f31b22ece59dd3e444f5",
    ("single-blinding", "bbm92"): "0122a0cadd91070da3e64331683f9244670c81166d723a2a54a06e0e63a9750d",
    ("double-bbm92", "bbm92"): "770681167e436aa0572765f744c1d5989e350fd9c56dd23e17ba40f20b377701",
    ("double-ekert", "ekert"): "68f0d40c40b7b9bb68401293cba39752c558156db4a1601045b1b78fce23c92b",
}

# summaries outside the default matrix, 150 000 rounds, seed 4: the depolarized
# genuine-pair kernels (replacement branch, single blinding's Alice-Eve pair)
# and a --format csv summary
EXTRA_SUMMARY_DIGESTS = {
    ("honest", "bbm92", "--depolarize", "0.1"): "5612a0def8aa3d45deecc320c5f9fa5b5d17443f30b25454139b483e76cc1e85",
    ("honest", "ekert", "--depolarize", "0.1"): "c064be2157ea852afc3082245619283aff6561c687eb7cd6b4e0e246490223df",
    ("single-blinding", "bbm92", "--depolarize", "0.1"): "10b724ce4a8974aa5e608d3fb457c534042db116385e5df6ac44c593da1bdd39",
    ("double-ekert", "ekert", "--format", "csv"): "b4b73b6397101c3e049133f93fc3d32241ff18e449a033d04ffa11d3e3c00074",
}

# --records dumps outside RECORDS_DIGESTS, 70 000 rounds, seed 3: depolarized
# genuine pairs and the alternate weak-side policy with --eve-view, and the
# writer's plain 6-column rows without it
RECORDS_OPTION_DIGESTS = {
    ("honest", "bbm92", "--depolarize", "0.1", "--eve-view"): "bf7628f38329eb2529ae84f08ca93888bc92ec91bad10f71e18e492669a3ac73",
    ("single-blinding", "bbm92", "--depolarize", "0.1", "--eve-view"): "a76bf93a261856aedcaff1afea13c106f21521d55e19f6f283f02f21806b44ca",
    ("double-ekert", "ekert", "--weak-side", "alternate", "--eve-view"): "e08be3d01ae459f2963ba67fe553f6d686e62346977dc21c5c803bfcde65d141",
    ("double-ekert", "ekert"): "360699a5398aafa25290a496e06453ff2bc133a1ffa074ee711b30b600d3e4a4",
}

# `sweep --axis delta` tables over [-pi/2, pi/2]: 31 steps, 50 000 rounds per point, seed 9
SWEEP_DIGESTS = {
    "double-bbm92": "a363d81b7abbdac06cdc06587bb92870d668ca3d0ade1ec9e549b3da546960c7",
    "double-ekert": "5ed0ce3f42dde1d3b5dc1fae9d5f74a94d8561c256acba0b0788ff4b4c2d9296",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "scenario,protocol,seed", list(SUMMARY_DIGESTS), ids=lambda v: str(v)
)
def test_run_summary_digest(capsys, scenario, protocol, seed):
    expected = SUMMARY_DIGESTS[(scenario, protocol, seed)]
    for workers in (1, 2):
        rc = main([
            "run", "--scenario", scenario, "--protocol", protocol,
            "--rounds", "150000", "--seed", str(seed), "--workers", str(workers),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert _sha256(out.encode()) == expected, f"workers={workers}"


@pytest.mark.parametrize("scenario,protocol", list(RECORDS_DIGESTS), ids=lambda v: str(v))
def test_records_eve_view_digest(tmp_path, capsys, scenario, protocol):
    path = tmp_path / "rounds.csv"
    rc = main([
        "run", "--scenario", scenario, "--protocol", protocol,
        "--rounds", "70000", "--seed", "3", "--records", str(path), "--eve-view",
    ])
    assert rc == 0
    capsys.readouterr()
    assert _sha256(path.read_bytes()) == RECORDS_DIGESTS[(scenario, protocol)]


@pytest.mark.parametrize("config", list(EXTRA_SUMMARY_DIGESTS), ids=" ".join)
def test_run_extra_summary_digest(capsys, config):
    scenario, protocol, *options = config
    for workers in (1, 2):
        rc = main([
            "run", "--scenario", scenario, "--protocol", protocol,
            "--rounds", "150000", "--seed", "4", "--workers", str(workers), *options,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert _sha256(out.encode()) == EXTRA_SUMMARY_DIGESTS[config], f"workers={workers}"


@pytest.mark.parametrize("config", list(RECORDS_OPTION_DIGESTS), ids=" ".join)
def test_records_option_digest(tmp_path, capsys, config):
    scenario, protocol, *options = config
    path = tmp_path / "rounds.csv"
    rc = main([
        "run", "--scenario", scenario, "--protocol", protocol,
        "--rounds", "70000", "--seed", "3", "--records", str(path), *options,
    ])
    assert rc == 0
    capsys.readouterr()
    assert _sha256(path.read_bytes()) == RECORDS_OPTION_DIGESTS[config]


@pytest.mark.parametrize("scenario", list(SWEEP_DIGESTS))
def test_delta_sweep_digest(capsys, scenario):
    rc = main([
        "sweep", "--axis", "delta", "--scenario", scenario,
        "--start", "-1.5707963267948966", "--stop", "1.5707963267948966", "--steps", "31",
        "--rounds", "50000", "--seed", "9",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert _sha256(out.encode()) == SWEEP_DIGESTS[scenario]


@pytest.mark.parametrize("option", list(OPTION_DIGESTS), ids=lambda v: " ".join(v))
def test_run_option_summary_digest(capsys, option):
    for workers in (1, 2):
        rc = main([
            "run", "--scenario", "double-ekert", "--protocol", "ekert",
            "--rounds", "150000", "--seed", "5", "--workers", str(workers), *option,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert _sha256(out.encode()) == OPTION_DIGESTS[option], f"workers={workers}"


def test_alpha_sweep_digest(capsys):
    rc = main([
        "sweep", "--axis", "alpha", "--scenario", "double-ekert",
        "--start", "0.2", "--stop", "0.7", "--steps", "4", "--rounds", "70000", "--seed", "11",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert _sha256(out.encode()) == ALPHA_SWEEP_DIGEST


@pytest.mark.parametrize("scenario,protocol", list(STRONG_1_5_DIGESTS), ids=lambda v: str(v))
def test_strong_intensity_counts_digest(scenario, protocol):
    pc = ProtocolConfig(protocol=protocol, rounds=150_000, seed=6)
    sc = ScenarioConfig(kind=scenario, strong_intensity=1.5)
    for workers in (1, 2):
        session = run_session(pc, sc, workers, keep_rounds=False)
        digest = hashlib.sha256(session.counts.astype("<i8").tobytes())
        digest.update(repr(session.eve_tally).encode())
        assert digest.hexdigest() == STRONG_1_5_DIGESTS[(scenario, protocol)], f"workers={workers}"
