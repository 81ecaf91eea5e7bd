"""Golden SHA-256 digests of `blindsim run` output.

A refactor that keeps behaviour must keep these bytes. A digest may change
only for a reason stated in CHANGES.md (for example a floating-point change
that flips a measure-zero boundary round), never to make a test pass.

Sessions run 150 000 rounds: two full 65536-round chunks plus a partial
third, so chunk slicing and concatenation are covered.
"""

from __future__ import annotations

import hashlib

import pytest

from blindsim.cli import main

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
    ("double-ekert", "bbm92", 1): "b41ba7ea9c6519979cb76b20fec605c996def12baf7fae2c9b82f8d5a20063f3",
    ("double-ekert", "bbm92", 2): "1aa599cc0871cb6ec41559f7f81a208e47d04db1c363e24ad49d3e9329ee5ba9",
    ("double-ekert", "ekert", 1): "66fd051a221adbe745e624218b7620861eee5d20e705ba302cfef6edc24a9bc0",
    ("double-ekert", "ekert", 2): "2e39cb0e3fef93d49db37bc3fcb3b1daee011a775127ac8fefe258d873ef700c",
}

# --records --eve-view dumps at 70 000 rounds (one full chunk plus a partial one), seed 3
RECORDS_DIGESTS = {
    ("honest", "ekert"): "854bcf2d900a77d6be217b6d99ee3a9c027cfcc01725f31b22ece59dd3e444f5",
    ("single-blinding", "bbm92"): "0122a0cadd91070da3e64331683f9244670c81166d723a2a54a06e0e63a9750d",
    ("double-bbm92", "bbm92"): "770681167e436aa0572765f744c1d5989e350fd9c56dd23e17ba40f20b377701",
    ("double-ekert", "ekert"): "68f0d40c40b7b9bb68401293cba39752c558156db4a1601045b1b78fce23c92b",
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
