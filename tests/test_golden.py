"""Golden SHA-256 digests of `blindsim run` and `blindsim sweep` output.

A refactor that keeps behaviour must keep these bytes. A digest may change
only for a reason stated in CHANGES.md (for example a floating-point change
that flips a measure-zero boundary round), never to make a test pass.

`run` sessions have 150 000 rounds: two full 65536-round chunks plus a partial
third, so chunk slicing and concatenation are covered.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

import pytest

from blindsim.cli import main
from blindsim.protocol import ProtocolConfig, run_session
from blindsim.sources import ScenarioConfig

SUMMARY_DIGESTS = {
    ("honest", "bbm92", 1): "e469b3a6cd56cc929ed436b7becedb7041ca0901e70cb2f77b19555c656a928b",
    ("honest", "bbm92", 2): "644397f9af49c09c3b2ded12a071a922f3a358bcff2a547cdb4c06db84d084e4",
    ("honest", "ekert", 1): "857c25d732175a5f154ce09ad1bdcd03d3500d0459ec77e4519c43a033c17033",
    ("honest", "ekert", 2): "99fbc09cb3de5bdba689bc2da878709ca94bfae3c68b2ca449b8e6a408a3a94d",
    ("single-blinding", "bbm92", 1): "0ba9fc6a32c76deb0f204775d26137d3bbfe990d8bb652b7cfdb32c6f290ad10",
    ("single-blinding", "bbm92", 2): "fdd075e5f181052adec58bc1d757306960c4abbf1dad93ce9bdd29cf476e8c26",
    ("double-bbm92", "bbm92", 1): "c4e90d0269a1867f20fa4ed3d2f929bc291d1dc9c23e60eeb107c9233287c9b9",
    ("double-bbm92", "bbm92", 2): "18ac767fcbf68bc97e2b2501b010f7d3772aafea6d023cf543c84f29a7319204",
    ("double-bbm92", "ekert", 1): "86ea212d9bc8dbd5ed754a93e940f1a34564308b31c3c058ce4ddf16442e558a",
    ("double-bbm92", "ekert", 2): "9b0439f54ce9af3ac0cc8916e8057bc07121782094ac15df9dbef642739c351f",
    ("double-ekert", "bbm92", 1): "928b92ca2ec11c125f10aafa206fb763e6f2f85b708f66188d80f015bf8c7db3",
    ("double-ekert", "bbm92", 2): "5418b9c64d22edc04979dd758ea3b1d78b7a32403dade1f8aa57d6e3af72ef90",
    ("double-ekert", "ekert", 1): "13bedfe027d3c49f959102f0f75f75968e087c5cccb54254b872a4273cceb183",
    ("double-ekert", "ekert", 2): "20ba3a9083d8caefd4e41513cd16e2af06911b01c7dbc11a33ae97f15c0aae78",
}

# the digests above with the "oracle" block removed (_without_oracle): what the
# sessions measured, which a change to the expected values leaves alone. The
# same holds for each *_NO_ORACLE table below
SUMMARY_NO_ORACLE_DIGESTS = {
    ("honest", "bbm92", 1): "7f0d593b293d79a264144c16945a446b951ca00d6c1c75e813f6c0f24ceef3db",
    ("honest", "bbm92", 2): "46ed8f687010ac86b614a9aaa772d2764ac9568c61a2a9e3d38d49a0e3ac94b8",
    ("honest", "ekert", 1): "4596e134c48b269ec9b016f82b92ea336309ecccd2dd4dc3d90118429cf2568d",
    ("honest", "ekert", 2): "6836a1e0a9319d23ccc6b511a942d49d3e9eccccfd5f9703b7c09cd05a0e7114",
    ("single-blinding", "bbm92", 1): "b1e8a448af968b9d17c4ecb3eaeca1db8717a1fcdc7efe59043aadc4d07ccb47",
    ("single-blinding", "bbm92", 2): "1e1d6314fe23289a7f5b2d333d41524a68ed6144ec9ea7a003a735bb2d8a6e95",
    ("double-bbm92", "bbm92", 1): "2f25d3e914b06e23b3fd08459eaefd14acf605e1539d9c4b4db79292d996f7a2",
    ("double-bbm92", "bbm92", 2): "3a75cf6413a77b9d3869f4feb2585886c3ac1e6dc101a2fff4bdedcce07499fa",
    ("double-bbm92", "ekert", 1): "952a2835a524e79b0a43984b22e2de8d19de02cc393601214b615bce9248709a",
    ("double-bbm92", "ekert", 2): "e0a3e89eddc54ee8b867449a6051be0e8053377072054ca54575a1170e80d9c4",
    ("double-ekert", "bbm92", 1): "1392c972359ae43b4b70da1705cbfa5f527d79c85eb457d90da8589bfb0f58d8",
    ("double-ekert", "bbm92", 2): "e89edb174e7a3932c46a2811a5ceb11e1d9fe8c08d2f933bee86c04995d0e1ad",
    ("double-ekert", "ekert", 1): "91b26b7678c969ed5db413c16f6152714794a793a44560dd78eaa9a2b9a63777",
    ("double-ekert", "ekert", 2): "c04edaff45744437cdbc5d50eb8188beae41e2c8befaec1263d60f883dcf73a9",
}

# double-ekert ekert summaries, 150 000 rounds, seed 5, under the options the
# default matrix leaves at their defaults
OPTION_DIGESTS = {
    ("--weak-side", "alternate"): "591089b92b7560a1cb43614b81dc40ef93550e26000ee67ca493a2e670ed8427",
    ("--weak-side", "fixed-a"): "acd4648233422ea9ef095c97d5bb30e01bef1592ede9bbceafe2b7fe21be530a",
    ("--weak-side", "fixed-b"): "b2b9cb7ba52fee6469f75bf3e8585b4a8e8c08406d41a35636e75019f2e04459",
    ("--alpha", "0.3"): "78ecd9993644faa9b1b302efb7ae3dbfe2d6110b71ddaa035b49b963ddbbef2a",
}

OPTION_NO_ORACLE_DIGESTS = {
    ("--weak-side", "alternate"): "b7e6582e86579f34056f1f6ebf83601a972eb534c289984848b3cf4100668be7",
    ("--weak-side", "fixed-a"): "481bd5c8881268f16bb3b411530597de24e5b05270e330aa7b22595d6aeb5b35",
    ("--weak-side", "fixed-b"): "a74c379e82083936ba4f94349443da8518f2fa08b0fb458c13eeee890a2c91cb",
    ("--alpha", "0.3"): "a826558b414a15d4cdd536c0a5ff21bf55d2fb38cfc73208f767f5be3d5313c8",
}

# `sweep --axis alpha` over [0.2, 0.7]: 4 steps, 70 000 rounds per point, seed 11
ALPHA_SWEEP_DIGEST = "cee58e8a60f737943de51b9d87e6e7cf5ee94f043f0f2452c642ddb1bf483875"
ALPHA_SWEEP_NO_ORACLE_DIGEST = "6b05650fa05712c53526c159f91e63b2d02c4697f105d169dfdb095620e36276"

# streamed sessions at strong_intensity 1.5, which no CLI flag reaches: the
# little-endian int64 count tensor followed by repr(eve_tally), 150 000 rounds, seed 6
STRONG_1_5_DIGESTS = {
    ("double-bbm92", "bbm92"): "b5e7e9ea445722d241641c27399d7e2060697c08e8c08adfbb840cff82becd0e",
    ("double-ekert", "ekert"): "f8b260f158e7611831e93726b4c0a7c1d7335b888daa744061b9c182b5136c46",
}

# --records --eve-view dumps at 70 000 rounds (one full chunk plus a partial one), seed 3
RECORDS_DIGESTS = {
    ("honest", "ekert"): "854bcf2d900a77d6be217b6d99ee3a9c027cfcc01725f31b22ece59dd3e444f5",
    ("single-blinding", "bbm92"): "0122a0cadd91070da3e64331683f9244670c81166d723a2a54a06e0e63a9750d",
    ("double-bbm92", "bbm92"): "1c2d555353c804691e6f4133c4989cd5c215add82649b345b15b4199a5db7bb2",
    ("double-ekert", "ekert"): "9bf6208cef9e4f313f39e8993b7188d61eb9370c040326b0073463c229874d09",
}

# summaries outside the default matrix, 150 000 rounds, seed 4: the depolarized
# genuine-pair kernels (replacement branch, single blinding's Alice-Eve pair)
# and a --format csv summary
EXTRA_SUMMARY_DIGESTS = {
    ("honest", "bbm92", "--depolarize", "0.1"): "f532eaaf5a9cdd6c1cb9c9b794eda27325c147c4e597ab35539e27aa684a780e",
    ("honest", "ekert", "--depolarize", "0.1"): "97ded12e4a8a24140cb371e5e90c6e6a05a23d47c82019702b394aabeb7ae27d",
    ("single-blinding", "bbm92", "--depolarize", "0.1"): "0c73307f96d45674fc66b50e73544f3b2518cc82c96a70ddc2aa34bf0feb9cef",
    ("double-ekert", "ekert", "--format", "csv"): "87d24123e832ca5f45f4d5efd955540792f6ec58bb88eef902d46e7d3446f936",
}

EXTRA_SUMMARY_NO_ORACLE_DIGESTS = {
    ("honest", "bbm92", "--depolarize", "0.1"): "2524ed5257c95c17afd6dd81eb8a8936b5fe33e78b10f74dbd76589692719ac3",
    ("honest", "ekert", "--depolarize", "0.1"): "d811a97ae5b525d9fbdf84975e623610ff741e45ad84beb27e03d8135783e1f5",
    ("single-blinding", "bbm92", "--depolarize", "0.1"): "73940674db2207817f159806bcd7167d2456f2ae9baa4e8eede392695fa2bd11",
    ("double-ekert", "ekert", "--format", "csv"): "09eeacb4d6e736ae7ad7ce6641a0525bf2563a5461b50c4377109a5682dcddeb",
}

# --records dumps outside RECORDS_DIGESTS, 70 000 rounds, seed 3: depolarized
# genuine pairs and the alternate weak-side policy with --eve-view, and the
# writer's plain 6-column rows without it
RECORDS_OPTION_DIGESTS = {
    ("honest", "bbm92", "--depolarize", "0.1", "--eve-view"): "bf7628f38329eb2529ae84f08ca93888bc92ec91bad10f71e18e492669a3ac73",
    ("single-blinding", "bbm92", "--depolarize", "0.1", "--eve-view"): "a76bf93a261856aedcaff1afea13c106f21521d55e19f6f283f02f21806b44ca",
    ("double-ekert", "ekert", "--weak-side", "alternate", "--eve-view"): "7e4baaa50de250ca397c57650d986cfe952c9402a73b1d500410b737964f9099",
    ("double-ekert", "ekert"): "80608e9be4fa405247c34d602a69205b71668e85dad6420e51e076f57f8291b4",
}

# `sweep --axis delta` tables over [-pi/2, pi/2]: 31 steps, 50 000 rounds per point, seed 9
SWEEP_DIGESTS = {
    "double-bbm92": "6d057729c9424f872e01c521a5cda6d4ba7b06f661ca66be5efe3f7f05f99bd9",
    "double-ekert": "216089405bcdf7e81fd6f3d793a6d0a8d3a91a3ab4f5adf0b9e1051d68182bb5",
}

SWEEP_NO_ORACLE_DIGESTS = {
    "double-bbm92": "5741a85c933578d15225c0f5f3aa4ceaf96c950a010de474bffc21b7dc1991a8",
    "double-ekert": "cc10e6a14cd11c7cc816a9704430f94fea574b5014003e4847a67d0d02d19c4a",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _without_oracle(out: str, fmt: str) -> str:
    """The output with its expected values removed: the rest must not move when they do.

    json: the summary's "oracle" key; csv-summary: its oracle.* rows; csv-table:
    the sweep's *oracle columns.
    """
    if fmt == "json":
        summary = json.loads(out)
        del summary["oracle"]
        return json.dumps(summary, indent=2) + "\n"
    rows = list(csv.reader(io.StringIO(out)))
    if fmt == "csv-summary":
        rows = [row for row in rows if not row[0].startswith("oracle.")]
    else:
        keep = [i for i, name in enumerate(rows[0]) if not name.endswith("oracle")]
        rows = [[row[i] for i in keep] for row in rows]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


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
        no_oracle = _without_oracle(out, "json").encode()
        assert _sha256(no_oracle) == SUMMARY_NO_ORACLE_DIGESTS[(scenario, protocol, seed)], f"workers={workers}"


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
        no_oracle = _without_oracle(out, "csv-summary" if "csv" in options else "json").encode()
        assert _sha256(no_oracle) == EXTRA_SUMMARY_NO_ORACLE_DIGESTS[config], f"workers={workers}"


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
    assert _sha256(_without_oracle(out, "csv-table").encode()) == SWEEP_NO_ORACLE_DIGESTS[scenario]


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
        no_oracle = _without_oracle(out, "json").encode()
        assert _sha256(no_oracle) == OPTION_NO_ORACLE_DIGESTS[option], f"workers={workers}"


def test_alpha_sweep_digest(capsys):
    rc = main([
        "sweep", "--axis", "alpha", "--scenario", "double-ekert",
        "--start", "0.2", "--stop", "0.7", "--steps", "4", "--rounds", "70000", "--seed", "11",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert _sha256(out.encode()) == ALPHA_SWEEP_DIGEST
    assert _sha256(_without_oracle(out, "csv-table").encode()) == ALPHA_SWEEP_NO_ORACLE_DIGEST


@pytest.mark.parametrize("scenario,protocol", list(STRONG_1_5_DIGESTS), ids=lambda v: str(v))
def test_strong_intensity_counts_digest(scenario, protocol):
    pc = ProtocolConfig(protocol=protocol, rounds=150_000, seed=6)
    sc = ScenarioConfig(kind=scenario, strong_intensity=1.5)
    for workers in (1, 2):
        session = run_session(pc, sc, workers)
        digest = hashlib.sha256(session.counts.astype("<i8").tobytes())
        digest.update(repr(session.eve_tally).encode())
        assert digest.hexdigest() == STRONG_1_5_DIGESTS[(scenario, protocol)], f"workers={workers}"
