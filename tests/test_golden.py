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
    ("double-bbm92", "bbm92", 1): "f2a5df1ee27ce0474a2bca43e0a21c6850100e3385933126624b71d221e323d8",
    ("double-bbm92", "bbm92", 2): "06c3bc921eb3b02b1fe99deb3b7700ed322c5c60315a814e8742581311174ebb",
    ("double-bbm92", "ekert", 1): "267800501ba86b78f68ba63b35519a886470d825f3ea9ba7322389de7c92a968",
    ("double-bbm92", "ekert", 2): "905a40dd894600592210a50c29adff33bc5252144fdc4ca2f54a30b3087e2909",
    ("double-ekert", "bbm92", 1): "69fb1d17ea934a2f4631172cc13c6279eee9550aed8d62e176ca812ddaccfb3e",
    ("double-ekert", "bbm92", 2): "2b456a38d6d364d1edbc0332681d93e5dc49c21fa5741ae92a41414d23f21bde",
    ("double-ekert", "ekert", 1): "bdbd9be578a4ce8d069f3bd90a30bfc27825bb5871fbce7acfa9d670c5dd5f45",
    ("double-ekert", "ekert", 2): "4810222dc82c4341bb312bad089688d42fd7e0d69e17d2e3a467ad694cd5b323",
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
    ("double-bbm92", "bbm92", 1): "89b54a542a657ff714c0adde003a85aa63043d9aed75c67ea1cd7fa69ee90306",
    ("double-bbm92", "bbm92", 2): "146c374d87a3137624f1cba2e72d10d9b7b855e7dde0c8cd0b7883ea192d4c27",
    ("double-bbm92", "ekert", 1): "ca9da452e277f7ccc94d9fe70034ab5b9509bfe23bee98d120ad0461a873e9ec",
    ("double-bbm92", "ekert", 2): "aa06699fd069b96e211fdd2778c31e8e9730d4de7928bb7aa427a8942243c8a6",
    ("double-ekert", "bbm92", 1): "436cbebc69a9f6b0caaa8d39b8ec1db67055ac9544bfd89bb8a31d383f9b8ce1",
    ("double-ekert", "bbm92", 2): "dd79fd0d91110d1add5ae274cb9007151b60743ab45d7463ba47e8ad12495255",
    ("double-ekert", "ekert", 1): "5e1cdffeb33e28d86680db4289f706e90fde606da2e8060bca3882acc8461e6d",
    ("double-ekert", "ekert", 2): "4b3c7bdcd2ebbd70e129e66a0e8216bce49909ce5c01cb4d846e6d54a1085bca",
}

# double-ekert ekert summaries, 150 000 rounds, seed 5, under the options the
# default matrix leaves at their defaults
OPTION_DIGESTS = {
    ("--weak-side", "alternate"): "e570ec7861f51c7e76bfe49f8263f7df423f6416995eccad975d13da037275ac",
    ("--weak-side", "fixed-a"): "79e5909639d4cda261306049a334e055cd954013f8de5a65e74f9d8e1d6e4369",
    ("--weak-side", "fixed-b"): "2d1c38a0ef8cf1e970c26c02943cc8694d1903c2792ca9f24a2614833a6059f2",
    ("--alpha", "0.3"): "718e1ddc7d989c8462c8a33d00e5e04f0b334fcf91490d0a4279bc3d023ba07e",
}

OPTION_NO_ORACLE_DIGESTS = {
    ("--weak-side", "alternate"): "0ee994e89487f1cee22af06935ecdb7d46aeb98f9f29ea58582af623c3123316",
    ("--weak-side", "fixed-a"): "919fb33b877cf7b325afebc04031a3f847ff481be9a66cb21476bea4e6f0cc19",
    ("--weak-side", "fixed-b"): "4086f5b12c7f4c00d9f31916e508f0126393d06b8b3395b9f04d00a3694f670d",
    ("--alpha", "0.3"): "55a5707a0e7df754bdd6046b720a945dd34a623decf82c63c368c33f53b61f5a",
}

# the double-blind summaries of the three tables above with Eve's sifted-key
# counters removed (_without_key_audit), pinned before those counters
# existed: every other byte of these summaries must stay as it was
NO_KEY_AUDIT_DIGESTS = {
    ("double-bbm92", "bbm92", 1): "f17c993b338b08340c2c915428435833c4d4051c748f699aeb8a59134ac8c0f9",
    ("double-bbm92", "bbm92", 2): "72f8b00899ea1c395085999493dd0cd841b2f55d60c64f7c5420bffb813fbdb6",
    ("double-bbm92", "ekert", 1): "79d32ea71691e03fa9f474063bc046e7b1e0f3e98cd97ff8843127983b696a99",
    ("double-bbm92", "ekert", 2): "8eb9db5a96632b83684285a59759f28d6ec6a0644367a17823b514cb75ce291b",
    ("double-ekert", "bbm92", 1): "f66395fc4e42e825b5cba2afbc5b56146972d1616dcd6916d7617d3c34119965",
    ("double-ekert", "bbm92", 2): "aaba4f0e7305baa551427d7a0b72e96208811eeb9bd9df625846bf8bdfa9b2c0",
    ("double-ekert", "ekert", 1): "7cc951cd35e6f48f8011f2f35a5c8413af3b2a48c82460e60d630ebc1699c835",
    ("double-ekert", "ekert", 2): "310aec231353780551fadb94afd6a4b2d2c4f159ba5e25fa883e2d756adfe94f",
    ("--weak-side", "alternate"): "f9533b184f94846cc25742b86f395575d979803548214b9ef06a516271160aa9",
    ("--weak-side", "fixed-a"): "27b7f62f0b6560488aca41e54bc880cfe089190612d5738e5324315c442207d9",
    ("--weak-side", "fixed-b"): "7e60a1f8e0263afca40770494c5ad6e6e3060532b2ecf3909d6c0f7805ab1e78",
    ("--alpha", "0.3"): "c8449b86d990505b5ad9fbfb63927abe0dbb46377e9ab047079775c293b71762",
    ("double-ekert", "ekert", "--format", "csv"): "ad6adca5ac8166bfc9ef39724cd4d38a6f88c1a5c4c6a3b4290b5680ac65c681",
}

# `sweep --axis alpha` over [0.2, 0.7]: 4 steps, 70 000 rounds per point, seed 11
ALPHA_SWEEP_DIGEST = "5f2b69fa36cd6991698b38abc2394122863cf5a041a3e7ade715e1dade91a66a"
ALPHA_SWEEP_NO_ORACLE_DIGEST = "19bf6d83be08b645e71edf3f6af85f32cce936f0b949d40cde158f2eacc108ee"

# streamed sessions at strong_intensity 1.5, which no CLI flag reaches: the
# little-endian int64 count tensor followed by repr(eve_tally), 150 000 rounds, seed 6
STRONG_1_5_DIGESTS = {
    ("double-bbm92", "bbm92"): "ddb21105d09520fb5dd58017279333636d232bf393bec6c8f0525371d5868b9a",
    ("double-ekert", "ekert"): "7100995ad26e6fff41ee9a75071874ef1642fd188e745e69a2b5d4a6a4384a4d",
}

# --records --eve-view dumps at 70 000 rounds (one full chunk plus a partial one), seed 3
RECORDS_DIGESTS = {
    ("honest", "ekert"): "854bcf2d900a77d6be217b6d99ee3a9c027cfcc01725f31b22ece59dd3e444f5",
    ("single-blinding", "bbm92"): "0122a0cadd91070da3e64331683f9244670c81166d723a2a54a06e0e63a9750d",
    ("double-bbm92", "bbm92"): "ed64c3b2f6ba494601495c6f78f3bd0805a2af7cf0f1cc998d190d2b9bb80eef",
    ("double-ekert", "ekert"): "5b8a2a19fa56531a687dd0da5200ba446ece446d772263e296e8e60a413fe042",
}

# summaries outside the default matrix, 150 000 rounds, seed 4: the depolarized
# genuine-pair kernels (replacement branch, single blinding's Alice-Eve pair)
# and a --format csv summary
EXTRA_SUMMARY_DIGESTS = {
    ("honest", "bbm92", "--depolarize", "0.1"): "f532eaaf5a9cdd6c1cb9c9b794eda27325c147c4e597ab35539e27aa684a780e",
    ("honest", "ekert", "--depolarize", "0.1"): "97ded12e4a8a24140cb371e5e90c6e6a05a23d47c82019702b394aabeb7ae27d",
    ("single-blinding", "bbm92", "--depolarize", "0.1"): "0c73307f96d45674fc66b50e73544f3b2518cc82c96a70ddc2aa34bf0feb9cef",
    ("double-ekert", "ekert", "--format", "csv"): "03080a1847f13960f6df7098bb8adba61c57e5eea4067790ee666b5f780c44fc",
}

EXTRA_SUMMARY_NO_ORACLE_DIGESTS = {
    ("honest", "bbm92", "--depolarize", "0.1"): "2524ed5257c95c17afd6dd81eb8a8936b5fe33e78b10f74dbd76589692719ac3",
    ("honest", "ekert", "--depolarize", "0.1"): "d811a97ae5b525d9fbdf84975e623610ff741e45ad84beb27e03d8135783e1f5",
    ("single-blinding", "bbm92", "--depolarize", "0.1"): "73940674db2207817f159806bcd7167d2456f2ae9baa4e8eede392695fa2bd11",
    ("double-ekert", "ekert", "--format", "csv"): "1dfeb527424fbe343a9a20e7c9fd9d8560d29a379a3faf73f63d029e9e6f2db8",
}

# --records dumps outside RECORDS_DIGESTS, 70 000 rounds, seed 3: depolarized
# genuine pairs and the alternate weak-side policy with --eve-view, and the
# writer's plain 6-column rows without it
RECORDS_OPTION_DIGESTS = {
    ("honest", "bbm92", "--depolarize", "0.1", "--eve-view"): "bf7628f38329eb2529ae84f08ca93888bc92ec91bad10f71e18e492669a3ac73",
    ("single-blinding", "bbm92", "--depolarize", "0.1", "--eve-view"): "a76bf93a261856aedcaff1afea13c106f21521d55e19f6f283f02f21806b44ca",
    ("double-ekert", "ekert", "--weak-side", "alternate", "--eve-view"): "5431b4d9ca57d316a0381897b875731d8e241b71e6a8f3a9b9583bf65a222af6",
    ("double-ekert", "ekert"): "4759523b788b26ca74d1c0f06aacd1366032fdfffef172e9de38c4d8841c94df",
}

# `sweep --axis delta` tables over [-pi/2, pi/2]: 31 steps, 50 000 rounds per point, seed 9
SWEEP_DIGESTS = {
    "double-bbm92": "48641a76e5616e0a963355d26179d602b3749fa118b510a3a4c83037c1b3323c",
    "double-ekert": "cc38245ec054cec94070e926a36d87a77a68ce367920483c3798688a27151ce5",
}

SWEEP_NO_ORACLE_DIGESTS = {
    "double-bbm92": "d720887cc375eda03b529937c03a20f9c40cf036e13ad34cb9d0c51c09077768",
    "double-ekert": "bf18b43e03f53b579c10d075c9d2f808021d009c30e45c015fd8382197140bbb",
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


def _without_key_audit(out: str, fmt: str) -> str:
    """A summary without Eve's sifted-key counters: the rest must not move when they do.

    json: the key_* entries of monitors.eve_audit; csv-summary: its
    monitors.eve_audit.key_* rows.
    """
    if fmt == "json":
        summary = json.loads(out)
        for key in ("key_rounds", "key_mismatches", "key_match_fraction"):
            summary["monitors"]["eve_audit"].pop(key, None)
        return json.dumps(summary, indent=2) + "\n"
    rows = [row for row in csv.reader(io.StringIO(out)) if not row[0].startswith("monitors.eve_audit.key_")]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def _assert_key_audit_free_digest(out: str, fmt: str, config) -> None:
    """A double-blind summary (one NO_KEY_AUDIT_DIGESTS pins) keeps its bytes other than Eve's key counters."""
    if config in NO_KEY_AUDIT_DIGESTS:
        assert _sha256(_without_key_audit(out, fmt).encode()) == NO_KEY_AUDIT_DIGESTS[config]


def test_every_double_blind_summary_has_a_key_audit_free_pin():
    summaries = [*SUMMARY_DIGESTS, *OPTION_DIGESTS, *EXTRA_SUMMARY_DIGESTS]
    double_blind = [c for c in summaries if c[0].startswith("double-") or c in OPTION_DIGESTS]
    assert set(double_blind) == set(NO_KEY_AUDIT_DIGESTS)


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
        _assert_key_audit_free_digest(out, "json", (scenario, protocol, seed))


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
        _assert_key_audit_free_digest(out, "csv-summary" if "csv" in options else "json", config)


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
        _assert_key_audit_free_digest(out, "json", option)


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
