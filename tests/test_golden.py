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
    ("double-ekert", "bbm92", 1): "b543224f1e7f65ad1d27eee52590bf837298cd54f8735dd9755bcadf241114e4",
    ("double-ekert", "bbm92", 2): "34936e453fb3f0b76ea3ca9ec716d3613549120aaa8ea9979e64229399dd6654",
    ("double-ekert", "ekert", 1): "d31bafa476ebddf0a04c0b0145f39b74ad554b662cb3cc07b977255f8b2961f0",
    ("double-ekert", "ekert", 2): "80eab61c40adc87ee122075c17c91e874ef2e548ac0a38c92aad48470df2be4b",
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
    ("double-ekert", "bbm92", 1): "323b38f5a6e909551e86435a212cbed067c45b4485ffd5adf5a1738266752ffa",
    ("double-ekert", "bbm92", 2): "48cbdceef03a2835f725475231465ff840e9d050faad988df1ef5fe9d50b3675",
    ("double-ekert", "ekert", 1): "2f700dafbd521c2b2b246e16e4382f0e8c1886fcd0f2749ae8c937cceab07d20",
    ("double-ekert", "ekert", 2): "e6341e1b39f76dc4bdd576dcc00e143ac7da809b049256bcdef00bb0236a12a4",
}

# double-ekert ekert summaries, 150 000 rounds, seed 5, under the options the
# default matrix leaves at their defaults
OPTION_DIGESTS = {
    ("--weak-side", "alternate"): "9a2df7e7e2ad0e2da400b5ba774f67fb522de4a89842c286f3654905f19ad307",
    ("--weak-side", "fixed-a"): "af0907106154a326d0352f1eab18785758a06d1b0a851bbefae7bca1e0b33a5c",
    ("--weak-side", "fixed-b"): "6232ba025a78523fe14e33c772d48ca0a70e94661d5720ede9b9910214fa508e",
    ("--alpha", "0.3"): "0c8bd69afef776131a68e5287cc111b711076b7eaa3c220fe4d88200b2e4bd1a",
}

OPTION_NO_ORACLE_DIGESTS = {
    ("--weak-side", "alternate"): "acb4a44d870289ba92d53e6b27109f80d9eaee61d93f0a16e9aa3f431a8c78c4",
    ("--weak-side", "fixed-a"): "91d465bf74979d5a6064af11a1cd1f9c6660d650eac0ec96b418d208ed4bdf34",
    ("--weak-side", "fixed-b"): "b86658a7f66d6e743893bc597ece8770a9b2d44085986beaf9e09d316e471252",
    ("--alpha", "0.3"): "07a09126413c112c4f1be1f509f96ed3dd4eea00bc2b6c84947bd630b3d716c0",
}

# the double-blind summaries of the three tables above with Eve's sifted-key
# counters removed (_without_key_audit), pinned before those counters
# existed: every other byte of these summaries must stay as it was
NO_KEY_AUDIT_DIGESTS = {
    ("double-bbm92", "bbm92", 1): "f17c993b338b08340c2c915428435833c4d4051c748f699aeb8a59134ac8c0f9",
    ("double-bbm92", "bbm92", 2): "72f8b00899ea1c395085999493dd0cd841b2f55d60c64f7c5420bffb813fbdb6",
    ("double-bbm92", "ekert", 1): "79d32ea71691e03fa9f474063bc046e7b1e0f3e98cd97ff8843127983b696a99",
    ("double-bbm92", "ekert", 2): "8eb9db5a96632b83684285a59759f28d6ec6a0644367a17823b514cb75ce291b",
    ("double-ekert", "bbm92", 1): "6c60553825daa4046339ed63e54a1e467e1076893837d4e2537087b86908722d",
    ("double-ekert", "bbm92", 2): "8a30bd4f3a26253bf512aff76e0757b0e453a2ced505b235dca770a9e6802e78",
    ("double-ekert", "ekert", 1): "078260b24ae5151f080e5505aa37921e1dcff8db76f4707d38a1a4d8e176083f",
    ("double-ekert", "ekert", 2): "f32b0b7df7e749eb2f0d37a6d2180d39d941f21886dbdd60b278baeba2464d91",
    ("--weak-side", "alternate"): "76051a994ca1ac04c06f48d412cb422aa26298c187ba8d776f6f1337384a5505",
    ("--weak-side", "fixed-a"): "39cc85f1ee49c2aacedc0166ba878bb42f9c8b1ed6838d2b134973e1da22eccb",
    ("--weak-side", "fixed-b"): "80d3db0c8b46894bd1719388070f6d3902ca4005a2258e6b7e2ad3ea73a20ba7",
    ("--alpha", "0.3"): "3de8c7b7d34b5c2a73e28f0bc8240c565f1f03ab793e884fd6e4f3dea05f7013",
    ("double-ekert", "ekert", "--format", "csv"): "88035839ac961cf8753c472eb98005cd2681267568f01c44ca1d069a1f319315",
}

# `sweep --axis alpha` over [0.2, 0.7]: 4 steps, 70 000 rounds per point, seed 11
ALPHA_SWEEP_DIGEST = "7d8e89534e0124758916e868d9024b4492922f13a0b9f60766e186aaadbff31e"
ALPHA_SWEEP_NO_ORACLE_DIGEST = "761409fadc476645d620e092a17bf3b986b2a47bb687afe67c40a482ec24fe43"

# streamed sessions at strong_intensity 1.5, which no CLI flag reaches: the
# little-endian int64 count tensor followed by repr(eve_tally), 150 000 rounds, seed 6
STRONG_1_5_DIGESTS = {
    ("double-bbm92", "bbm92"): "39b753fa0035d59526a4cb9ca22e08200084b8a4539c71c87ce49a7959337855",
    ("double-ekert", "ekert"): "090f293cc71ada53c049dcd8c5d286d9893935692b45dd643a2355f0306fd62d",
}

# --records --eve-view dumps at 70 000 rounds (one full chunk plus a partial one), seed 3
RECORDS_DIGESTS = {
    ("honest", "ekert"): "854bcf2d900a77d6be217b6d99ee3a9c027cfcc01725f31b22ece59dd3e444f5",
    ("single-blinding", "bbm92"): "0122a0cadd91070da3e64331683f9244670c81166d723a2a54a06e0e63a9750d",
    ("double-bbm92", "bbm92"): "c689df27f2b8c340aff63288056ed520a7c3f2b4a68540e930dc3cebaf4fecb5",
    ("double-ekert", "ekert"): "48ca5335c69e49357e6d9d5881fcf3417c2868b5eb91f46c846c9122a9f1daa6",
}

# summaries outside the default matrix, 150 000 rounds, seed 4: the depolarized
# genuine-pair kernels (replacement branch, single blinding's Alice-Eve pair)
# and a --format csv summary
EXTRA_SUMMARY_DIGESTS = {
    ("honest", "bbm92", "--depolarize", "0.1"): "f532eaaf5a9cdd6c1cb9c9b794eda27325c147c4e597ab35539e27aa684a780e",
    ("honest", "ekert", "--depolarize", "0.1"): "97ded12e4a8a24140cb371e5e90c6e6a05a23d47c82019702b394aabeb7ae27d",
    ("single-blinding", "bbm92", "--depolarize", "0.1"): "0c73307f96d45674fc66b50e73544f3b2518cc82c96a70ddc2aa34bf0feb9cef",
    ("double-ekert", "ekert", "--format", "csv"): "a6f4bf486648060eb0c846d8f7a02a7d0c0fd0d26a07f0379124b3208eba8c12",
}

EXTRA_SUMMARY_NO_ORACLE_DIGESTS = {
    ("honest", "bbm92", "--depolarize", "0.1"): "2524ed5257c95c17afd6dd81eb8a8936b5fe33e78b10f74dbd76589692719ac3",
    ("honest", "ekert", "--depolarize", "0.1"): "d811a97ae5b525d9fbdf84975e623610ff741e45ad84beb27e03d8135783e1f5",
    ("single-blinding", "bbm92", "--depolarize", "0.1"): "73940674db2207817f159806bcd7167d2456f2ae9baa4e8eede392695fa2bd11",
    ("double-ekert", "ekert", "--format", "csv"): "fe8487bc608be2b97f7da130a28af5224b11b4fed0a5b5c38fd51a6013c966ea",
}

# --records dumps outside RECORDS_DIGESTS, 70 000 rounds, seed 3: depolarized
# genuine pairs and the alternate weak-side policy with --eve-view, and the
# writer's plain 6-column rows without it
RECORDS_OPTION_DIGESTS = {
    ("honest", "bbm92", "--depolarize", "0.1", "--eve-view"): "bf7628f38329eb2529ae84f08ca93888bc92ec91bad10f71e18e492669a3ac73",
    ("single-blinding", "bbm92", "--depolarize", "0.1", "--eve-view"): "a76bf93a261856aedcaff1afea13c106f21521d55e19f6f283f02f21806b44ca",
    ("double-ekert", "ekert", "--weak-side", "alternate", "--eve-view"): "10450e9f8f4ddbc5f8a8a3e9b77d4feaf796d1cfd1ed9388dc162cc15295cf16",
    ("double-ekert", "ekert"): "6eed748cb5b2a529495fd895b59680475bec4946124f8adf23c0afbb171b4764",
}

# `sweep --axis delta` tables over [-pi/2, pi/2]: 31 steps, 50 000 rounds per point, seed 9
SWEEP_DIGESTS = {
    "double-bbm92": "b9aa16a8c46cbacd577e0c9d87f479fa0799c82b8c61e0698745c65634d2920f",
    "double-ekert": "7d31cec78720abcb1bba7412ccf724c154183877a55aa39b07ad7b47ba238352",
}

SWEEP_NO_ORACLE_DIGESTS = {
    "double-bbm92": "c32ff84f4722d46561121ded72e88b6094245259b47980c361b2e9ff20d4194e",
    "double-ekert": "d53d9196a8a48d969a1f188e1a705881e38482ff16c5c2eb97f25193ec3408bf",
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
