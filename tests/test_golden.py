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
    ("double-bbm92", "bbm92", 1): "22c926c47c63cb8cddb3184b4bb92d522aac0ad426ee6fde6fe9dcd7be71d185",
    ("double-bbm92", "bbm92", 2): "b0cae596fe3f0b557a6ea560e2c7945eaca92026eb12009ec1ac9da807163abb",
    ("double-bbm92", "ekert", 1): "b2becee8d2972f4eb43ed4da4a8ebc2055ff16988f688fff039b88fbbe124307",
    ("double-bbm92", "ekert", 2): "2d6cd358624bb380011d80d57a78202095d47fcd5594372af8d2dcaf32ee5962",
    ("double-ekert", "bbm92", 1): "892d6d39237ba3900f3f096f391123d5542cefa87f4001411309d5b0995e693a",
    ("double-ekert", "bbm92", 2): "2f78fcd1900efefe83af427ef7c805c8fd062fa03d5899acae957fdfa23fe329",
    ("double-ekert", "ekert", 1): "b3050af314ac5757c3269996414bada286d113e0be2d562a230a2a3d75c68935",
    ("double-ekert", "ekert", 2): "7da4b509e8a27e4ead24d678593ed66395284767730d0d132a375150e146978e",
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
    ("double-bbm92", "bbm92", 1): "465756a9746307f56f61dd13ef11023c5c78be0cb76f9508e540f538dbb0fd27",
    ("double-bbm92", "bbm92", 2): "18c296d0422cb0415f99b4b6f342f02fe4437e121c986fdbc5e353dcc3cc254d",
    ("double-bbm92", "ekert", 1): "02a356fe7db33d2e9c2dd038d5106470651350bf7d4fe45642658aa4344bcca8",
    ("double-bbm92", "ekert", 2): "de67fe33d8e8023ba1138b95ce74182f95a6106d914c1fac493644120a37b27d",
    ("double-ekert", "bbm92", 1): "a93cecda7592195df5e8a7f2259e83a0fe7277f84b6da543c9f7e3efca24a4e8",
    ("double-ekert", "bbm92", 2): "af28a0e138d83cccd16ec316fc45cebf8cb12a34041c92290c419e336a4ccd32",
    ("double-ekert", "ekert", 1): "7b6e6dfcbcbc71c63d118d57bc2866b6916537f85bdcc0e6ca4fa42794f1b5b7",
    ("double-ekert", "ekert", 2): "a5cd6ac0037a1b7e0de3b210abb32c1de9fc20c7bc088f8af8b4b71c1ad34741",
}

# double-ekert ekert summaries, 150 000 rounds, seed 5, under the options the
# default matrix leaves at their defaults
OPTION_DIGESTS = {
    ("--weak-side", "alternate"): "22e4cebd71939c4c516ebf944e41bb45361c509a6781cec0a139ce1c59a1ca53",
    ("--weak-side", "fixed-a"): "d2b24a4c728b2e7908dd61ab99374bf56adedf368fb4f338854498f1ea888f87",
    ("--weak-side", "fixed-b"): "d784488c83eaa94c096c139685f7259350116e1bc7a5372356856157c436eec2",
    ("--alpha", "0.3"): "71044488876cac30954f5c7e186e7f3598939bc7d294cca770fca6937f6cbc84",
}

OPTION_NO_ORACLE_DIGESTS = {
    ("--weak-side", "alternate"): "498d018242c99df7f3dbaef27325b0226df0c0a248ec6c0975256e2ba9a83ffb",
    ("--weak-side", "fixed-a"): "3d504c761559c522b04a56c0463a33536a7723280abd346e2f1aa90289313478",
    ("--weak-side", "fixed-b"): "51539abc96f1c34d6f2541bbe4475f64bef23abf991a5ce75bc8f4c005bab125",
    ("--alpha", "0.3"): "f12e1322079821ea14fa77518492182d1a5233d9b15858fb09040816de6bb66a",
}

# `sweep --axis alpha` over [0.2, 0.7]: 4 steps, 70 000 rounds per point, seed 11
ALPHA_SWEEP_DIGEST = "256d16d35540d63c90e8c6872524beda9ab9991a3560b09214f4b134c5a41323"
ALPHA_SWEEP_NO_ORACLE_DIGEST = "e16e60b4023510c55119dc03447080ba101972efdab3f52bfbee5f296aaa15ac"

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
    ("honest", "bbm92", "--depolarize", "0.1"): "f532eaaf5a9cdd6c1cb9c9b794eda27325c147c4e597ab35539e27aa684a780e",
    ("honest", "ekert", "--depolarize", "0.1"): "97ded12e4a8a24140cb371e5e90c6e6a05a23d47c82019702b394aabeb7ae27d",
    ("single-blinding", "bbm92", "--depolarize", "0.1"): "0c73307f96d45674fc66b50e73544f3b2518cc82c96a70ddc2aa34bf0feb9cef",
    ("double-ekert", "ekert", "--format", "csv"): "4c22e45d9e90b3b8072ac0201210f59a2d774571315d463b9326754960c07e2c",
}

EXTRA_SUMMARY_NO_ORACLE_DIGESTS = {
    ("honest", "bbm92", "--depolarize", "0.1"): "2524ed5257c95c17afd6dd81eb8a8936b5fe33e78b10f74dbd76589692719ac3",
    ("honest", "ekert", "--depolarize", "0.1"): "d811a97ae5b525d9fbdf84975e623610ff741e45ad84beb27e03d8135783e1f5",
    ("single-blinding", "bbm92", "--depolarize", "0.1"): "73940674db2207817f159806bcd7167d2456f2ae9baa4e8eede392695fa2bd11",
    ("double-ekert", "ekert", "--format", "csv"): "4abc99e7ab57d6fafc1d204b34064350f0b5ad868c9a547ff076bb41add8ab66",
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
    "double-bbm92": "59b15765055d1985d279c2c2d833d1600d72c5d08cbcbe19a9c65c1f9958b713",
    "double-ekert": "5ad8a2bed69ac2281d88f1caaf21e0545a87c12d7a674b24d4247442b24b5645",
}

SWEEP_NO_ORACLE_DIGESTS = {
    "double-bbm92": "768a1708e8f96d926cfe9284fe6902abbe2858a52ba772f1383e3f08c97a9ccf",
    "double-ekert": "4f9b8b260957ecd588d7405bff118133e1bff4f78afa83e58b6bd2c73b38c285",
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
