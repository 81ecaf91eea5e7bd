"""Closed-form oracles, efficiency bounds, and the fair-sampling monitor."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from blindsim.analysis import (
    QUANTUM_CHSH_MAX,
    _chi2_sf,
    chsh_bound_conditional,
    chsh_bound_detection,
    estimate_efficiencies,
    expected_counts,
    fair_sampling_monitor,
    oracle_block,
    oracle_corr_bbm92,
    oracle_corr_ekert,
    oracle_corr_honest,
    oracle_eta,
    oracle_eta_conditional,
    oracle_weak_detection_prob,
    weak_side_detection_rate,
)
from blindsim.optics import wrap_diff
from blindsim.protocol import (
    ProtocolConfig,
    SessionRecords,
    bbm92_qber,
    chsh_score,
    correlation_estimate,
    eve_prediction_report,
    run_session,
)
from blindsim.sources import DEFAULT_ALPHA, ScenarioConfig

SQ2 = math.sqrt(2.0)


def test_oracle_corr_bbm92_frozen_points():
    assert oracle_corr_bbm92(0.0) == -1.0
    assert oracle_corr_bbm92(math.pi / 4.0) == pytest.approx(0.0, abs=1e-15)
    assert oracle_corr_bbm92(-math.pi / 4.0) == pytest.approx(0.0, abs=1e-15)
    assert oracle_corr_bbm92(math.pi / 2.0) == pytest.approx(1.0, abs=1e-15)
    assert oracle_corr_bbm92(math.pi / 8.0) == pytest.approx(-0.5, abs=1e-15)
    assert oracle_corr_bbm92(3.0 * math.pi / 8.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        oracle_corr_bbm92(2.0)


def test_oracle_corr_honest_cosine_law():
    assert oracle_corr_honest(0.0, 0.0) == -1.0
    assert oracle_corr_honest(math.pi / 4.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert oracle_corr_honest(math.pi / 8.0, 0.0) == pytest.approx(-SQ2 / 2.0, abs=1e-15)
    assert oracle_corr_honest(-math.pi / 2.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    # depolarization shrinks the whole curve by the visibility 1 - p
    assert oracle_corr_honest(0.0, 0.1) == pytest.approx(-0.9, abs=1e-15)
    assert oracle_corr_honest(0.3, 1.0) == 0.0
    with pytest.raises(ValueError, match="delta"):
        oracle_corr_honest(2.0, 0.0)
    with pytest.raises(ValueError, match="depolarize_prob"):
        oracle_corr_honest(0.0, 1.5)
    # the summary's oracle block reads this law off the expected counts of honest sources
    honest = ScenarioConfig(kind="honest", depolarize_prob=0.2)
    block = oracle_block(ProtocolConfig(protocol="ekert", rounds=10, seed=1), honest)
    assert block["chsh"] == pytest.approx(0.8 * 2.0 * SQ2, abs=1e-12)
    for pair in block["corr_pairs"]:
        assert pair["value"] == pytest.approx(oracle_corr_honest(pair["delta"], 0.2), abs=1e-12)


def test_oracle_corr_ekert_shape():
    a = DEFAULT_ALPHA
    assert oracle_corr_ekert(0.0, a) == -1.0
    assert oracle_corr_ekert(math.pi / 4.0, a) == pytest.approx(0.0, abs=1e-15)
    assert oracle_corr_ekert(math.pi / 2.0, a) == 1.0
    assert oracle_corr_ekert(-math.pi / 8.0, a) == pytest.approx(
        (math.pi / 8.0 - math.pi / 4.0) / a, abs=1e-15
    )
    with pytest.raises(ValueError):
        oracle_corr_ekert(0.0, 0.0)
    with pytest.raises(ValueError):
        oracle_corr_ekert(0.0, math.pi / 4.0)


def test_oracle_corr_ekert_continuous_at_breakpoints():
    a = DEFAULT_ALPHA
    lo = math.pi / 4.0 - a
    hi = math.pi / 4.0 + a
    eps = 1e-13
    assert abs(oracle_corr_ekert(lo - eps, a) - oracle_corr_ekert(lo + eps, a)) < 1e-11
    assert abs(oracle_corr_ekert(hi - eps, a) - oracle_corr_ekert(hi + eps, a)) < 1e-11
    assert oracle_corr_ekert(lo, a) == pytest.approx(-1.0, abs=1e-12)
    assert oracle_corr_ekert(hi, a) == pytest.approx(1.0, abs=1e-12)


def test_oracle_efficiencies_at_default_tuning():
    assert oracle_weak_detection_prob(DEFAULT_ALPHA) == pytest.approx(1.0 / SQ2, abs=1e-15)
    assert oracle_eta(DEFAULT_ALPHA) == pytest.approx(0.8535533905932737, abs=1e-15)
    assert oracle_eta_conditional(DEFAULT_ALPHA) == pytest.approx(
        0.8284271247461902, abs=1e-14
    )
    # eta_21 at the operating point equals 2*sqrt(2) - 2
    assert oracle_eta_conditional(DEFAULT_ALPHA) == pytest.approx(2.0 * SQ2 - 2.0, abs=1e-14)


def test_oracle_efficiencies_monotone_in_alpha():
    grid = np.linspace(0.02, math.pi / 4.0 - 0.02, 200)
    pw = [oracle_weak_detection_prob(a) for a in grid]
    eta = [oracle_eta(a) for a in grid]
    eta21 = [oracle_eta_conditional(a) for a in grid]
    assert all(x < y for x, y in zip(pw, pw[1:]))
    assert all(x < y for x, y in zip(eta, eta[1:]))
    assert all(x < y for x, y in zip(eta21, eta21[1:]))


# configurations outside the paper's closed forms: strong pulses below
# intensity 2, and single blinding with a custom Bob setting set
_OFF_DOMAIN = {
    "double-ekert-1.5": (
        ProtocolConfig(protocol="ekert", rounds=400_000, seed=1),
        ScenarioConfig(kind="double-ekert", strong_intensity=1.5),
    ),
    "double-bbm92-1.5": (
        ProtocolConfig(protocol="bbm92", rounds=400_000, seed=1),
        ScenarioConfig(kind="double-bbm92", strong_intensity=1.5),
    ),
    "single-blinding-custom-bob": (
        ProtocolConfig(protocol="bbm92", rounds=400_000, seed=1, bob_settings=(0.1, 0.9, 2.0)),
        ScenarioConfig(kind="single-blinding"),
    ),
}


@pytest.mark.parametrize("name", list(_OFF_DOMAIN))
def test_oracle_block_outside_the_closed_forms(name):
    pc, sc = _OFF_DOMAIN[name]
    session = run_session(pc, sc, audit=False)
    block = oracle_block(pc, sc)
    eff = estimate_efficiencies(session, n_emitted=len(session))
    if name == "double-ekert-1.5":
        # beyond Tsirelson's 2 sqrt(2): the closed forms said 2.83, 0.854 and 0.828
        assert block["chsh"] == pytest.approx(4.0, abs=1e-12)
        assert block["eta"] == pytest.approx(0.7454, abs=1e-4)
        assert block["eta_21"] == pytest.approx(0.7263, abs=1e-4)
        chsh = chsh_score(session)
        assert chsh.value == pytest.approx(block["chsh"], abs=5.0 * chsh.stderr + 1e-12)
        assert eff.eta_21 == pytest.approx(block["eta_21"], abs=5.0 * eff.eta_21_stderr)
    elif name == "double-bbm92-1.5":
        assert block["eta"] == pytest.approx(0.7837, abs=1e-4)  # the closed form said 1.0
        assert block["qber"] == 0.0
        assert bbm92_qber(session) == 0.0
    else:
        assert block["rate_b"] == pytest.approx(0.7778, abs=1e-4)  # the closed form said 0.5
        assert block["qber"] is None  # no setting of Bob's equals one of Alice's
        assert bbm92_qber(session) is None
        n = len(session)
        rate_b = block["rate_b"]
        assert eff.rate_b == pytest.approx(rate_b, abs=5.0 * math.sqrt(rate_b * (1.0 - rate_b) / n))
    assert eff.eta == pytest.approx(block["eta"], abs=5.0 * eff.eta_stderr)


# (protocol kwargs, scenario kwargs): every scenario and protocol, each
# weak-side policy, several alpha, strong_intensity and single_blind_intensity
# values, and custom setting sets
_FIT_CASES = [
    ({"protocol": "ekert"}, {"kind": "double-ekert"}),
    ({"protocol": "ekert"}, {"kind": "double-ekert", "strong_intensity": 1.5}),
    ({"protocol": "bbm92"}, {"kind": "double-bbm92", "strong_intensity": 1.2}),
    ({"protocol": "ekert"}, {"kind": "double-bbm92"}),
    (
        {"protocol": "bbm92", "rounds": 300_001},
        {"kind": "double-ekert", "weak_side_policy": "alternate", "alpha": 0.3},
    ),
    (
        {"protocol": "ekert"},
        {"kind": "double-ekert", "weak_side_policy": "fixed-a", "alpha": 0.1, "strong_intensity": 1.7},
    ),
    (
        {"protocol": "ekert", "alice_settings": (0.3, 1.1), "bob_settings": (0.2, 2.9, 1.0)},
        {"kind": "double-ekert", "weak_side_policy": "fixed-b", "alpha": 0.7, "strong_intensity": 1.01},
    ),
    ({"protocol": "ekert"}, {"kind": "honest"}),
    ({"protocol": "bbm92"}, {"kind": "honest", "depolarize_prob": 0.1}),
    (
        {"protocol": "ekert", "alice_settings": (0.0, 1.3), "bob_settings": (0.4, 2.2)},
        {"kind": "honest", "depolarize_prob": 0.3},
    ),
    ({"protocol": "bbm92"}, {"kind": "single-blinding"}),
    ({"protocol": "bbm92"}, {"kind": "single-blinding", "single_blind_intensity": 1.9, "depolarize_prob": 0.1}),
    (
        {"protocol": "bbm92", "bob_settings": (0.1, 0.9, 2.0)},
        {"kind": "single-blinding", "single_blind_intensity": 1.2},
    ),
]


@pytest.mark.parametrize("protocol_kwargs,scenario_kwargs", _FIT_CASES)
def test_expected_counts_fit_simulated_sessions(protocol_kwargs, scenario_kwargs):
    # a likelihood-ratio (G) test of the whole count tensor against its expected cells
    pc = ProtocolConfig(**{"rounds": 300_000, "seed": 17, **protocol_kwargs})
    sc = ScenarioConfig(**scenario_kwargs)
    probs = expected_counts(pc, sc)
    assert probs.shape == (len(pc.alice_settings), len(pc.bob_settings), 4, 4, 3)
    assert probs.min() >= 0.0 and probs.sum() == pytest.approx(1.0, abs=1e-12)
    counts = run_session(pc, sc, audit=False).counts
    assert counts[probs == 0.0].sum() == 0  # no round in a cell that cannot occur
    possible = probs > 0.0
    observed, expected = counts[possible], probs[possible] * pc.rounds
    seen = observed > 0
    g = 2.0 * float(np.sum(observed[seen] * np.log(observed[seen] / expected[seen])))
    assert _chi2_sf(int(possible.sum()) - 1, g) > 5.7e-7  # two-sided 5 sigma


# double-bbm92 under both protocols and double-ekert under every weak-side
# policy, each at three seeds fixed before the one-draw bin layout first ran
_BIN_DRAW_CASES = [("bbm92", "double-bbm92", "random"), ("ekert", "double-bbm92", "random")] + [
    ("ekert", "double-ekert", policy) for policy in ("random", "alternate", "fixed-a", "fixed-b")
]
_BIN_DRAW_SEEDS = (2201, 2202, 2203)


@pytest.mark.parametrize("protocol,scenario,policy", _BIN_DRAW_CASES)
def test_bin_draws_fit_the_expected_counts(protocol, scenario, policy):
    # a G-test of each audited session's count tensor against its expected
    # cells, and of the three sessions together (independent G statistics add,
    # as do their degrees of freedom); Eve's audit finds no mismatch in any
    sc = ScenarioConfig(kind=scenario, weak_side_policy=policy)
    total_g = total_dof = 0
    for seed in _BIN_DRAW_SEEDS:
        pc = ProtocolConfig(protocol=protocol, rounds=300_000, seed=seed)
        probs = expected_counts(pc, sc)
        session = run_session(pc, sc)
        assert eve_prediction_report(session)["mismatched_outcomes"] == 0
        counts = session.counts
        assert counts[probs == 0.0].sum() == 0
        possible = probs > 0.0
        observed, expected = counts[possible], probs[possible] * pc.rounds
        seen = observed > 0
        g = 2.0 * float(np.sum(observed[seen] * np.log(observed[seen] / expected[seen])))
        dof = int(possible.sum()) - 1
        assert _chi2_sf(dof, g) > 5.7e-7, seed  # two-sided 5 sigma
        total_g, total_dof = total_g + g, total_dof + dof
    assert _chi2_sf(total_dof, total_g) > 5.7e-7


def test_expected_counts_give_the_closed_forms_at_the_defaults():
    pc = ProtocolConfig(protocol="ekert", rounds=1)
    block = oracle_block(pc, ScenarioConfig(kind="double-ekert"))
    assert block["eta"] == pytest.approx(oracle_eta(DEFAULT_ALPHA), abs=1e-12)
    assert block["eta"] == pytest.approx(0.853553, abs=1e-6)
    assert block["eta_21"] == pytest.approx(2.0 * SQ2 - 2.0, abs=1e-12)
    weak = oracle_weak_detection_prob(DEFAULT_ALPHA)
    assert block["weak_detection_prob"] == pytest.approx(weak, abs=1e-12)
    assert block["chsh"] == pytest.approx(QUANTUM_CHSH_MAX, abs=1e-12)
    for pair in block["corr_pairs"]:
        assert pair["value"] == pytest.approx(oracle_corr_ekert(pair["delta"], DEFAULT_ALPHA), abs=1e-12)
    # at intensity 2 Eve gets the whole BBM92 key at unit efficiency, and E is linear in |delta|
    grid = tuple(np.linspace(-math.pi / 2.0, math.pi / 2.0, 13)[1:])
    pc = ProtocolConfig(protocol="bbm92", rounds=1, alice_settings=(0.0,), bob_settings=grid)
    block = oracle_block(pc, ScenarioConfig(kind="double-bbm92"))
    assert block["qber"] == pytest.approx(0.0, abs=1e-12)
    assert block["eta"] == pytest.approx(1.0, abs=1e-12)
    assert block["eta_21"] == pytest.approx(1.0, abs=1e-12)
    for pair in block["corr_pairs"]:
        assert pair["value"] == pytest.approx(oracle_corr_bbm92(wrap_diff(pair["delta"])), abs=1e-12)


def test_bounds_saturate_at_the_operating_point():
    # the attack's efficiencies land exactly on both local-model ceilings
    assert chsh_bound_conditional(oracle_eta_conditional(DEFAULT_ALPHA)) == pytest.approx(
        QUANTUM_CHSH_MAX, abs=1e-12
    )
    assert chsh_bound_detection(oracle_eta(DEFAULT_ALPHA)) == pytest.approx(
        QUANTUM_CHSH_MAX, abs=1e-12
    )


def test_bounds_edges_and_domains():
    assert chsh_bound_conditional(2.0 / 3.0) == pytest.approx(4.0, abs=1e-12)
    assert chsh_bound_conditional(1.0) == pytest.approx(2.0, abs=1e-12)
    assert chsh_bound_detection(0.75) == pytest.approx(4.0, abs=1e-12)
    assert chsh_bound_detection(1.0) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="eta_21"):
        chsh_bound_conditional(0.6)
    with pytest.raises(ValueError, match="eta_21"):
        chsh_bound_conditional(1.1)
    with pytest.raises(ValueError, match="eta"):
        chsh_bound_detection(0.7)
    with pytest.raises(ValueError, match="eta"):
        chsh_bound_detection(1.2)


def test_bounds_reject_non_finite_efficiencies():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="eta_21 must be finite"):
            chsh_bound_conditional(bad)
        with pytest.raises(ValueError, match="eta must be finite"):
            chsh_bound_detection(bad)


def test_bounds_monotone_decreasing():
    grid21 = np.linspace(2.0 / 3.0, 1.0, 100)
    vals21 = [chsh_bound_conditional(v) for v in grid21]
    assert all(x > y for x, y in zip(vals21, vals21[1:]))
    grid = np.linspace(0.75, 1.0, 100)
    vals = [chsh_bound_detection(v) for v in grid]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def _ekert_attack_session(rounds=200_000, seed=33):
    pc = ProtocolConfig(protocol="ekert", rounds=rounds, seed=seed)
    sc = ScenarioConfig(kind="double-ekert")
    return SessionRecords.simulate(pc, sc)


def test_estimate_efficiencies_matches_oracles():
    rec = _ekert_attack_session()
    eff = estimate_efficiencies(rec, n_emitted=len(rec))
    assert eff.eta == pytest.approx(oracle_eta(DEFAULT_ALPHA), abs=4.0 * eff.eta_stderr)
    assert eff.eta_21 == pytest.approx(
        oracle_eta_conditional(DEFAULT_ALPHA), abs=4.0 * eff.eta_21_stderr
    )
    assert eff.eta_stderr < 0.002
    assert eff.eta_21_stderr < 0.004
    assert (eff.rate_a + eff.rate_b) / 2.0 == pytest.approx(eff.eta, abs=1e-12)


def test_estimate_efficiencies_without_emission_count():
    rec = _ekert_attack_session(rounds=50_000)
    eff = estimate_efficiencies(rec)
    assert eff.eta is None
    assert eff.rate_a is None
    assert eff.rate_b is None
    assert eff.eta_stderr is None
    assert eff.n_emitted is None
    assert eff.eta_21 == pytest.approx(oracle_eta_conditional(DEFAULT_ALPHA), abs=0.01)
    with pytest.raises(ValueError, match="n_emitted"):
        estimate_efficiencies(rec, n_emitted=0)


def test_estimate_efficiencies_rejects_fewer_emissions_than_records():
    # every recorded round was emitted; a smaller count would give eta > 1
    rec = _ekert_attack_session(rounds=100_000)
    with pytest.raises(ValueError, match="n_emitted"):
        estimate_efficiencies(rec, n_emitted=10)
    with pytest.raises(ValueError, match="n_emitted"):
        estimate_efficiencies(rec, n_emitted=len(rec) - 1)
    # more emissions than records (lost rounds) stays allowed
    assert estimate_efficiencies(rec, n_emitted=2 * len(rec)).eta < 0.5


def test_estimate_efficiencies_refuses_a_fractional_emission_count():
    # int() would truncate len + 0.9 to len and report that count's eta
    pc = ProtocolConfig(protocol="ekert", rounds=20_000, seed=34)
    session = run_session(pc, ScenarioConfig(kind="double-ekert"), audit=False)
    for bad in (len(session) + 0.9, len(session) + 0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="n_emitted"):
            estimate_efficiencies(session, n_emitted=bad)
    # a whole number in float form is that count
    whole = estimate_efficiencies(session, n_emitted=float(len(session)))
    assert whole == estimate_efficiencies(session, n_emitted=len(session))


def test_counting_inequality_between_efficiencies():
    # coincidences >= singles_a + singles_b - rounds forces
    # eta_21 >= 2 - 1/eta whenever every emission is recorded
    for seed in range(40, 45):
        rec = _ekert_attack_session(rounds=30_000, seed=seed)
        eff = estimate_efficiencies(rec, n_emitted=len(rec))
        assert eff.eta_21 >= 2.0 - 1.0 / eff.eta - 1e-12


def test_weak_side_detection_rate():
    rec = _ekert_attack_session()
    rate = weak_side_detection_rate(rec)
    assert rate == pytest.approx(oracle_weak_detection_prob(DEFAULT_ALPHA), abs=0.005)
    pc = ProtocolConfig(protocol="bbm92", rounds=1_000, seed=1)
    strong = SessionRecords.simulate(pc, ScenarioConfig(kind="double-bbm92"))
    assert weak_side_detection_rate(strong) is None
    honest = SessionRecords.simulate(pc, ScenarioConfig(kind="honest"))
    assert weak_side_detection_rate(honest) is None


def test_fair_sampling_passes_for_honest_sessions():
    pc = ProtocolConfig(protocol="bbm92", rounds=100_000, seed=50)
    rec = SessionRecords.simulate(pc, ScenarioConfig(kind="honest"))
    report = fair_sampling_monitor(rec)
    assert report.verdict == "pass"
    assert [c.name for c in report.checks] == [
        "alice-click-rate",
        "bob-click-rate",
        "coincidence-rate",
    ]


def test_fair_sampling_passes_for_both_attacks():
    pc = ProtocolConfig(protocol="bbm92", rounds=100_000, seed=51)
    rec = SessionRecords.simulate(pc, ScenarioConfig(kind="double-bbm92"))
    assert fair_sampling_monitor(rec).verdict == "pass"
    rec = _ekert_attack_session(rounds=100_000, seed=52)
    assert fair_sampling_monitor(rec).verdict == "pass"


def _biased_records():
    # synthetic session whose click rate tracks Alice's setting: rate 1 at
    # setting 0, rate 0.5 at setting pi/4
    n_half = 2_000
    pc = ProtocolConfig(protocol="bbm92", rounds=2 * n_half, seed=0)
    sc = ScenarioConfig(kind="honest")
    # indices into the BBM92 settings (0, pi/4)
    a_idx = np.repeat([0, 1], n_half)
    b_idx = np.tile([0, 1], n_half)
    outcome_a = np.ones(2 * n_half, np.int8)
    outcome_a[n_half:] = np.tile([1, 0], n_half // 2).astype(np.int8)
    outcome_b = np.ones(2 * n_half, np.int8)
    outcome_b[::2] = -1
    return SessionRecords(
        pc, sc, a_idx, b_idx, outcome_a, outcome_b, np.zeros(2 * n_half, np.int8)
    )


def test_fair_sampling_fails_on_setting_dependent_rate():
    report = fair_sampling_monitor(_biased_records())
    assert report.verdict == "fail"
    alice = report.checks[0]
    assert alice.verdict == "fail"
    assert alice.p_value < 1e-6
    d = report.to_dict()
    assert d["verdict"] == "fail"
    assert d["checks"][0]["cells"][0]["rate"] == 1.0
    assert d["checks"][0]["cells"][1]["rate"] == 0.5


def test_fair_sampling_inconclusive_on_small_samples():
    pc = ProtocolConfig(protocol="bbm92", rounds=150, seed=53)
    rec = SessionRecords.simulate(pc, ScenarioConfig(kind="honest"))
    report = fair_sampling_monitor(rec)
    assert report.verdict == "inconclusive"


def test_fair_sampling_validation():
    pc = ProtocolConfig(protocol="bbm92", rounds=1_000, seed=54)
    rec = SessionRecords.simulate(pc, ScenarioConfig(kind="honest"))
    with pytest.raises(ValueError, match="significance"):
        fair_sampling_monitor(rec, significance=0.0)
    with pytest.raises(ValueError, match="significance"):
        fair_sampling_monitor(rec, significance=1.0)
    single = ProtocolConfig(
        protocol="bbm92", rounds=1_000, seed=55, alice_settings=(0.0,)
    )
    rec_single = SessionRecords.simulate(single, ScenarioConfig(kind="honest"))
    with pytest.raises(ValueError, match="settings"):
        fair_sampling_monitor(rec_single)


@pytest.mark.parametrize("dof", [1, 2, 3, 4, 8, 15, 63, 255, 1023, 16128])
def test_chi2_sf_matches_scipy(dof):
    # 16128 = 127**2 - 1, the coincidence check of the largest setting sets
    chdtrc = pytest.importorskip("scipy.special").chdtrc
    rng = np.random.default_rng(dof)
    statistics = np.concatenate([
        rng.chisquare(dof, 300), rng.uniform(0.0, 3.0 * dof + 50.0, 300),
        [dof + 1401.0, 4.0 * dof + 2000.0, 1e300],
    ])
    rel = 1e-12 if dof <= 255 else 1e-10
    tails = 0
    for x in statistics:
        expected, got = float(chdtrc(dof, x)), _chi2_sf(dof, float(x))
        assert 0.0 <= got <= 1.0
        if expected < 1e-300:
            tails += 1
            assert got < 1e-290, x
        else:
            assert got == pytest.approx(expected, rel=rel, abs=0.0), x
    assert tails >= 2
    assert _chi2_sf(dof, 0.0) == 1.0


def _per_round_stderrs(rec):
    """The per-round stderr formulas the count-tensor closed forms replace."""
    ca = (np.abs(rec.outcome_a) == 1).astype(np.float64)
    cb = (np.abs(rec.outcome_b) == 1).astype(np.float64)
    n = len(rec)
    s = (ca + cb) / 2.0
    eta_stderr = np.std(s, ddof=1) / math.sqrt(n)
    # ratio estimator x/y with x = coincidence indicator, y = clicks/2
    x = ca * cb
    r = 2.0 * x.sum() / (ca.sum() + cb.sum())
    resid = x - r * s
    eta_21_stderr = math.sqrt(np.mean(resid**2) / n) / np.mean(s)
    return eta_stderr, eta_21_stderr


@pytest.mark.parametrize("scenario,protocol,alpha", [
    ("double-ekert", "ekert", DEFAULT_ALPHA),
    ("double-ekert", "ekert", 0.3),
    ("single-blinding", "bbm92", DEFAULT_ALPHA),
])
def test_efficiency_stderrs_match_per_round_formulas(scenario, protocol, alpha):
    pc = ProtocolConfig(protocol=protocol, rounds=150_000, seed=60)
    rec = SessionRecords.simulate(pc, ScenarioConfig(kind=scenario, alpha=alpha))
    eff = estimate_efficiencies(rec, n_emitted=len(rec))
    eta_stderr, eta_21_stderr = _per_round_stderrs(rec)
    assert eff.eta_stderr == pytest.approx(eta_stderr, rel=1e-12, abs=0.0)
    assert eff.eta_21_stderr == pytest.approx(eta_21_stderr, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("protocol", ["bbm92", "ekert"])
def test_public_statistics_ignore_the_weak_side_column(protocol):
    pc = ProtocolConfig(protocol=protocol, rounds=80_000, seed=61)
    rec = SessionRecords.simulate(pc, ScenarioConfig(kind="double-ekert"))
    rolled = SessionRecords(
        rec.protocol, rec.scenario, rec.a_idx, rec.b_idx, rec.outcome_a, rec.outcome_b,
        np.roll(rec.weak_side, 1), hidden_lambda=rec.hidden_lambda,
    )
    assert not np.array_equal(rolled.counts, rec.counts)
    assert bbm92_qber(rolled) == bbm92_qber(rec)
    for a in pc.alice_settings:
        for b in pc.bob_settings:
            assert correlation_estimate(rolled, a, b) == correlation_estimate(rec, a, b)
    if protocol == "ekert":
        assert chsh_score(rolled) == chsh_score(rec)
    eff, eff_rolled = (estimate_efficiencies(r, n_emitted=len(r)) for r in (rec, rolled))
    assert (eff_rolled.eta, eff_rolled.eta_21) == (eff.eta, eff.eta_21)
    assert fair_sampling_monitor(rolled) == fair_sampling_monitor(rec)


def test_statistics_memory_does_not_grow_with_rounds():
    pc = ProtocolConfig(protocol="ekert", rounds=400_000, seed=62)
    rec = SessionRecords.simulate(pc, ScenarioConfig(kind="double-ekert"))
    for fn, bound_mb in (
        (fair_sampling_monitor, 1.0),
        (chsh_score, 1.0),
        (lambda r: estimate_efficiencies(r, n_emitted=len(r)), 1.0),
        (weak_side_detection_rate, 1.0),
        # the Eve audit replays the physics one chunk at a time
        (eve_prediction_report, 8.0),
    ):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn(rec)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20, (fn, peak)
