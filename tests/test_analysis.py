"""Closed-form oracles, efficiency bounds, and the fair-sampling monitor."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from blindsim.analysis import (
    QUANTUM_CHSH_MAX,
    chsh_bound_conditional,
    chsh_bound_detection,
    estimate_efficiencies,
    fair_sampling_monitor,
    oracle_block,
    oracle_corr_bbm92,
    oracle_corr_ekert,
    oracle_corr_fn,
    oracle_corr_honest,
    oracle_eta,
    oracle_eta_conditional,
    oracle_weak_detection_prob,
    weak_side_detection_rate,
)
from blindsim.protocol import (
    ProtocolConfig,
    SessionRecords,
    chsh_score,
    correlation_estimate,
    eve_prediction_report,
    run_session,
    sift_bbm92,
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
    # the summary's oracle picks this law for honest sources, none for single blinding
    honest = ScenarioConfig(kind="honest", depolarize_prob=0.2)
    assert oracle_corr_fn(honest)(0.3) == oracle_corr_honest(0.3, 0.2)
    assert oracle_corr_fn(ScenarioConfig(kind="single-blinding")) is None
    rec = run_session(ProtocolConfig(protocol="ekert", rounds=10, seed=1), honest)
    block = oracle_block(rec)
    assert block["chsh"] == pytest.approx(0.8 * 2.0 * SQ2, abs=1e-12)
    for pair in block["corr_pairs"]:
        assert pair["value"] == oracle_corr_honest(pair["delta"], 0.2)


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
    return run_session(pc, sc)


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
    strong = run_session(pc, ScenarioConfig(kind="double-bbm92"))
    assert weak_side_detection_rate(strong) is None
    honest = run_session(pc, ScenarioConfig(kind="honest"))
    assert weak_side_detection_rate(honest) is None


def test_fair_sampling_passes_for_honest_sessions():
    pc = ProtocolConfig(protocol="bbm92", rounds=100_000, seed=50)
    rec = run_session(pc, ScenarioConfig(kind="honest"))
    report = fair_sampling_monitor(rec)
    assert report.verdict == "pass"
    assert [c.name for c in report.checks] == [
        "alice-click-rate",
        "bob-click-rate",
        "coincidence-rate",
    ]


def test_fair_sampling_passes_for_both_attacks():
    pc = ProtocolConfig(protocol="bbm92", rounds=100_000, seed=51)
    rec = run_session(pc, ScenarioConfig(kind="double-bbm92"))
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
    rec = run_session(pc, ScenarioConfig(kind="honest"))
    report = fair_sampling_monitor(rec)
    assert report.verdict == "inconclusive"


def test_fair_sampling_validation():
    pc = ProtocolConfig(protocol="bbm92", rounds=1_000, seed=54)
    rec = run_session(pc, ScenarioConfig(kind="honest"))
    with pytest.raises(ValueError, match="significance"):
        fair_sampling_monitor(rec, significance=0.0)
    with pytest.raises(ValueError, match="significance"):
        fair_sampling_monitor(rec, significance=1.0)
    single = ProtocolConfig(
        protocol="bbm92", rounds=1_000, seed=55, alice_settings=(0.0,)
    )
    rec_single = run_session(single, ScenarioConfig(kind="honest"))
    with pytest.raises(ValueError, match="settings"):
        fair_sampling_monitor(rec_single)


def _per_round_stderrs(rec):
    """The per-round stderr formulas the count-tensor closed forms replace."""
    ca = rec.clicked_a.astype(np.float64)
    cb = rec.clicked_b.astype(np.float64)
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
    rec = run_session(pc, ScenarioConfig(kind=scenario, alpha=alpha))
    eff = estimate_efficiencies(rec, n_emitted=len(rec))
    eta_stderr, eta_21_stderr = _per_round_stderrs(rec)
    assert eff.eta_stderr == pytest.approx(eta_stderr, rel=1e-12, abs=0.0)
    assert eff.eta_21_stderr == pytest.approx(eta_21_stderr, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("protocol", ["bbm92", "ekert"])
def test_public_statistics_ignore_the_weak_side_column(protocol):
    pc = ProtocolConfig(protocol=protocol, rounds=80_000, seed=61)
    rec = run_session(pc, ScenarioConfig(kind="double-ekert"))
    rolled = SessionRecords(
        rec.protocol, rec.scenario, rec.a_idx, rec.b_idx, rec.outcome_a, rec.outcome_b,
        np.roll(rec.weak_side, 1), hidden_lambda=rec.hidden_lambda,
    )
    assert not np.array_equal(rolled.counts, rec.counts)
    assert sift_bbm92(rolled)[1] == sift_bbm92(rec)[1]
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
    rec = run_session(pc, ScenarioConfig(kind="double-ekert"))
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
