"""Session engine, sifting, correlation estimates, and CHSH assembly."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from blindsim import protocol
from blindsim.optics import Outcome
from blindsim.protocol import (
    BBM92_SETTINGS,
    CHSH_QUAD,
    EKERT_ALICE_SETTINGS,
    EKERT_BOB_SETTINGS,
    ProtocolConfig,
    ProtocolKind,
    SessionRecords,
    chsh_score,
    chsh_select,
    chsh_value,
    correlation_estimate,
    eve_knowledge_audit,
    eve_prediction_report,
    public_rounds,
    run_session,
    sift_bbm92,
)
from blindsim.sources import CHUNK_ROUNDS, ScenarioConfig, ScenarioKind, WeakSide

SQ2 = math.sqrt(2.0)


def _session(scenario, protocol, rounds, seed, **kwargs):
    pc = ProtocolConfig(protocol=protocol, rounds=rounds, seed=seed, **kwargs)
    sc = ScenarioConfig(kind=scenario)
    return run_session(pc, sc)


def test_protocol_config_defaults():
    pc = ProtocolConfig(protocol="bbm92", rounds=10)
    assert pc.protocol is ProtocolKind.BBM92
    assert pc.alice_settings == BBM92_SETTINGS
    assert pc.bob_settings == BBM92_SETTINGS
    pe = ProtocolConfig(protocol="ekert", rounds=10)
    assert pe.alice_settings == EKERT_ALICE_SETTINGS
    assert pe.bob_settings == EKERT_BOB_SETTINGS


def test_protocol_config_validation_messages():
    with pytest.raises(ValueError, match="rounds"):
        ProtocolConfig(protocol="bbm92", rounds=0)
    with pytest.raises(ValueError, match="seed"):
        ProtocolConfig(protocol="bbm92", rounds=1, seed=-3)
    with pytest.raises(ValueError, match="alice_settings"):
        ProtocolConfig(protocol="bbm92", rounds=1, alice_settings=())
    with pytest.raises(ValueError, match="bob_settings"):
        # pi-periodic duplicates collapse to the same setting
        ProtocolConfig(protocol="bbm92", rounds=1, bob_settings=(0.0, math.pi))
    with pytest.raises(ValueError, match="alice_settings"):
        # closer than the matching tolerance modulo pi: one setting, not two
        ProtocolConfig(protocol="bbm92", rounds=1, alice_settings=(0.0, math.pi - 1e-13))
    with pytest.raises(ValueError):
        ProtocolConfig(protocol="e91", rounds=1)


def test_run_session_shapes_and_indexing():
    rec = _session("double-bbm92", "bbm92", 1000, 5)
    assert len(rec) == 1000
    assert rec.hidden_lambda is not None
    assert rec.eve_basis is None
    for col in ("theta_a", "theta_b", "outcome_a", "outcome_b", "weak_side"):
        assert getattr(rec, col).shape == (1000,)
    assert rec.hidden_lambda.shape == (1000,)
    assert rec.outcome_a[10] in (Outcome.PLUS, Outcome.MINUS)
    assert rec.weak_side[-1] == WeakSide.NONE


def test_run_session_rejects_bad_combinations():
    pc = ProtocolConfig(protocol="ekert", rounds=10)
    sc = ScenarioConfig(kind="single-blinding")
    with pytest.raises(ValueError, match="single-blinding"):
        run_session(pc, sc)
    with pytest.raises(ValueError, match="workers"):
        run_session(ProtocolConfig(protocol="bbm92", rounds=10), ScenarioConfig(kind="honest"), workers=0)


def test_run_session_deterministic_and_worker_independent():
    # more rounds than one chunk, so the multi-chunk path is exercised
    n = 70_000
    base = _session("double-ekert", "ekert", n, 9)
    again = _session("double-ekert", "ekert", n, 9)
    pc = ProtocolConfig(protocol="ekert", rounds=n, seed=9)
    sc = ScenarioConfig(kind="double-ekert")
    wide = run_session(pc, sc, workers=4)
    for col in ("theta_a", "theta_b", "outcome_a", "outcome_b", "weak_side", "hidden_lambda"):
        np.testing.assert_array_equal(getattr(base, col), getattr(again, col))
        np.testing.assert_array_equal(getattr(base, col), getattr(wide, col))
    other_seed = _session("double-ekert", "ekert", n, 10)
    assert not np.array_equal(base.outcome_a, other_seed.outcome_a)


def test_run_session_prefix_stability():
    # extending a session only appends rounds; the prefix is untouched
    short = _session("double-bbm92", "bbm92", 500, 3)
    long = _session("double-bbm92", "bbm92", 2000, 3)
    for col in ("theta_a", "theta_b", "outcome_a", "outcome_b", "hidden_lambda"):
        np.testing.assert_array_equal(getattr(short, col), getattr(long, col)[:500])


def test_sift_bbm92_attack_yields_zero_qber_and_full_knowledge():
    rec = _session("double-bbm92", "bbm92", 40_000, 7)
    key, qber = sift_bbm92(rec)
    assert qber == 0.0
    assert key.bits_alice.size > 8000
    np.testing.assert_array_equal(key.bits_alice, key.bits_bob)
    assert key.bits_eve is not None
    np.testing.assert_array_equal(key.bits_eve, key.bits_bob)
    assert eve_knowledge_audit(rec, key) == 1.0


def test_sift_bbm92_honest_depolarized_qber():
    pc = ProtocolConfig(protocol="bbm92", rounds=400_000, seed=21)
    sc = ScenarioConfig(kind="honest", depolarize_prob=0.1)
    rec = run_session(pc, sc)
    key, qber = sift_bbm92(rec)
    # each replaced pair disagrees half the time: qber = depolarize / 2
    assert qber == pytest.approx(0.05, abs=0.002)
    assert key.bits_eve is None
    assert eve_knowledge_audit(rec, key) is None


def test_sift_bbm92_empty_when_settings_never_match():
    pc = ProtocolConfig(
        protocol="bbm92", rounds=200, seed=1,
        alice_settings=(0.0,), bob_settings=(math.pi / 8.0,),
    )
    rec = run_session(pc, ScenarioConfig(kind="honest"))
    key, qber = sift_bbm92(rec)
    assert qber is None
    assert key.bits_alice.size == 0
    assert eve_knowledge_audit(rec, key) is None


def test_public_projection_carries_no_source_secrets():
    rec = _session("double-ekert", "bbm92", 5_000, 2)
    pub = public_rounds(rec)
    assert not hasattr(pub, "hidden_lambda")
    assert not hasattr(pub, "weak_side")
    key, _ = sift_bbm92(rec)
    # tampering with the hidden column must leave the public key bits alone
    tampered = SessionRecords(
        rec.protocol,
        rec.scenario,
        rec.a_idx,
        rec.b_idx,
        rec.outcome_a,
        rec.outcome_b,
        rec.weak_side,
        hidden_lambda=np.roll(rec.hidden_lambda, 1),
    )
    key2, _ = sift_bbm92(tampered)
    np.testing.assert_array_equal(key.bits_alice, key2.bits_alice)
    np.testing.assert_array_equal(key.bits_bob, key2.bits_bob)


def test_correlation_estimate_no_coincidences():
    pc = ProtocolConfig(protocol="bbm92", rounds=100, seed=1)
    rec = run_session(pc, ScenarioConfig(kind="honest"))
    est = correlation_estimate(rec, 0.3, 0.4)
    assert est.value is None
    assert est.stderr is None
    assert est.n_coincidences == 0


def test_correlation_estimate_honest_pair():
    pc = ProtocolConfig(
        protocol="bbm92", rounds=200_000, seed=22,
        alice_settings=(0.0,), bob_settings=(math.pi / 8.0,),
    )
    rec = run_session(pc, ScenarioConfig(kind="honest"))
    est = correlation_estimate(rec, 0.0, math.pi / 8.0)
    assert est.n_coincidences == 200_000
    assert est.value == pytest.approx(-math.cos(math.pi / 4.0), abs=0.005)
    expected_se = math.sqrt((1.0 - est.value**2) / est.n_coincidences)
    assert est.stderr == pytest.approx(expected_se, rel=1e-12)


def test_correlation_depends_only_on_setting_difference():
    # the same offset at two absolute orientations gives the same correlation
    delta = math.pi / 8.0
    phi = 0.37
    pc1 = ProtocolConfig(
        protocol="bbm92", rounds=150_000, seed=23,
        alice_settings=(0.0,), bob_settings=(delta,),
    )
    pc2 = ProtocolConfig(
        protocol="bbm92", rounds=150_000, seed=24,
        alice_settings=(phi,), bob_settings=(phi + delta,),
    )
    sc = ScenarioConfig(kind="double-bbm92")
    e1 = correlation_estimate(run_session(pc1, sc), 0.0, delta)
    e2 = correlation_estimate(run_session(pc2, sc), phi, phi + delta)
    spread = math.hypot(e1.stderr, e2.stderr)
    assert abs(e1.value - e2.value) < 4.0 * spread + 1e-9


def test_chsh_value_is_plain_arithmetic():
    assert chsh_value(-SQ2 / 2.0, SQ2 / 2.0, -SQ2 / 2.0, -SQ2 / 2.0) == pytest.approx(
        2.0 * SQ2, abs=1e-15
    )
    assert chsh_value(0.5, 0.5, 0.5, 0.5) == 1.0
    assert chsh_value(-1.0, 1.0, -1.0, -1.0) == 4.0


def test_chsh_value_relabeling_invariance():
    rng = np.random.default_rng(31)
    for _ in range(100):
        e = rng.uniform(-1.0, 1.0, 4)
        # exchanging the parties maps (a,a',b,b') to (b',b,a',a) and keeps
        # the subtracted pair the same physical pair
        direct = chsh_value(e[0], e[1], e[2], e[3])
        swapped = chsh_value(e[3], e[1], e[2], e[0])
        assert direct == pytest.approx(swapped, abs=1e-12)
        flipped = chsh_value(-e[0], -e[1], -e[2], -e[3])
        assert direct == pytest.approx(flipped, abs=1e-12)


def test_chsh_select_validates_settings():
    rec = _session("honest", "ekert", 1_000, 4)
    with pytest.raises(ValueError, match="a_prime"):
        chsh_select(rec, 0.0, 0.33, math.pi / 8.0, 3.0 * math.pi / 8.0)
    with pytest.raises(ValueError, match="b="):
        chsh_select(rec, 0.0, math.pi / 4.0, 0.21, 3.0 * math.pi / 8.0)


def test_chsh_score_honest_reaches_quantum_value():
    rec = _session("honest", "ekert", 300_000, 25)
    res = chsh_score(rec)
    assert res.value == pytest.approx(2.0 * SQ2, abs=5.0 * res.stderr)
    assert res.stderr < 0.02
    assert [
        (p.theta_a, p.theta_b) for p in res.pairs
    ] == [
        (CHSH_QUAD[0], CHSH_QUAD[2]),
        (CHSH_QUAD[0], CHSH_QUAD[3]),
        (CHSH_QUAD[1], CHSH_QUAD[2]),
        (CHSH_QUAD[1], CHSH_QUAD[3]),
    ]


def test_chsh_score_attack_reaches_quantum_value():
    rec = _session("double-ekert", "ekert", 300_000, 26)
    res = chsh_score(rec)
    assert res.value == pytest.approx(2.0 * SQ2, abs=5.0 * res.stderr)


def test_chsh_score_flags_missing_pairs():
    # one-setting-per-side sessions cannot form the quad
    pc = ProtocolConfig(
        protocol="ekert", rounds=100, seed=1,
        alice_settings=CHSH_QUAD[:2], bob_settings=(CHSH_QUAD[2],),
    )
    rec = run_session(pc, ScenarioConfig(kind="honest"))
    with pytest.raises(ValueError, match="b_prime"):
        chsh_score(rec)


def test_chsh_score_snaps_settings_within_tolerance():
    # an angle accepted within tolerance is counted as the configured setting
    rec = _session("double-ekert", "ekert", 100_000, 34)
    a, a_prime, b, b_prime = CHSH_QUAD
    nudged = chsh_score(rec, (a, a_prime, b + 1e-13, b_prime))
    assert nudged == chsh_score(rec)
    assert nudged.value is not None


def test_chsh_score_none_when_a_pair_has_no_coincidences():
    # a single round populates one setting pair at most; the score is
    # undefined and flagged rather than reported as zero
    pc = ProtocolConfig(protocol="ekert", rounds=1, seed=2)
    rec = run_session(pc, ScenarioConfig(kind="honest"))
    res = chsh_score(rec)
    assert res.value is None
    assert res.stderr is None
    assert len(res.pairs) == 4


def test_eve_prediction_report_modes():
    faked = _session("double-ekert", "ekert", 20_000, 27)
    rep = eve_prediction_report(faked)
    assert rep["mode"] == "faked-state"
    assert rep["rounds"] == 20_000
    assert rep["mismatched_outcomes"] == 0
    assert rep["match_fraction"] == 1.0

    intercept = _session("single-blinding", "bbm92", 20_000, 28)
    rep = eve_prediction_report(intercept)
    assert rep["mode"] == "intercept"
    assert rep["mismatched_clicks"] == 0
    assert rep["match_fraction"] == 1.0
    assert rep["bob_clicks"] == pytest.approx(10_000, abs=400)

    honest = _session("honest", "bbm92", 1_000, 29)
    assert eve_prediction_report(honest) is None


def test_single_blinding_session_statistics():
    rec = _session("single-blinding", "bbm92", 100_000, 30)
    assert float(np.mean(rec.clicked_a)) == 1.0
    assert float(np.mean(rec.clicked_b)) == pytest.approx(0.5, abs=0.005)
    key, qber = sift_bbm92(rec)
    # Bob only clicks when Eve guessed his basis, and then he copies her
    assert qber == 0.0


def test_chsh_score_matches_settings_modulo_pi():
    # pi - 1e-13 lies within 1e-13 of setting 0 once angles wrap at pi
    rec = _session("double-ekert", "ekert", 100_000, 34)
    a, a_prime, b, b_prime = CHSH_QUAD
    wrapped = chsh_score(rec, (math.pi - 1e-13, a_prime, b, b_prime))
    assert wrapped == chsh_score(rec)


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records the requested size, maps serially."""

    requested: list = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_run_session_clamps_worker_pool(monkeypatch):
    monkeypatch.setattr(protocol, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "requested", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    pc = ProtocolConfig(protocol="bbm92", rounds=CHUNK_ROUNDS + 1, seed=3)
    sc = ScenarioConfig(kind="honest")
    wide = run_session(pc, sc, workers=8)
    assert _RecordingPool.requested == [2]
    np.testing.assert_array_equal(wide.outcome_b, run_session(pc, sc).outcome_b)
    # an unknown CPU count means one worker and no pool at all
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_session(pc, sc, workers=8)
    assert _RecordingPool.requested == [2]


@pytest.mark.parametrize("scenario,proto", [
    ("honest", "ekert"), ("single-blinding", "bbm92"),
    ("double-bbm92", "bbm92"), ("double-ekert", "ekert"),
])
def test_count_tensor_covers_every_round(scenario, proto):
    rec = _session(scenario, proto, 70_000, 12)
    n_a, n_b = len(rec.protocol.alice_settings), len(rec.protocol.bob_settings)
    assert rec.counts.shape == (n_a, n_b, 4, 4, 3)
    assert rec.counts.sum() == len(rec)
    # a cell is the number of rounds with exactly that index tuple
    assert rec.counts[1, 0, 2, 0, int(rec.weak_side[0])] == np.count_nonzero(
        (rec.a_idx == 1) & (rec.b_idx == 0) & (rec.outcome_a == 1) & (rec.outcome_b == -1)
        & (rec.weak_side == rec.weak_side[0])
    )


def test_session_records_reject_out_of_range_codes():
    rec = _session("double-ekert", "ekert", 100, 13)
    columns = {
        "a_idx": rec.a_idx, "b_idx": rec.b_idx, "outcome_a": rec.outcome_a,
        "outcome_b": rec.outcome_b, "weak_side": rec.weak_side,
    }
    for name, bad in (
        ("a_idx", 3), ("a_idx", -1), ("b_idx", 3), ("outcome_a", 3),
        ("outcome_b", -2), ("weak_side", 3),
    ):
        col = columns[name].copy()
        col[7] = bad
        with pytest.raises(ValueError):
            SessionRecords(rec.protocol, rec.scenario, **{**columns, name: col})
    # setting angles where indices belong are refused, not truncated
    with pytest.raises(TypeError):
        SessionRecords(rec.protocol, rec.scenario, **{**columns, "a_idx": rec.theta_a})


def test_thetas_are_derived_from_setting_indices():
    rec = _session("honest", "ekert", 1_000, 14)
    np.testing.assert_array_equal(rec.theta_a, np.asarray(EKERT_ALICE_SETTINGS)[rec.a_idx])
    np.testing.assert_array_equal(rec.theta_b, np.asarray(EKERT_BOB_SETTINGS)[rec.b_idx])
    with pytest.raises(AttributeError):
        rec.theta_a = rec.theta_b


def test_correlation_estimate_matches_per_round_products():
    # the per-round mask-and-mean the count tensor replaced, as the reference
    rec = _session("double-ekert", "ekert", 70_000, 15)
    for a in EKERT_ALICE_SETTINGS:
        for b in EKERT_BOB_SETTINGS:
            mask = (rec.theta_a == a) & (rec.theta_b == b) & rec.clicked_a & rec.clicked_b
            products = rec.outcome_a[mask].astype(np.int32) * rec.outcome_b[mask].astype(np.int32)
            est = correlation_estimate(rec, a, b)
            assert est.n_coincidences == np.count_nonzero(mask)
            assert est.value == float(np.mean(products))
