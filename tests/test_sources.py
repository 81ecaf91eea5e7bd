"""Source models: faked-state pulses, honest pairs, intercept forwarding."""

from __future__ import annotations

import math

import numpy as np
import pytest

from blindsim.optics import Outcome, canon_angle, click_codes, split_intensities, wrap_diff
from blindsim.protocol import ProtocolConfig, SessionRecords, eve_prediction_report, sift_bbm92
from blindsim.sources import (
    CHUNK_ROUNDS,
    DEFAULT_ALPHA,
    ScenarioConfig,
    ScenarioKind,
    WeakSide,
    WeakSidePolicy,
    chunk_stream,
    faked_pulse_params,
    honest_outcome_codes,
    intercept_click_codes,
    intercept_pulse_directions,
    predict_outcome_codes,
    sample_lambda,
    weak_intensity,
    weak_side_codes,
)

BBM92_CFG = ScenarioConfig(kind=ScenarioKind.DOUBLE_BLIND_BBM92)
EKERT_CFG = ScenarioConfig(kind=ScenarioKind.DOUBLE_BLIND_EKERT)
SINGLE_CFG = ScenarioConfig(kind=ScenarioKind.SINGLE_BLINDING)
BB84_BASES = (0.0, math.pi / 4.0)


def _honest_pairs(rng, theta_a, theta_b, depolarize_prob=0.0):
    """Outcome codes of genuine pairs, one round per entry of theta_a/theta_b."""
    n = np.shape(theta_a)[0]
    a_coin = rng.integers(0, 2, n)
    u_flip = rng.random(n)
    depol_u = rng.random(n)
    a_repl = rng.integers(0, 2, n)
    b_repl = rng.integers(0, 2, n)
    return honest_outcome_codes(
        theta_a, theta_b, a_coin, u_flip, depol_u, a_repl, b_repl, depolarize_prob
    )


def _intercept(rng, n, theta_a=0.0):
    """Eve's intercept rounds: her basis, her outcome and Alice's outcome."""
    e_basis = np.asarray(BB84_BASES)[rng.integers(0, len(BB84_BASES), n)]
    alice_out, eve_out = _honest_pairs(rng, np.full(n, theta_a), e_basis)
    return alice_out, e_basis, eve_out


def test_default_alpha_and_weak_intensity():
    assert DEFAULT_ALPHA == pytest.approx(math.pi / (4.0 * math.sqrt(2.0)), abs=1e-15)
    iw = weak_intensity(DEFAULT_ALPHA)
    assert iw == pytest.approx(1.3850263578467297, abs=1e-12)
    assert 1.0 < iw < 2.0


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(kind="honest", depolarize_prob=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(kind="honest", depolarize_prob=-0.1)
    with pytest.raises(ValueError):
        ScenarioConfig(kind="double-bbm92", strong_intensity=1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(kind="double-bbm92", strong_intensity=2.5)
    with pytest.raises(ValueError):
        ScenarioConfig(kind="single-blinding", single_blind_intensity=1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(kind="single-blinding", single_blind_intensity=2.0)
    with pytest.raises(ValueError):
        ScenarioConfig(kind="double-ekert", alpha=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(kind="double-ekert", alpha=math.pi / 4.0)
    with pytest.raises(ValueError):
        ScenarioConfig(kind="no-such-scenario")


def test_scenario_config_coerces_strings():
    cfg = ScenarioConfig(kind="double-ekert", weak_side_policy="alternate")
    assert cfg.kind is ScenarioKind.DOUBLE_BLIND_EKERT
    assert cfg.weak_side_policy is WeakSidePolicy.ALTERNATE


def test_chunk_stream_validation_and_determinism():
    with pytest.raises(ValueError):
        chunk_stream(-1, 0)
    with pytest.raises(ValueError):
        chunk_stream(2**64, 0)
    with pytest.raises(ValueError):
        chunk_stream(0, -1)
    a = chunk_stream(5, 0).random(10)
    b = chunk_stream(5, 0).random(10)
    c = chunk_stream(5, 1).random(10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert CHUNK_ROUNDS == 65536


def test_sample_lambda_uniform_moments():
    rng = chunk_stream(21, 0)
    lam = sample_lambda(rng, 400_000)
    assert np.all((lam >= 0.0) & (lam < math.pi))
    assert float(np.mean(lam)) == pytest.approx(math.pi / 2.0, abs=0.004)
    assert float(np.var(lam)) == pytest.approx(math.pi**2 / 12.0, abs=0.01)


def test_weak_side_codes_policies():
    # the codes of a bin's side digits: two sides under random and alternate, else one
    for kind in ("honest", "single-blinding", "double-bbm92"):
        for policy in WeakSidePolicy:
            codes = weak_side_codes(ScenarioConfig(kind=kind, weak_side_policy=policy))
            np.testing.assert_array_equal(codes, [WeakSide.NONE])
            assert codes.dtype == np.int8
    for policy, sides in (
        ("random", [WeakSide.A, WeakSide.B]), ("alternate", [WeakSide.A, WeakSide.B]),
        ("fixed-a", [WeakSide.A]), ("fixed-b", [WeakSide.B]),
    ):
        codes = weak_side_codes(ScenarioConfig(kind="double-ekert", weak_side_policy=policy))
        np.testing.assert_array_equal(codes, sides)
        assert codes.dtype == np.int8


def test_faked_pulse_params_bbm92():
    lam = np.array([0.3, 2.9])
    ia, pa, ib, pb = faked_pulse_params(lam, BBM92_CFG, np.zeros(2, np.int8))
    assert np.all(ia == 2.0)
    assert np.all(ib == 2.0)
    np.testing.assert_allclose(pa, lam, atol=1e-15)
    np.testing.assert_allclose(pb, canon_angle(lam + math.pi / 2.0), atol=1e-15)


def test_faked_pulse_params_ekert_weak_assignment():
    lam = np.array([0.3, 0.3])
    sides = np.array([int(WeakSide.A), int(WeakSide.B)], np.int8)
    ia, pa, ib, pb = faked_pulse_params(lam, EKERT_CFG, sides)
    iw = weak_intensity(EKERT_CFG.alpha)
    assert ia[0] == pytest.approx(iw, abs=1e-15)
    assert ib[0] == 2.0
    assert ia[1] == 2.0
    assert ib[1] == pytest.approx(iw, abs=1e-15)


def test_emit_double_blind_bbm92_round():
    rng = chunk_stream(3, 0)
    n = 1000
    lam = sample_lambda(rng, n)
    sides = weak_side_codes(BBM92_CFG).take(np.zeros(n, np.intp))
    assert np.all(sides == int(WeakSide.NONE))
    ia, pa, ib, pb = faked_pulse_params(lam, BBM92_CFG, sides)
    assert np.all((lam >= 0.0) & (lam < math.pi))
    assert np.all(ia == 2.0)
    assert np.all(ib == 2.0)
    np.testing.assert_array_equal(pa, lam)
    np.testing.assert_allclose(pb, canon_angle(lam + math.pi / 2.0), atol=1e-15)


def test_emit_double_blind_ekert_round_and_alternation():
    cfg = ScenarioConfig(kind="double-ekert", weak_side_policy="alternate")
    rng = chunk_stream(4, 0)
    sides = weak_side_codes(cfg).take(np.arange(6) % 2)  # A on even rounds, B on odd ones
    assert sides.tolist() == [WeakSide.A, WeakSide.B] * 3
    ia, _, ib, _ = faked_pulse_params(sample_lambda(rng, 6), cfg, sides)
    iw = weak_intensity(cfg.alpha)
    np.testing.assert_allclose(ia[0::2], iw, atol=1e-15)
    assert np.all(ib[0::2] == 2.0)
    assert np.all(ia[1::2] == 2.0)
    np.testing.assert_allclose(ib[1::2], iw, atol=1e-15)


def test_strong_pulse_outcome_is_cosine_sign():
    # a station hit by the full-intensity pulse must answer sign(cos 2(lam - theta))
    rng = chunk_stream(6, 0)
    n = 50_000
    lam = sample_lambda(rng, n)
    theta = rng.uniform(0.0, math.pi, n)
    ia, pa, ib, pb = faked_pulse_params(lam, BBM92_CFG, np.zeros(n, np.int8))
    codes_a = click_codes(*split_intensities(ia, pa, theta))
    expected_a = np.sign(np.cos(2.0 * (lam - theta))).astype(np.int8)
    np.testing.assert_array_equal(codes_a, expected_a)
    # the partner pulse is rotated by pi/2, flipping the sign
    codes_b = click_codes(*split_intensities(ib, pb, theta))
    np.testing.assert_array_equal(codes_b, -expected_a)


def test_weak_pulse_band_structure():
    # weak station: + inside |delta| < alpha, silence in the middle band,
    # - beyond pi/2 - alpha
    alpha = EKERT_CFG.alpha
    rng = chunk_stream(7, 0)
    n = 200_000
    lam = sample_lambda(rng, n)
    sides = np.full(n, np.int8(WeakSide.A))
    ia, pa, ib, pb = faked_pulse_params(lam, EKERT_CFG, sides)
    codes = click_codes(*split_intensities(ia, pa, np.zeros(n)))
    delta = np.abs(wrap_diff(lam))
    margin = 1e-9
    plus_region = delta < alpha - margin
    dead_region = (delta > alpha + margin) & (delta < math.pi / 2.0 - alpha - margin)
    minus_region = delta > math.pi / 2.0 - alpha + margin
    assert np.all(codes[plus_region] == 1)
    assert np.all(codes[dead_region] == 0)
    assert np.all(codes[minus_region] == -1)
    # click probability of the weakened side: 4 * alpha / pi
    rate = float(np.mean(codes != 0))
    expected = 4.0 * alpha / math.pi
    assert rate == pytest.approx(expected, abs=0.004)


def test_honest_singlet_perfect_anticorrelation_at_matched_settings():
    a, b = _honest_pairs(chunk_stream(8, 0), np.full(200, 0.3), np.full(200, 0.3))
    assert set(a.tolist()) <= {Outcome.PLUS, Outcome.MINUS}
    np.testing.assert_array_equal(a, -b)


def test_honest_singlet_perfect_correlation_at_crossed_settings():
    theta = 0.4
    a, b = _honest_pairs(
        chunk_stream(9, 0), np.full(200, theta), np.full(200, theta + math.pi / 2.0)
    )
    np.testing.assert_array_equal(a, b)


def test_honest_singlet_cosine_law_and_balanced_marginals():
    n = 200_000
    delta = math.pi / 8.0
    a, b = _honest_pairs(chunk_stream(10, 0), np.zeros(n), np.full(n, delta))
    corr = float(np.mean(a.astype(np.int32) * b.astype(np.int32)))
    assert corr == pytest.approx(-math.cos(2.0 * delta), abs=0.005)
    assert float(np.mean(a == 1)) == pytest.approx(0.5, abs=0.005)
    assert float(np.mean(b == 1)) == pytest.approx(0.5, abs=0.005)


def test_honest_singlet_full_depolarization_kills_correlation():
    n = 200_000
    a, b = _honest_pairs(chunk_stream(11, 0), np.zeros(n), np.zeros(n), depolarize_prob=1.0)
    corr = float(np.mean(a.astype(np.int32) * b.astype(np.int32)))
    assert corr == pytest.approx(0.0, abs=0.006)


def test_single_blinding_round_shape():
    alice_out, e_basis, eve_out = _intercept(chunk_stream(13, 0), 1000)
    assert set(alice_out.tolist()) <= {Outcome.PLUS, Outcome.MINUS}
    assert set(eve_out.tolist()) <= {Outcome.PLUS, Outcome.MINUS}
    assert set(e_basis.tolist()) == set(BB84_BASES)
    expected = np.where(eve_out == Outcome.PLUS, e_basis, canon_angle(e_basis + math.pi / 2.0))
    direction = intercept_pulse_directions(e_basis, eve_out)
    np.testing.assert_allclose(direction, expected, atol=1e-15)


def test_single_blinding_bob_click_logic():
    # matched basis reproduces Eve's outcome; the diagonal basis splits the
    # pulse below threshold on both outputs and Bob stays silent
    _, e_basis, eve_out = _intercept(chunk_stream(14, 0), 300)
    same = intercept_click_codes(e_basis, eve_out, e_basis, SINGLE_CFG)
    np.testing.assert_array_equal(same, eve_out)
    other = np.where(e_basis == BB84_BASES[0], BB84_BASES[1], BB84_BASES[0])
    other_codes = intercept_click_codes(e_basis, eve_out, other, SINGLE_CFG)
    assert np.all(other_codes == Outcome.NO_CLICK)


def test_single_blinding_bob_rate_half():
    rng = chunk_stream(15, 0)
    n = 40_000
    _, e_basis, eve_out = _intercept(rng, n)
    theta_b = np.asarray(BB84_BASES)[rng.integers(0, 2, n)]
    codes = intercept_click_codes(e_basis, eve_out, theta_b, SINGLE_CFG)
    assert float(np.mean(codes != Outcome.NO_CLICK)) == pytest.approx(0.5, abs=0.01)


def test_intercept_pulse_directions():
    basis = np.array([0.0, 0.0, math.pi / 4.0])
    outcome = np.array([1, -1, -1], np.int8)
    out = intercept_pulse_directions(basis, outcome)
    np.testing.assert_allclose(
        out, [0.0, math.pi / 2.0, 3.0 * math.pi / 4.0], atol=1e-15
    )


def test_eve_predict_bbm92_examples():
    lam = np.array([0.1, 1.0])
    theta_a = np.array([0.0, 0.0])
    theta_b = np.array([0.0, math.pi / 4.0])
    pred_a, pred_b = predict_outcome_codes(lam, theta_a, theta_b, BBM92_CFG, np.zeros(2, np.int8))
    np.testing.assert_array_equal(pred_a, [Outcome.PLUS, Outcome.MINUS])
    np.testing.assert_array_equal(pred_b, [Outcome.MINUS, Outcome.MINUS])
    # weak_side is ignored for the strong/strong variant
    weak_a = np.full(2, np.int8(WeakSide.A))
    again_a, again_b = predict_outcome_codes(lam, theta_a, theta_b, BBM92_CFG, weak_a)
    np.testing.assert_array_equal(again_a, pred_a)
    np.testing.assert_array_equal(again_b, pred_b)


def test_eve_predict_ekert_weak_band_silence():
    # the weakened station inside the dead band predicts no click
    pred_a, pred_b = predict_outcome_codes(
        np.zeros(2), np.array([0.8, 0.1]), np.zeros(2), EKERT_CFG, np.full(2, np.int8(WeakSide.A))
    )
    np.testing.assert_array_equal(pred_a, [Outcome.NO_CLICK, Outcome.PLUS])
    np.testing.assert_array_equal(pred_b, [Outcome.MINUS, Outcome.MINUS])


def test_eve_predict_none_for_scenarios_without_hidden_state():
    # honest pairs and intercept rounds carry no hidden pulse state, so the
    # sifted key gets no faked-state Eve prediction
    for kind in ("honest", "single-blinding"):
        pc = ProtocolConfig(protocol="bbm92", rounds=2_000, seed=17)
        rec = SessionRecords.simulate(pc, ScenarioConfig(kind=kind))
        assert rec.hidden_lambda is None
        assert sift_bbm92(rec).bits_alice.size > 0
        assert "key_rounds" not in (eve_prediction_report(rec) or {})


def test_predict_outcome_codes_match_direct_measurement():
    rng = chunk_stream(16, 0)
    n = 20_000
    lam = sample_lambda(rng, n)
    theta_a = rng.uniform(0.0, math.pi, n)
    theta_b = rng.uniform(0.0, math.pi, n)
    coin = rng.integers(0, 2, n)
    sides = weak_side_codes(EKERT_CFG).take(coin)
    pred_a, pred_b = predict_outcome_codes(lam, theta_a, theta_b, EKERT_CFG, sides)
    ia, pa, ib, pb = faked_pulse_params(lam, EKERT_CFG, sides)
    direct_a = click_codes(*split_intensities(ia, pa, theta_a))
    direct_b = click_codes(*split_intensities(ib, pb, theta_b))
    np.testing.assert_array_equal(pred_a, direct_a)
    np.testing.assert_array_equal(pred_b, direct_b)
