"""Angle handling, Malus splitting, and strict-threshold click logic."""

from __future__ import annotations

import math

import numpy as np
import pytest

from blindsim.optics import (
    HALF_PERIOD,
    Outcome,
    canon_angle,
    click_codes,
    quarter_turn,
    split_intensities,
    window_codes,
    window_half_width,
    wrap_diff,
)
from blindsim.sources import ScenarioConfig, faked_pulse_params, predict_outcome_codes


def _measure(intensity, polarization, setting):
    """Send pulses through a station: Malus split, then strict threshold."""
    return click_codes(*split_intensities(intensity, polarization, setting))


def test_canon_angle_basics():
    assert canon_angle(0.0) == 0.0
    assert canon_angle(math.pi) == 0.0
    assert canon_angle(math.pi / 4.0) == math.pi / 4.0
    assert canon_angle(3.5) == pytest.approx(3.5 - math.pi, abs=1e-15)
    assert canon_angle(-math.pi / 4.0) == pytest.approx(3.0 * math.pi / 4.0, abs=1e-15)


def test_canon_angle_tiny_negative_stays_below_period():
    # np.mod(-1e-18, pi) rounds up to pi itself; the canonical form must not
    out = canon_angle(-1e-18)
    assert out == 0.0
    arr = canon_angle(np.array([-1e-18, -1e-300, 0.0]))
    assert np.all(arr < math.pi)
    assert np.all(arr >= 0.0)


def test_canon_angle_idempotent_and_in_range():
    rng = np.random.default_rng(11)
    raw = rng.uniform(-50.0, 50.0, 20000)
    once = canon_angle(raw)
    assert np.all((once >= 0.0) & (once < math.pi))
    np.testing.assert_array_equal(canon_angle(once), once)


def test_canon_angle_scalar_returns_float():
    assert isinstance(canon_angle(1.0), float)
    assert isinstance(canon_angle(np.float64(1.0)), float)


def test_quarter_turn_equals_canon_angle_bit_for_bit():
    # zero tolerance over [0, pi): a dense grid, random angles, and the
    # points where theta + pi/2 reaches pi or sits one ulp either side of it
    rng = np.random.default_rng(12)
    ends = [0.0, np.nextafter(HALF_PERIOD, 0.0), HALF_PERIOD, np.nextafter(math.pi, 0.0)]
    theta = np.concatenate([
        ends,
        np.linspace(0.0, math.pi, 100_001)[:-1],
        rng.uniform(0.0, math.pi, 100_000),
        HALF_PERIOD + np.arange(-64, 65) * np.spacing(HALF_PERIOD),
    ])
    assert np.all((theta >= 0.0) & (theta < math.pi))
    out = quarter_turn(theta)
    np.testing.assert_array_equal(out.view(np.int64), canon_angle(theta + HALF_PERIOD).view(np.int64))
    assert np.all((out >= 0.0) & (out < math.pi))


def test_wrap_diff_range_and_examples():
    assert wrap_diff(0.0) == 0.0
    assert wrap_diff(math.pi) == 0.0
    assert wrap_diff(3.0 * math.pi / 4.0) == pytest.approx(-math.pi / 4.0, abs=1e-15)
    assert wrap_diff(-3.0 * math.pi / 4.0) == pytest.approx(math.pi / 4.0, abs=1e-15)
    rng = np.random.default_rng(12)
    raw = rng.uniform(-50.0, 50.0, 20000)
    out = wrap_diff(raw)
    assert np.all((out >= -math.pi / 2.0) & (out < math.pi / 2.0))


def test_outcome_codes_and_numeric_value():
    assert int(Outcome.MINUS) == -1
    assert int(Outcome.NO_CLICK) == 0
    assert int(Outcome.PLUS) == 1
    assert int(Outcome.DOUBLE_CLICK) == 2
    # the vectorized engine emits exactly these numeric codes as int8
    codes = click_codes(np.array([0.0, 2.0, 0.0, 2.0]), np.array([2.0, 0.0, 0.0, 2.0]))
    assert codes.dtype == np.int8
    np.testing.assert_array_equal(
        codes, [Outcome.MINUS, Outcome.PLUS, Outcome.NO_CLICK, Outcome.DOUBLE_CLICK]
    )


def test_malus_split_frozen_example():
    i0, i1 = split_intensities(2.0, math.pi / 8.0, 0.0)
    assert i0 == pytest.approx(1.7071067811865475, abs=1e-15)
    assert i1 == pytest.approx(0.2928932188134525, abs=1e-15)


def test_malus_split_aligned_and_crossed():
    i0, i1 = split_intensities(2.0, 0.3, 0.3)
    assert i0 == 2.0
    assert i1 == 0.0
    i0, i1 = split_intensities(2.0, 0.3, 0.3 + math.pi / 2.0)
    assert i0 == pytest.approx(0.0, abs=1e-15)
    assert i1 == pytest.approx(2.0, abs=1e-15)


def test_malus_split_energy_conserved_in_bulk():
    rng = np.random.default_rng(13)
    n = 100_000
    intensity = rng.uniform(0.0, 3.0, n)
    pol = rng.uniform(0.0, math.pi, n)
    setting = rng.uniform(0.0, math.pi, n)
    i0, i1 = split_intensities(intensity, pol, setting)
    assert np.all(i0 >= 0.0)
    assert np.all(i1 >= 0.0)
    assert np.max(np.abs(i0 + i1 - intensity)) <= 1e-12


def test_threshold_click_strictness():
    # exactly at threshold is no click on either side
    i0 = np.array([1.0, 1.0 + 1e-9, 0.0, 1.5, 0.0])
    i1 = np.array([1.0, 0.0, 1.0 + 1e-9, 1.2, 0.0])
    np.testing.assert_array_equal(
        click_codes(i0, i1),
        [Outcome.NO_CLICK, Outcome.PLUS, Outcome.MINUS, Outcome.DOUBLE_CLICK, Outcome.NO_CLICK],
    )
    assert click_codes(1.2, 3.6) == Outcome.DOUBLE_CLICK


def test_measure_pulse_sides():
    codes = _measure(np.array([2.0, 2.0, 0.5]), np.array([math.pi / 6.0, math.pi / 3.0, 0.0]), 0.0)
    np.testing.assert_array_equal(codes, [Outcome.PLUS, Outcome.MINUS, Outcome.NO_CLICK])


def test_measure_pulse_null_at_diagonal():
    # at intensity 2 the 45-degree split puts both outputs at the threshold,
    # which a strict comparison reads as silence, not a click
    assert _measure(2.0, math.pi / 4.0, 0.0) == Outcome.NO_CLICK
    # the anti-diagonal's rounding may leave one output an ulp above the
    # threshold; a single click is acceptable there, a double click is not
    anti = _measure(2.0, 3.0 * math.pi / 4.0, 0.0)
    assert anti in (Outcome.NO_CLICK, Outcome.MINUS)


def test_intensity_two_never_double_clicks():
    rng = np.random.default_rng(14)
    n = 200_000
    pol = rng.uniform(0.0, math.pi, n)
    setting = rng.uniform(0.0, math.pi, n)
    i0, i1 = split_intensities(np.full(n, 2.0), pol, setting)
    codes = click_codes(i0, i1)
    assert not np.any(codes == int(Outcome.DOUBLE_CLICK))
    # grid including the exact diagonal boundaries
    grid = np.linspace(0.0, math.pi, 20001)
    i0, i1 = split_intensities(np.full(grid.shape, 2.0), grid, np.zeros_like(grid))
    codes = click_codes(i0, i1)
    assert not np.any(codes == int(Outcome.DOUBLE_CLICK))


def test_click_codes_match_scalar_path():
    rng = np.random.default_rng(15)
    n = 5000
    intensity = rng.uniform(0.0, 3.0, n)
    pol = rng.uniform(0.0, math.pi, n)
    setting = rng.uniform(0.0, math.pi, n)
    i0, i1 = split_intensities(intensity, pol, setting)
    codes = click_codes(i0, i1)
    for k in range(n):
        fire0 = float(i0[k]) > 1.0
        fire1 = float(i1[k]) > 1.0
        expected = 2 if fire0 and fire1 else int(fire0) - int(fire1)
        assert int(codes[k]) == expected


def test_split_respects_pi_periodicity():
    rng = np.random.default_rng(16)
    pol = rng.uniform(0.0, math.pi, 1000)
    setting = rng.uniform(0.0, math.pi, 1000)
    i0a, i1a = split_intensities(2.0, pol, setting)
    i0b, i1b = split_intensities(2.0, pol, setting + math.pi)
    assert np.max(np.abs(i0a - i0b)) <= 1e-12
    assert np.max(np.abs(i1a - i1b)) <= 1e-12


def test_window_half_width_values_and_domain():
    assert window_half_width(2.0) == math.pi / 4.0
    for alpha in (0.2, math.pi / (4.0 * math.sqrt(2.0)), 0.7):
        assert window_half_width(1.0 / math.cos(alpha) ** 2) == pytest.approx(alpha, abs=1e-15)
    # I = 1.5: cos 2w = 2/I - 1 = 1/3
    assert math.cos(2.0 * window_half_width(1.5)) == pytest.approx(1.0 / 3.0, abs=1e-15)
    for bad in (1.0, 0.5, 2.0 + 1e-12, float("nan")):
        with pytest.raises(ValueError, match="intensity"):
            window_half_width(bad)


# every default setting of both protocols, and the intensities the stations
# see: strong pulses in (1, 2] and weak pulses 1/cos^2(alpha)
_DEFAULT_SETTINGS = (0.0, math.pi / 8.0, math.pi / 4.0, 3.0 * math.pi / 8.0)
_WINDOW_INTENSITIES = (2.0, 1.5, 1.2) + tuple(
    1.0 / math.cos(a) ** 2 for a in (0.2, math.pi / (4.0 * math.sqrt(2.0)), 0.7)
)
# an offset is a difference of two angles in [0, pi), so both arithmetics
# round it on the scale of pi: measure closeness to an edge in ulps of pi
_ULP_PI = float(np.spacing(math.pi))


def _window_vs_reference(lam, theta, intensity):
    """Rounds where the window rule and the Malus/threshold reference disagree, per station.

    Alice's pulse is polarized along lam, Bob's along lam + pi/2, each
    measured at setting theta, exactly as the simulation kernel and Eve's
    predictor see them.
    """
    codes = window_codes(lam - theta, window_half_width(intensity))
    setting = np.full(lam.shape, theta)
    ref_a = click_codes(*split_intensities(intensity, lam, setting))
    ref_b = click_codes(*split_intensities(intensity, canon_angle(lam + math.pi / 2.0), setting))
    return codes != ref_a, -codes != ref_b


def _edge_grid(intensity, theta):
    """Hidden polarizations packed around every window edge of a station at setting theta.

    Returns (lam, edge): lam in [0, pi) and the edge each value sits next to.
    """
    steps = np.arange(-8, 9)
    w = window_half_width(intensity)
    edges = canon_angle(
        np.array([theta + w, theta - w, theta + math.pi / 2.0 + w, theta + math.pi / 2.0 - w,
                  theta + math.pi / 4.0, theta - math.pi / 4.0])
    )[:, None]
    # the 8 adjacent floats on each side of every edge, and 8 ulps of
    # pi on each side (the two differ for edges well below pi)
    lam = np.concatenate([edges + steps * np.spacing(edges), edges + steps * _ULP_PI], axis=1)
    edge = np.broadcast_to(edges, lam.shape)
    inside = (lam >= 0.0) & (lam < math.pi)
    return lam[inside], edge[inside]


def test_window_codes_match_reference_except_within_ulps_of_an_edge():
    points = disagreements = 0
    for intensity in _WINDOW_INTENSITIES:
        for theta in _DEFAULT_SETTINGS:
            lam, edge = _edge_grid(intensity, theta)
            for bad in _window_vs_reference(lam, theta, intensity):
                gap = np.abs(lam[bad] - edge[bad]) / _ULP_PI
                assert np.all(gap <= 2.0), (intensity, theta, gap)
                disagreements += int(bad.sum())
            points += lam.size
    assert points > 4000
    # the two arithmetics do differ at edges; a test that saw no difference
    # would not show that they are independent
    assert disagreements > 0

    # away from the edges they agree on every round
    lam = np.random.default_rng(18).uniform(0.0, math.pi, 200_000)
    for intensity in _WINDOW_INTENSITIES:
        for theta in _DEFAULT_SETTINGS:
            for bad in _window_vs_reference(lam, theta, intensity):
                assert not np.any(bad), (intensity, theta)


def _old_faked_pulse_params(lam, cfg, weak_side):
    """faked_pulse_params as first written: canon_angle, np.full and np.where."""
    pol_b = canon_angle(lam + math.pi / 2.0)
    intensity_a = np.full(lam.shape, cfg.strong_intensity)
    intensity_b = np.full(lam.shape, cfg.strong_intensity)
    if cfg.kind == "double-ekert":
        iw = 1.0 / math.cos(cfg.alpha) ** 2
        intensity_a = np.where(weak_side == 1, iw, intensity_a)
        intensity_b = np.where(weak_side == 2, iw, intensity_b)
    return intensity_a, lam, intensity_b, pol_b


def _old_split_intensities(intensity, polarization, setting):
    """split_intensities as first written: one expression per output, no reused buffers."""
    c2 = np.cos(2.0 * (polarization - setting))
    return intensity * (1.0 + c2) / 2.0, intensity * (1.0 - c2) / 2.0


def test_reference_physics_matches_its_first_form_bit_for_bit():
    # Eve's predictions must not move by an ulp when the reference arithmetic
    # is reorganised: zero tolerance, on the edges where any rounding shows
    rng = np.random.default_rng(19)
    sources = [ScenarioConfig(kind="double-bbm92", strong_intensity=i) for i in (2.0, 1.5, 1.2)] + [
        ScenarioConfig(kind="double-ekert", alpha=a) for a in (0.2, math.pi / (4.0 * math.sqrt(2.0)), 0.7)
    ]
    lams = [_edge_grid(intensity, theta)[0] for intensity in _WINDOW_INTENSITIES for theta in _DEFAULT_SETTINGS]
    lam = np.concatenate(lams + [rng.uniform(0.0, math.pi, 100_000)])
    # lambda + pi/2 lands exactly on pi, where the rotated polarization wraps to 0
    assert np.any(lam + HALF_PERIOD == math.pi)
    theta_a = rng.choice(_DEFAULT_SETTINGS, lam.size)
    theta_b = rng.choice(_DEFAULT_SETTINGS, lam.size)
    for cfg in sources:
        weak = rng.integers(0, 3, lam.size).astype(np.int8)
        if cfg.kind != "double-ekert":
            weak[:] = 0
        new = faked_pulse_params(lam, cfg, weak)
        old = _old_faked_pulse_params(lam, cfg, weak)
        for got, want in zip(new, old):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), cfg
        for intensity, pol, theta in ((new[0], new[1], theta_a), (new[2], new[3], theta_b)):
            for got, want in zip(split_intensities(intensity, pol, theta), _old_split_intensities(intensity, pol, theta)):
                assert got.tobytes() == want.tobytes(), cfg
        pred_a, pred_b = predict_outcome_codes(lam, theta_a, theta_b, cfg, weak)
        np.testing.assert_array_equal(pred_a, click_codes(*_old_split_intensities(old[0], old[1], theta_a)))
        np.testing.assert_array_equal(pred_b, click_codes(*_old_split_intensities(old[2], old[3], theta_b)))


def test_window_codes_strong_pulse_silent_only_on_the_diagonals():
    # at intensity 2 a station is silent only where cos 2(pol - theta) = 0
    grid = np.linspace(0.0, math.pi, 20001, endpoint=False)
    for theta in _DEFAULT_SETTINGS:
        codes = window_codes(grid - theta, window_half_width(2.0))
        silent = codes == int(Outcome.NO_CLICK)
        assert np.all(np.abs(np.cos(2.0 * (grid[silent] - theta))) < 1e-9)
        assert not np.any(codes == int(Outcome.DOUBLE_CLICK))
