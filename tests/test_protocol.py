"""Session engine, sifting, correlation estimates, and CHSH assembly."""

from __future__ import annotations

import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from blindsim import protocol, sources
from blindsim.cli import write_records_csv
from blindsim.optics import HALF_PERIOD, Outcome, canon_angle, click_codes, split_intensities, wrap_diff
from blindsim.protocol import (
    BBM92_SETTINGS,
    CHSH_QUAD,
    EKERT_ALICE_SETTINGS,
    EKERT_BOB_SETTINGS,
    ProtocolConfig,
    ProtocolKind,
    SessionCounts,
    SessionRecords,
    bbm92_qber,
    chsh_score,
    chsh_select,
    chsh_value,
    correlation_estimate,
    eve_prediction_report,
    public_rounds,
    run_session,
    session_chunks,
    sift_bbm92,
)
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
    opposite_outcome_prob,
    predict_outcome_codes,
    weak_intensity,
)

SQ2 = math.sqrt(2.0)


def _session(scenario, protocol, rounds, seed, kept=True, **kwargs):
    """The session's SessionRecords.simulate, or with kept=False its streamed run_session."""
    pc = ProtocolConfig(protocol=protocol, rounds=rounds, seed=seed, **kwargs)
    sc = ScenarioConfig(kind=scenario)
    return SessionRecords.simulate(pc, sc) if kept else run_session(pc, sc)


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
    for bad in (math.nan, math.inf, -math.inf):
        # a station at a non-finite angle would never click
        with pytest.raises(ValueError, match="alice_settings"):
            ProtocolConfig(protocol="bbm92", rounds=1, alice_settings=(bad, 0.5))
        with pytest.raises(ValueError, match="bob_settings"):
            ProtocolConfig(protocol="ekert", rounds=1, bob_settings=(0.1, 0.2, bad))
    with pytest.raises(ValueError):
        ProtocolConfig(protocol="e91", rounds=1)


def test_protocol_config_refuses_a_fractional_round_count():
    # refused, not truncated to the round count below it
    for bad in (1000.7, 0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="rounds must be a whole number"):
            ProtocolConfig(protocol="ekert", rounds=bad)
    pc = ProtocolConfig(protocol="ekert", rounds=1000.0)
    assert pc.rounds == 1000 and type(pc.rounds) is int


def test_protocol_config_refuses_a_fractional_seed():
    # refused, not truncated to the seed below it
    for bad in (1.5, -0.5, math.nan):
        with pytest.raises(ValueError, match="seed must be a whole number"):
            ProtocolConfig(protocol="ekert", rounds=1000, seed=bad)
    pc = ProtocolConfig(protocol="ekert", rounds=1000, seed=np.uint64(2**64 - 1))
    assert pc.seed == 2**64 - 1 and type(pc.seed) is int


def test_session_chunks_refuses_a_fractional_worker_count():
    # 1.9 workers is refused, not run on 1
    pc, sc = ProtocolConfig(protocol="bbm92", rounds=10), ScenarioConfig(kind="honest")
    for bad in (1.9, 0.5, math.nan):
        with pytest.raises(ValueError, match="workers must be a whole number"):
            session_chunks(pc, sc, bad)
    assert len(list(session_chunks(pc, sc, 2.0))) == 1


def test_angle_gap_equals_wrap_diff_bit_for_bit():
    # one tolerance rule both accepts a setting (_canon_settings) and counts
    # its rounds (_setting_index): the Python-float gap equals |wrap_diff|
    # on random values and on the edges of the wrap, NaN and inf included
    edges = [
        0.0, 1e-20, -1e-20, math.pi - 1e-13, 1e-13 - math.pi, math.pi / 2, -math.pi / 2,
        math.pi, -math.pi, 1e300, -1e300, math.nan, math.inf, -math.inf,
    ]
    values = np.concatenate([np.random.default_rng(50).uniform(-20.0, 20.0, 2000), edges]).tolist()
    for y in (0.0, 0.3, math.pi / 2, math.nextafter(math.pi, 0.0)):
        gaps = [protocol._angle_gap(x, y) for x in values]
        with np.errstate(invalid="ignore"):  # np.mod warns on inf
            np.testing.assert_array_equal(gaps, [abs(wrap_diff(x - y)) for x in values])


def test_run_session_shapes_and_indexing():
    rec = _session("double-bbm92", "bbm92", 1000, 5)
    assert len(rec) == 1000
    assert rec.hidden_lambda is not None
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
    wide = SessionRecords.simulate(pc, sc, workers=4)
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
    key = sift_bbm92(rec)
    assert bbm92_qber(rec) == 0.0
    assert key.bits_alice.size > 8000
    np.testing.assert_array_equal(key.bits_alice, key.bits_bob)
    # Eve's audit counts the same key, and she predicts every bit of it
    report = eve_prediction_report(rec)
    assert report["key_rounds"] == key.bits_alice.size
    assert (report["key_mismatches"], report["key_match_fraction"]) == (0, 1.0)


def test_sift_bbm92_without_the_lambda_column_gives_eve_no_bits():
    # a double-blind column session built without hidden_lambda: Eve has no
    # prediction, and the parties' key is the one the full columns give
    rec = _session("double-bbm92", "bbm92", 5_000, 7)
    bare = SessionRecords(
        rec.protocol, rec.scenario, rec.a_idx, rec.b_idx, rec.outcome_a, rec.outcome_b, rec.weak_side
    )
    key, bare_key = sift_bbm92(rec), sift_bbm92(bare)
    with pytest.raises(ValueError, match="audit"):
        eve_prediction_report(bare)
    np.testing.assert_array_equal(bare_key.bits_alice, key.bits_alice)
    np.testing.assert_array_equal(bare_key.bits_bob, key.bits_bob)
    np.testing.assert_array_equal(bare_key.round_indices, key.round_indices)
    assert bbm92_qber(bare) == bbm92_qber(rec) == 0.0


def test_sift_bbm92_honest_depolarized_qber():
    pc = ProtocolConfig(protocol="bbm92", rounds=400_000, seed=21)
    sc = ScenarioConfig(kind="honest", depolarize_prob=0.1)
    rec = SessionRecords.simulate(pc, sc)
    # each replaced pair disagrees half the time: qber = depolarize / 2
    assert bbm92_qber(rec) == pytest.approx(0.05, abs=0.002)
    assert eve_prediction_report(rec) is None


def test_sift_bbm92_empty_when_settings_never_match():
    pc = ProtocolConfig(
        protocol="bbm92", rounds=200, seed=1,
        alice_settings=(0.0,), bob_settings=(math.pi / 8.0,),
    )
    rec = SessionRecords.simulate(pc, ScenarioConfig(kind="honest"))
    assert bbm92_qber(rec) is None
    assert sift_bbm92(rec).bits_alice.size == 0


def test_sifting_counts_settings_equal_within_tolerance():
    # Bob's pi - 1e-13 names Alice's 0 (correlation_estimate counts that
    # pair), so the sifted key, its QBER and Eve's key_rounds count it too
    sc = ScenarioConfig(kind="double-bbm92")
    keys = []
    for bob in ((math.pi - 1e-13, math.pi / 4.0), (0.0, math.pi / 4.0)):
        pc = ProtocolConfig(protocol="bbm92", rounds=20_000, seed=3, alice_settings=(0.0, math.pi / 4.0),
                            bob_settings=bob)
        rec = SessionRecords.simulate(pc, sc)
        key = sift_bbm92(rec)
        matched = sum(correlation_estimate(rec, a, a).n_coincidences for a in (0.0, math.pi / 4.0))
        assert key.bits_alice.size == matched > 9_000, bob
        assert bbm92_qber(rec) == 0.0
        for session in (rec, run_session(pc, sc)):
            assert eve_prediction_report(session)["key_rounds"] == matched, bob
        keys.append(key)
    np.testing.assert_array_equal(keys[0].round_indices, keys[1].round_indices)


@pytest.mark.parametrize("scenario", [k.value for k in ScenarioKind])
def test_bbm92_qber_equals_sifted_bit_disagreement(scenario):
    for p in (0.0, 0.1, 0.3):
        for seed in (1, 2):
            pc = ProtocolConfig(protocol="bbm92", rounds=30_000, seed=seed)
            rec = SessionRecords.simulate(pc, ScenarioConfig(kind=scenario, depolarize_prob=p))
            key = sift_bbm92(rec)
            expected = float(np.mean(key.bits_alice != key.bits_bob))
            assert bbm92_qber(rec) == expected, (p, seed)


def test_public_projection_carries_no_source_secrets():
    rec = _session("double-ekert", "bbm92", 5_000, 2)
    pub = public_rounds(rec)
    assert not hasattr(pub, "hidden_lambda")
    assert not hasattr(pub, "weak_side")
    # the honest parties' view cannot be edited or given a hidden column
    for name in ("counts", "a_idx", "hidden_lambda"):
        with pytest.raises(AttributeError):
            setattr(pub, name, rec.hidden_lambda)
        with pytest.raises(AttributeError):
            delattr(pub, name)
    key = sift_bbm92(rec)
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
    key2 = sift_bbm92(tampered)
    np.testing.assert_array_equal(key.bits_alice, key2.bits_alice)
    np.testing.assert_array_equal(key.bits_bob, key2.bits_bob)


def test_correlation_estimate_no_coincidences():
    pc = ProtocolConfig(protocol="bbm92", rounds=100, seed=1)
    rec = SessionRecords.simulate(pc, ScenarioConfig(kind="honest"))
    est = correlation_estimate(rec, 0.3, 0.4)
    assert est.value is None
    assert est.stderr is None
    assert est.n_coincidences == 0


def test_correlation_estimate_refuses_non_finite_angles():
    # a non-finite angle names no setting; it is refused, not reported as a pair without coincidences
    session = _session("double-bbm92", "bbm92", 1_000, 5, kept=False)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="theta_a"):
            correlation_estimate(session, bad, math.pi / 4.0)
        with pytest.raises(ValueError, match="theta_b"):
            correlation_estimate(session, 0.0, bad)


def test_correlation_estimate_honest_pair():
    pc = ProtocolConfig(
        protocol="bbm92", rounds=200_000, seed=22,
        alice_settings=(0.0,), bob_settings=(math.pi / 8.0,),
    )
    rec = SessionRecords.simulate(pc, ScenarioConfig(kind="honest"))
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
    e1 = correlation_estimate(SessionRecords.simulate(pc1, sc), 0.0, delta)
    e2 = correlation_estimate(SessionRecords.simulate(pc2, sc), phi, phi + delta)
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
    rec = SessionRecords.simulate(pc, ScenarioConfig(kind="honest"))
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
    rec = SessionRecords.simulate(pc, ScenarioConfig(kind="honest"))
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
    assert rep["key_rounds"] == sift_bbm92(faked).bits_alice.size > 0
    assert (rep["key_mismatches"], rep["key_match_fraction"]) == (0, 1.0)

    intercept = _session("single-blinding", "bbm92", 20_000, 28)
    rep = eve_prediction_report(intercept)
    assert rep["mode"] == "intercept"
    # Bob's clicks include every key round, so the intercept audit has no key counters of its own
    assert not any(name.startswith("key_") for name in rep)
    assert rep["mismatched_clicks"] == 0
    assert rep["match_fraction"] == 1.0
    assert rep["bob_clicks"] == pytest.approx(10_000, abs=400)

    honest = _session("honest", "bbm92", 1_000, 29)
    assert eve_prediction_report(honest) is None


def _key_recount(rec):
    """(key rounds, key rounds where Eve's predicted Bob outcome differs), recounted round by round."""
    key = sift_bbm92(rec).round_indices
    _, pred_b = predict_outcome_codes(
        rec.hidden_lambda[key], rec.theta_a[key], rec.theta_b[key], rec.scenario, rec.weak_side[key]
    )
    return key.size, int(np.count_nonzero(pred_b != rec.outcome_b[key]))


@pytest.mark.parametrize("scenario,proto,policy", [
    ("double-bbm92", "bbm92", "random"), ("double-bbm92", "ekert", "random"),
    *[("double-ekert", proto, policy.value) for proto in ("bbm92", "ekert") for policy in WeakSidePolicy],
])
def test_eve_key_counters_equal_a_per_round_recount(scenario, proto, policy):
    # the key counters of the chunked audit against Eve's predictions
    # recomputed on the sifted rounds; the streamed session reports the same
    pc = ProtocolConfig(protocol=proto, rounds=_BUCKET_ROUNDS, seed=52)
    sc = ScenarioConfig(kind=scenario, weak_side_policy=policy)
    rec = SessionRecords.simulate(pc, sc)
    report = eve_prediction_report(rec)
    # key_rounds is read off the count tensor, the recount's key from the columns
    assert (report["key_rounds"], report["key_mismatches"]) == _key_recount(rec)
    assert report["key_rounds"] > 0 and report["key_mismatches"] == 0
    assert report["key_match_fraction"] == 1.0
    assert eve_prediction_report(run_session(pc, sc)) == report


def test_eve_key_match_fraction_is_none_without_key_rounds():
    # settings that never match leave no sifted key: Eve's share of it is undefined, not 1
    pc = ProtocolConfig(protocol="bbm92", rounds=5_000, seed=53, alice_settings=(0.0,), bob_settings=(0.3,))
    sc = ScenarioConfig(kind="double-bbm92")
    for session in (SessionRecords.simulate(pc, sc), run_session(pc, sc)):
        report = eve_prediction_report(session)
        assert (report["key_rounds"], report["key_mismatches"], report["key_match_fraction"]) == (0, 0, None)
        assert bbm92_qber(session) is None


_DRAW_BINS = protocol._draw_bins


def _inject_lambdas(monkeypatch, targets):
    """Make the draws put each round's hidden polarization at targets(rng, m), to within ulps.

    Each round keeps the setting pair and weak side of its bin key; the
    key's bucket is replaced by its target's, and the fraction of each
    round a chunk decodes (round_fractions) by its target's. Returns the
    targets of each chunk drawn, by chunk index (_assert_injected reads
    them).
    """
    injected, fractions = {}, {}

    def draw_bins(pc, grid, chunk_index):
        key = _DRAW_BINS(pc, grid, chunk_index)
        lam = targets(np.random.default_rng(chunk_index), key.size)
        bucket = np.minimum(np.multiply(lam, grid.scale).astype(np.int32), grid.buckets - 1)
        key += bucket - key % grid.buckets
        injected[chunk_index] = lam
        fractions[chunk_index] = np.clip(lam * grid.scale - bucket, 0.0, math.nextafter(1.0, 0.0))
        return key

    def round_fractions(seed, rounds):
        chunk, local = np.divmod(rounds, CHUNK_ROUNDS)
        u = np.empty(local.size)
        for c in np.unique(chunk):
            u[chunk == c] = fractions[c][local[chunk == c]]
        return u

    monkeypatch.setattr(protocol, "_draw_bins", draw_bins)
    monkeypatch.setattr(protocol, "round_fractions", round_fractions)
    return injected


def _assert_injected(records, injected):
    """The column session holds the injected polarizations, each to within an ulp: the hook took effect."""
    lam = np.concatenate([injected[c] for c in range(len(injected))])
    assert lam.size == len(records)
    assert np.all(np.abs(records.hidden_lambda - lam) <= np.spacing(lam))


@pytest.mark.parametrize("scenario,proto", [("double-bbm92", "bbm92"), ("double-ekert", "ekert")])
def test_eve_audit_checks_an_independent_arithmetic(monkeypatch, scenario, proto):
    # the kernel decides clicks by angle windows, Eve predicts them by Malus
    # splitting: a kernel window 1e-3 too wide must show up in the audit,
    # whether the session streams its chunks or keeps its columns
    for kept in (True, False):
        rep = eve_prediction_report(_session(scenario, proto, 20_000, 31, kept))
        assert rep["mismatched_outcomes"] == 0
    true_width = protocol.window_half_width
    monkeypatch.setattr(protocol, "window_half_width", lambda intensity: true_width(intensity) + 1e-3)
    for kept in (True, False):
        rep = eve_prediction_report(_session(scenario, proto, 20_000, 31, kept))
        assert rep["mismatched_outcomes"] > 0

    # Eve's float32 screen settles every round within 2**-12 of a click
    # threshold in cos 2u (about 1e-4 rad of a window edge) in float64, so a
    # window 1e-6 too wide must still show. Uniform hidden polarizations seldom
    # land that close to an edge: draw each within 4e-6 of one
    sc = ScenarioConfig(kind=scenario)
    widths = [true_width(sc.strong_intensity), true_width(weak_intensity(sc.alpha))]
    pc = ProtocolConfig(protocol=proto, rounds=1)
    edges = np.array([
        s + q + sign * w
        for s in pc.alice_settings + pc.bob_settings for q in (0.0, math.pi / 2.0)
        for sign in (1, -1) for w in widths
    ])

    def near_an_edge(rng, size):
        return canon_angle(rng.choice(edges, size) + rng.uniform(-4e-6, 4e-6, size))

    injected = _inject_lambdas(monkeypatch, near_an_edge)
    for extra in (0.0, 1e-6):
        monkeypatch.setattr(protocol, "window_half_width", lambda intensity: true_width(intensity) + extra)
        for kept in (True, False):
            session = _session(scenario, proto, 20_000, 31, kept)
            rep = eve_prediction_report(session)
            assert (rep["mismatched_outcomes"] > 0) == (extra > 0), (extra, rep)
            if kept:
                _assert_injected(session, injected)


@pytest.mark.parametrize("scenario,proto", [("double-bbm92", "bbm92"), ("double-ekert", "ekert")])
def test_strong_pulse_below_intensity_two(scenario, proto):
    # at I = 1.5 each station fires only within w = acos(2/I - 1)/2 of its
    # detector axes, so a strong station clicks with probability 4w/pi
    n = 200_000
    pc = ProtocolConfig(protocol=proto, rounds=n, seed=32)
    rec = SessionRecords.simulate(pc, ScenarioConfig(kind=scenario, strong_intensity=1.5))
    assert eve_prediction_report(rec)["mismatched_outcomes"] == 0
    if scenario == "double-bbm92":
        p = 2.0 * math.acos(1.0 / 3.0) / math.pi
        sigma = math.sqrt(p * (1.0 - p) / n)
        for outcome in (rec.outcome_a, rec.outcome_b):
            clicked = np.abs(outcome) == 1
            assert abs(float(np.mean(clicked)) - p) < 5.0 * sigma


def test_single_blinding_session_statistics():
    rec = _session("single-blinding", "bbm92", 100_000, 30)
    assert float(np.mean(np.abs(rec.outcome_a) == 1)) == 1.0
    assert float(np.mean(np.abs(rec.outcome_b) == 1)) == pytest.approx(0.5, abs=0.005)
    # Bob only clicks when Eve guessed his basis, and then he copies her
    assert bbm92_qber(rec) == 0.0


def _genuine_pair_reference(pc, sc, chunk_index):
    """A genuine-pair chunk's columns from full-size draws sliced to the chunk.

    Under single blinding, Bob's codes come from intercept_click_codes round by round.
    """
    lo = chunk_index * CHUNK_ROUNDS
    m = min(pc.rounds, lo + CHUNK_ROUNDS) - lo
    g = chunk_stream(pc.seed, chunk_index)
    alice, bob = np.asarray(pc.alice_settings), np.asarray(pc.bob_settings)
    single = sc.kind is ScenarioKind.SINGLE_BLINDING
    a_idx, b_idx = (g.integers(0, n, CHUNK_ROUNDS)[:m] for n in (alice.size, bob.size))
    eve_idx = g.integers(0, bob.size, CHUNK_ROUNDS)[:m] if single else b_idx
    a_coin = g.integers(0, 2, CHUNK_ROUNDS)[:m]
    u_flip, depol_u = g.random(CHUNK_ROUNDS)[:m], g.random(CHUNK_ROUNDS)[:m]
    a_repl, b_repl = g.integers(0, 2, CHUNK_ROUNDS)[:m], g.integers(0, 2, CHUNK_ROUNDS)[:m]
    p_opp = opposite_outcome_prob(alice[a_idx], bob[eve_idx])  # per round
    out_a, out_b = honest_outcome_codes(p_opp, a_coin, u_flip, depol_u, a_repl, b_repl, sc.depolarize_prob)
    if not single:
        return a_idx, b_idx, out_a, out_b, np.zeros(m, np.int8), None, None
    eve_out, out_b = out_b, intercept_click_codes(bob[eve_idx], out_b, bob[b_idx], sc)
    return a_idx, b_idx, out_a, out_b, np.zeros(m, np.int8), None, eve_out


@pytest.mark.parametrize("bob_settings", [None, (0.1, 0.9, 2.0)])
@pytest.mark.parametrize("intensity", [1.2, 1.9])
@pytest.mark.parametrize("depolarize", [0.0, 0.1])
def test_single_blinding_table_matches_per_round_intercepts(bob_settings, intensity, depolarize):
    # two full chunks and a partial one, off the default settings and pulse
    pc = ProtocolConfig(protocol="bbm92", rounds=2 * CHUNK_ROUNDS + 17, seed=41, bob_settings=bob_settings)
    sc = ScenarioConfig(kind="single-blinding", single_blind_intensity=intensity, depolarize_prob=depolarize)
    codes = set()
    for c in range(3):
        got = protocol._simulate_chunk(pc, sc, c)
        for name, col, ref in zip(protocol._COLUMNS, got, _genuine_pair_reference(pc, sc, c)):
            if ref is None:
                assert col is None, name
                continue
            assert col.dtype == ref.dtype, name
            np.testing.assert_array_equal(col, ref, err_msg=name)
        codes.update(np.unique(got[3]).tolist())
    # Bob's station both clicks and stays silent
    assert {-1, 0, 1} <= codes


@pytest.mark.parametrize("m", [1, 2, 3, 1234, 3392, CHUNK_ROUNDS - 1, CHUNK_ROUNDS])
def test_trimmed_genuine_pair_draws_equal_the_full_size_draws(m):
    # a final chunk of m rounds draws only m values of its coins and
    # uniforms and skips the rest with advance: its columns are those of
    # full-size draws. At seed 398 the 127-setting draws of chunk 1 reject an
    # odd number of times and leave a buffered uint32, so nothing is trimmed
    many = {"alice_settings": _spread(127), "bob_settings": _spread(127)}
    for scenario, proto, settings, seed in (
        ("honest", "ekert", {}, 48), ("single-blinding", "bbm92", {}, 48), ("single-blinding", "bbm92", many, 398),
    ):
        for depolarize in (0.0, 0.1):
            sc = ScenarioConfig(kind=scenario, depolarize_prob=depolarize)
            pc = ProtocolConfig(protocol=proto, rounds=CHUNK_ROUNDS + m, seed=seed, **settings)
            got = protocol._simulate_chunk(pc, sc, 1)
            for name, col, ref in zip(protocol._COLUMNS, got, _genuine_pair_reference(pc, sc, 1)):
                if ref is None:
                    assert col is None, name
                else:
                    np.testing.assert_array_equal(col, ref, err_msg=f"{name} {scenario} {depolarize}")
    g = chunk_stream(398, 1)
    for _ in range(3):
        g.integers(0, 127, CHUNK_ROUNDS)
    assert g.bit_generator.state["has_uint32"]


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
    wide = SessionRecords.simulate(pc, sc, workers=8)
    assert _RecordingPool.requested == [2]
    np.testing.assert_array_equal(wide.outcome_b, SessionRecords.simulate(pc, sc).outcome_b)
    # an unknown CPU count means one worker and no pool at all
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    SessionRecords.simulate(pc, sc, workers=8)
    assert _RecordingPool.requested == [2]


def test_session_chunks_refuses_before_any_chunk_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(protocol, "_simulate_chunk", lambda pc, sc, c: calls.append(c))
    honest = ScenarioConfig(kind="honest")
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            session_chunks(ProtocolConfig(protocol="bbm92", rounds=10), honest, workers)
    with pytest.raises(ValueError, match="single-blinding runs under protocol bbm92 only"):
        session_chunks(ProtocolConfig(protocol="ekert", rounds=10), ScenarioConfig(kind="single-blinding"))
    assert calls == []
    # a valid session runs no chunk until it is iterated
    chunks = session_chunks(ProtocolConfig(protocol="bbm92", rounds=CHUNK_ROUNDS + 1), honest)
    assert calls == []
    assert list(chunks) == [None, None] and calls == [0, 1]


def test_per_round_double_blind_sessions_build_no_bin_table(monkeypatch, tmp_path):
    # a per-round session decodes every round and takes its fraction by round
    # index, so neither it nor the records dump builds a bin table or runs
    # Eve's pulse arithmetic; only reading its Eve audit does
    calls = []
    for module, name in ((protocol, "_bucket_tables"), (protocol, "faked_pulse_params"),
                         (sources, "faked_pulse_params")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    pc = ProtocolConfig(protocol="ekert", rounds=CHUNK_ROUNDS + 1234, seed=59)
    for scenario in ("double-ekert", "double-bbm92"):
        sc = ScenarioConfig(kind=scenario)
        SessionRecords.simulate(pc, sc, workers=2)
        write_records_csv(pc, sc, tmp_path / "rounds.csv")
    assert calls == []
    assert eve_prediction_report(SessionRecords.simulate(pc, sc))["mismatched_outcomes"] == 0
    assert calls and "_bucket_tables" not in calls


@pytest.mark.parametrize("scenario,proto", [
    ("honest", "ekert"), ("single-blinding", "bbm92"),
    ("double-bbm92", "bbm92"), ("double-ekert", "ekert"),
])
def test_session_chunks_default_columns_are_the_session_columns(scenario, proto):
    # two full chunks and a partial one, in chunk order at any worker count
    pc = ProtocolConfig(protocol=proto, rounds=2 * CHUNK_ROUNDS + 1234, seed=47)
    sc = ScenarioConfig(kind=scenario)
    kept = SessionRecords.simulate(pc, sc)
    for workers in (1, 2):
        parts = list(session_chunks(pc, sc, workers))
        assert [part[0].size for part in parts] == [CHUNK_ROUNDS, CHUNK_ROUNDS, 1234]
        for c, part in enumerate(parts):
            for name, col, ref in zip(protocol._COLUMNS, part, protocol._simulate_chunk(pc, sc, c)):
                assert (col is None) == (ref is None), name
                if col is not None:
                    np.testing.assert_array_equal(col, ref)
        for name, col in zip(protocol._COLUMNS, protocol._assemble(parts, pc.rounds)):
            if col is None:
                assert getattr(kept, name) is None, name
            else:
                np.testing.assert_array_equal(col, getattr(kept, name))


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
    coincident = (np.abs(rec.outcome_a) == 1) & (np.abs(rec.outcome_b) == 1)
    for a in EKERT_ALICE_SETTINGS:
        for b in EKERT_BOB_SETTINGS:
            mask = (rec.theta_a == a) & (rec.theta_b == b) & coincident
            products = rec.outcome_a[mask].astype(np.int32) * rec.outcome_b[mask].astype(np.int32)
            est = correlation_estimate(rec, a, b)
            assert est.n_coincidences == np.count_nonzero(mask)
            assert est.value == float(np.mean(products))


_ALL_SCENARIOS = [
    ("honest", "ekert"), ("single-blinding", "bbm92"),
    ("double-bbm92", "bbm92"), ("double-ekert", "ekert"),
]


@pytest.mark.parametrize("scenario,proto", _ALL_SCENARIOS)
def test_streamed_session_matches_the_column_session(scenario, proto):
    # three chunks, the last one partial: chunk reductions merge by addition
    pc = ProtocolConfig(protocol=proto, rounds=2 * CHUNK_ROUNDS + 1234, seed=40)
    sc = ScenarioConfig(kind=scenario)
    kept = SessionRecords.simulate(pc, sc)
    assert isinstance(kept, SessionRecords)
    for workers in (1, 2):
        streamed = run_session(pc, sc, workers)
        assert type(streamed) is SessionCounts
        assert len(streamed) == len(kept) == pc.rounds
        np.testing.assert_array_equal(streamed.counts, kept.counts)
        assert eve_prediction_report(streamed) == eve_prediction_report(kept)
        assert bbm92_qber(streamed) == bbm92_qber(kept)
    # the column session's own reduction, from columns built by hand
    rebuilt = SessionRecords(
        pc, sc, kept.a_idx, kept.b_idx, kept.outcome_a, kept.outcome_b, kept.weak_side,
        hidden_lambda=kept.hidden_lambda, eve_outcome=kept.eve_outcome,
    )
    np.testing.assert_array_equal(rebuilt.counts, kept.counts)
    assert eve_prediction_report(rebuilt) == eve_prediction_report(kept)


def test_column_session_reduces_the_eve_audit_on_first_use(monkeypatch):
    calls = []
    real = protocol.predict_outcome_codes

    def counted(*args):
        calls.append(args[0].size)
        return real(*args)

    monkeypatch.setattr(protocol, "predict_outcome_codes", counted)
    pc = ProtocolConfig(protocol="ekert", rounds=CHUNK_ROUNDS + 10, seed=44)
    session = SessionRecords.simulate(pc, ScenarioConfig(kind="double-ekert"))
    chsh_score(session)
    assert calls == []
    report = eve_prediction_report(session)
    assert calls == [CHUNK_ROUNDS, 10]
    assert eve_prediction_report(session) == report
    assert calls == [CHUNK_ROUNDS, 10]


@pytest.mark.parametrize("rounds", [400_000, 1_600_000])
def test_streamed_session_memory_does_not_grow_with_rounds(rounds):
    pc = ProtocolConfig(protocol="ekert", rounds=rounds, seed=41)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        session = run_session(pc, ScenarioConfig(kind="double-ekert"))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert eve_prediction_report(session)["mismatched_outcomes"] == 0


def _traced_peak(fn, *args):
    """The tracemalloc peak of fn(*args), above what was allocated when it started, after a warm-up call."""
    fn(*args)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_bin_chunk_and_session_peaks_stay_under_the_int32_draws():
    # with int32 keys, whose table take made an intp copy, an audited
    # double-ekert chunk peaked at 0.875 MB traced, rejecting or not, and a
    # 2M-round session at 1.03 MB; intp keys, with the words freed before
    # them, must not raise either
    sc = ScenarioConfig(kind="double-ekert")
    pc = ProtocolConfig(protocol="ekert", rounds=8 * CHUNK_ROUNDS, seed=61)
    tables = protocol._bucket_tables(pc, sc, True)
    rejected = [_rejections(pc.seed, c, tables.grid.key_range, CHUNK_ROUNDS) for c in range(8)]
    for c in (rejected.index(0), next(c for c, r in enumerate(rejected) if r)):
        peak = _traced_peak(protocol._count_bins, pc, tables, c)
        assert peak <= 0.875 * 2**20, (c, rejected[c], peak)
    peak = _traced_peak(run_session, ProtocolConfig(protocol="ekert", rounds=2_000_000, seed=7), sc)
    assert peak <= 1.03 * 2**20, peak


def test_counts_only_session_refuses_per_round_questions():
    session = _session("double-ekert", "bbm92", 5_000, 42, kept=False)
    for name in ("a_idx", "theta_a", "outcome_b", "weak_side", "hidden_lambda"):
        with pytest.raises(ValueError, match="SessionRecords.simulate"):
            getattr(session, name)
    # hasattr cannot tell an unkept column from a present one: it raises too
    with pytest.raises(ValueError, match="SessionRecords.simulate"):
        hasattr(session, "a_idx")
    pub = public_rounds(session)
    np.testing.assert_array_equal(pub.counts, session.counts.sum(axis=4))
    # hidden columns are absent from the public view, not merely unkept
    assert not hasattr(pub, "hidden_lambda")
    with pytest.raises(ValueError, match="SessionRecords.simulate"):
        sift_bbm92(session)
    # statistics read the count tensor only
    assert bbm92_qber(session) == 0.0


def test_session_counts_refuse_a_malformed_tensor():
    pc = ProtocolConfig(protocol="ekert", rounds=10)
    sc = ScenarioConfig(kind="double-ekert")
    shape = protocol._count_shape(pc)
    good = np.zeros(shape, np.int64)
    good[0, 0, 0, 2, 1] = 10
    assert SessionCounts(pc, sc, 10, good).counts is good
    bad_shapes = [np.zeros((2, 2), np.int64), np.zeros((2, 2, 4, 4, 3), np.int64), np.zeros(shape[:4], np.int64)]
    for counts in bad_shapes:
        with pytest.raises(ValueError, match="counts must have shape"):
            SessionCounts(pc, sc, 10, counts)
    for value in (math.nan, math.inf, -math.inf):
        counts = good.astype(float)
        counts[1, 2, 3, 0, 2] = value
        with pytest.raises(ValueError, match="counts must be finite"):
            SessionCounts(pc, sc, 10, counts)
    # unchecked, all -1 counts would give bbm92_qber 0.5
    for counts in (np.full(shape, -1, np.int64), good - np.eye(1, good.size, 8, np.int64).reshape(shape)):
        with pytest.raises(ValueError, match="counts must be non-negative"):
            SessionCounts(pc, sc, 10, counts)


def test_session_counts_refuse_counts_that_do_not_sum_to_rounds():
    pc = ProtocolConfig(protocol="ekert", rounds=20_000)
    sc = ScenarioConfig(kind="double-ekert")
    counts = run_session(pc, sc).counts
    # unchecked, rounds 0 with 20 000 counted rounds gave an audit over 0 rounds
    for rounds in (0, 19_999, 20_001):
        with pytest.raises(ValueError, match="must sum to rounds"):
            SessionCounts(pc, sc, rounds, counts)
    # a probability tensor sums to 1 within the stated tolerance
    probs = counts / 20_000
    assert SessionCounts(pc, sc, 1, probs).counts is probs
    off = probs.copy()
    off.flat[0] += 1e-6
    with pytest.raises(ValueError, match="must sum to rounds"):
        SessionCounts(pc, sc, 1, off)
    for rounds in (1.5, math.nan):
        with pytest.raises(ValueError, match="whole number"):
            SessionCounts(pc, sc, rounds, counts)


@pytest.mark.parametrize("scenario,proto", [("double-ekert", "ekert"), ("single-blinding", "bbm92"), ("honest", "bbm92")])
def test_session_counts_refuse_a_tally_the_audit_cannot_give(scenario, proto):
    pc = ProtocolConfig(protocol=proto, rounds=3, seed=64)
    sc = ScenarioConfig(kind=scenario)
    session = run_session(pc, sc)
    counts, tally = session.counts, session.eve_tally
    assert SessionCounts(pc, sc, 3, counts, tally).eve_tally == tally
    # unchecked, eve_tally (5, 0) over rounds 0 gave mismatched_outcomes 5 over rounds 0
    zero = np.zeros_like(counts)
    bad = [(5, 0), (1, 2), (-1, 0), (0, 0, 0), (0,)]
    if scenario == "honest":
        bad.append((0, 0))
    for eve_tally in bad:
        with pytest.raises(ValueError, match="eve_tally"):
            SessionCounts(pc, sc, 0, zero, eve_tally)
    # the most mismatches rounds allow: two outcomes per faked-state round, one click per intercepted one
    most = 2 if scenario == "double-ekert" else 1
    if scenario != "honest":
        assert SessionCounts(pc, sc, 3, counts, (3 * most, 0)).eve_tally == (3 * most, 0)
        with pytest.raises(ValueError, match="eve_tally"):
            SessionCounts(pc, sc, 3, counts, (3 * most + 1, 0))


def test_session_without_audit_refuses_the_eve_report():
    pc = ProtocolConfig(protocol="ekert", rounds=1_000, seed=43)
    for scenario in ("double-ekert", "double-bbm92"):
        session = run_session(pc, ScenarioConfig(kind=scenario), audit=False)
        assert session.eve_tally is None
        with pytest.raises(ValueError, match="audit"):
            eve_prediction_report(session)
    honest = run_session(pc, ScenarioConfig(kind="honest"), audit=False)
    assert eve_prediction_report(honest) is None


def test_streamed_workers_session_memory_does_not_grow_with_chunks(monkeypatch):
    # a pool gets at most two chunks per worker ahead; a future pending for
    # every chunk of the session would hold about 1.7 KB each. Two workers'
    # chunk arrays overlap in time by chance, which moves a real session's
    # peak by about 1 MB either way, so each chunk is counted by a stand-in
    # that returns a fresh count tensor and settles no round, and the peak is
    # what the pool and the settle batches hold
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sc = ScenarioConfig(kind="double-bbm92")

    def count_tensor(pc, tables, chunk_index):
        counts = np.zeros(protocol._count_shape(pc), np.int64)
        counts.flat[0] = CHUNK_ROUNDS  # every chunk is full: the counts sum to the session's rounds
        return counts, np.empty(0, np.intp), np.empty(0, np.int32)

    monkeypatch.setattr(protocol, "_count_bins", count_tensor)
    peaks = []
    for chunks in (32, 1024):
        pc = ProtocolConfig(protocol="bbm92", rounds=chunks * CHUNK_ROUNDS, seed=45)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            session = run_session(pc, sc, 2, audit=False)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert session.counts.flat[0] == pc.rounds
    assert peaks[1] < peaks[0] + 2**16, peaks


def _spread(n):
    """n settings spread evenly over [0, pi)."""
    return tuple(np.arange(n) * math.pi / n)


# (scenario, weak-side policy) -> the WeakSide code of each side digit of its bins
_GRID_SIDES = {
    **{("double-bbm92", policy.value): (WeakSide.NONE,) for policy in WeakSidePolicy},
    ("double-ekert", "random"): (WeakSide.A, WeakSide.B),
    ("double-ekert", "alternate"): (WeakSide.A, WeakSide.B),
    ("double-ekert", "fixed-a"): (WeakSide.A,),
    ("double-ekert", "fixed-b"): (WeakSide.B,),
}


def _malus_reference(intensity, polarization, setting, reach, window_code):
    """protocol._malus_station by split_intensities over every axis, plus a second cosine for the margin."""
    codes = click_codes(*split_intensities(intensity, polarization, setting))
    c = np.abs(np.cos(2.0 * (polarization - setting)))
    margin = 2.0 * reach + protocol._COSINE_SLACK
    return (codes != window_code) | protocol._undecided(c, [2.0 / intensity - 1.0], margin)


def _three_side_cells(pc, sc, audit):
    """The bin table indexed (a_idx, b_idx, weak side, bucket), over all three WeakSide codes.

    The rule of the bucketed reducer before it drew bins: window rule and
    margin rules at each bucket's midpoint, for every weak side whether
    the session reaches it or not, and Eve's arithmetic evaluated on the
    full broadcast; n_cells marks a bin either arithmetic leaves undecided.
    """
    grid = protocol._bin_grid(pc, sc)
    alice, bob = np.asarray(pc.alice_settings), np.asarray(pc.bob_settings)
    mid = (np.arange(grid.buckets) + 0.5) / grid.scale
    reach = 0.5 / grid.scale + protocol._EDGE_SLACK
    w_a, w_b = protocol._window_widths(sc)
    code_a, code_b = protocol._window_rule(mid, alice[:, None, None], bob[:, None, None], w_a[:, None], w_b[:, None])
    undecided_a, undecided_b = (
        protocol._undecided(np.abs(np.abs(mid - s[:, None, None]) - HALF_PERIOD), [w, HALF_PERIOD - w], reach)
        for s, w in ((alice, w_a[:, None]), (bob, w_b[:, None]))
    )
    pair = np.arange(alice.size)[:, None] * bob.size + np.arange(bob.size)
    cells = (pair[:, :, None, None] * 4 + code_a[:, None] + 1) * 4 + code_b[None, :] + 1
    cells = cells * 3 + np.arange(3)[:, None]
    n_cells = math.prod(protocol._count_shape(pc))
    if audit:
        i_a, pol_a, i_b, pol_b = faked_pulse_params(mid, sc, np.arange(3))
        eve_a = _malus_reference(i_a[:, None], pol_a, alice[:, None, None], reach, code_a)
        eve_b = _malus_reference(i_b[:, None], pol_b, bob[:, None, None], reach, code_b)
        cells[eve_a[:, None] | eve_b[None, :]] = n_cells
    cells[undecided_a[:, None] | undecided_b[None, :]] = n_cells
    return cells


@pytest.mark.parametrize("n_a,n_b,buckets", [(1, 1, 1024), (3, 3, 1024), (1, 3, 1024), (3, 127, 32), (127, 127, 1)])
def test_each_bin_key_decodes_to_its_bin_and_its_three_side_cell(n_a, n_b, buckets):
    # keys run over (side digit, a_idx, b_idx, bucket) in that order; the
    # draw-order table holds, at each key, the cell the three-side table
    # gives that bin, so the grid and the decided bins are unchanged
    pc = ProtocolConfig(protocol="ekert", rounds=1, alice_settings=_spread(n_a), bob_settings=_spread(n_b))
    for (scenario, policy), sides in _GRID_SIDES.items():
        sc = ScenarioConfig(kind=scenario, weak_side_policy=policy)
        grid = protocol._bin_grid(pc, sc)
        assert grid.shape == (len(sides), n_a, n_b, buckets)
        np.testing.assert_array_equal(grid.sides, sides)
        assert grid.parity == (scenario == "double-ekert" and policy == "alternate")
        key = np.arange(math.prod(grid.shape), dtype=np.int32)
        digit, a, b, bucket = np.unravel_index(key, grid.shape)
        lam, a_idx, b_idx, weak = grid.decode(np.full(key.size, 0.5), key)
        np.testing.assert_array_equal(a_idx, a)
        np.testing.assert_array_equal(b_idx, b)
        np.testing.assert_array_equal(weak, np.asarray(sides)[digit])
        np.testing.assert_array_equal(np.multiply(lam, grid.scale).astype(np.intp), bucket)
        for audit in (True, False):
            cells = protocol._bucket_tables(pc, sc, audit).cells
            np.testing.assert_array_equal(cells, _three_side_cells(pc, sc, audit)[a, b, weak, bucket])


def _full_size_double_blind(pc, grid, chunk_index):
    """A double-blind chunk's bin keys, as a full-size int64-bound draw sliced to the chunk."""
    lo = chunk_index * CHUNK_ROUNDS
    m = min(pc.rounds, lo + CHUNK_ROUNDS) - lo
    g = chunk_stream(pc.seed, chunk_index)
    per_side = math.prod(grid.shape[1:])
    key = g.integers(0, per_side if grid.parity else math.prod(grid.shape), CHUNK_ROUNDS)[:m]
    if grid.parity:
        key += per_side * ((lo + np.arange(m)) % 2)  # side B on odd absolute rounds
    return key


@pytest.mark.parametrize("n_a,n_b", [(1, 1), (2, 2), (3, 3), (4, 4), (127, 127), (1, 3), (3, 127)])
@pytest.mark.parametrize("m", [1, 2, 3, 1234, 3392, CHUNK_ROUNDS - 1, CHUNK_ROUNDS])
def test_trimmed_double_blind_draws_equal_the_full_size_draws(m, n_a, n_b):
    # a final chunk of m rounds draws m bin keys, its chunk stream's only
    # draw: they are the first m keys of a full-size draw; a numpy whose
    # bounded draws consume the stream otherwise fails here
    pc = ProtocolConfig(
        protocol="ekert", rounds=CHUNK_ROUNDS + m, seed=48, alice_settings=_spread(n_a), bob_settings=_spread(n_b)
    )
    for scenario, policy in _GRID_SIDES:
        sc = ScenarioConfig(kind=scenario, weak_side_policy=policy)
        grid = protocol._bin_grid(pc, sc)
        key = protocol._draw_bins(pc, grid, 1)
        np.testing.assert_array_equal(key, _full_size_double_blind(pc, grid, 1), err_msg=f"{scenario} {policy}")
        assert key.dtype == np.intp
        # the alternate policy weakens A on even absolute rounds and B on odd
        # ones; a policy with one side gives every round that side
        if (scenario, policy) != ("double-ekert", "random"):
            alternate = (scenario, policy) == ("double-ekert", "alternate")
            parity = (CHUNK_ROUNDS + np.arange(m)) % 2 if alternate else np.zeros(m, np.intp)
            weak = grid.decode(np.zeros(m), key)[3]
            np.testing.assert_array_equal(weak, np.asarray(_GRID_SIDES[scenario, policy])[parity])


@pytest.mark.parametrize("buckets", [1024, 1000, 5])
def test_decoded_lambda_stays_below_pi(monkeypatch, buckets):
    # scale sits just below buckets / pi, so the top bucket's (bucket + u) /
    # scale reaches pi; decode gives such a round nextafter(pi, 0), and every
    # lambda stays within reach of its bucket's midpoint, as the tables assume
    monkeypatch.setattr(protocol, "_LAMBDA_BUCKETS", buckets)
    largest_u = 1.0 - 2.0**-53
    sc = ScenarioConfig(kind="double-ekert")
    for n_settings in (1, 2, 3):
        pc = ProtocolConfig(protocol="ekert", rounds=CHUNK_ROUNDS, seed=50, alice_settings=_spread(n_settings),
                            bob_settings=_spread(n_settings))
        grid = protocol._bin_grid(pc, sc)
        assert grid.buckets == buckets
        top = np.array([grid.buckets - 1], np.int32)
        assert (grid.buckets - 1 + largest_u) / grid.scale >= math.pi  # unclamped, the top bucket reaches pi
        assert grid.decode(np.array([largest_u]), top)[0][0] == math.nextafter(math.pi, 0.0)
        every_bin = np.arange(math.prod(grid.shape), dtype=np.int32)
        draws = [(np.full(every_bin.size, u), every_bin) for u in (0.0, 0.5, largest_u)]
        key = protocol._draw_bins(pc, grid, 0)
        u = protocol.round_fractions(pc.seed, np.arange(key.size))
        for u, key in draws + [(u, key)]:
            lam = grid.decode(u, key)[0]
            assert 0.0 <= lam.min() and lam.max() < math.pi
            mid = (key % grid.buckets + 0.5) / grid.scale
            assert np.abs(lam - mid).max() <= 0.5 / grid.scale + protocol._EDGE_SLACK


@pytest.mark.parametrize("size", [1, 2, 3, 1234])
def test_int32_bounded_draws_equal_int64_draws_and_stream_use(size):
    # the draw tests compare _draw_bins with numpy's bounded int32 draw and
    # with its full-size int64 draw (_full_size_double_blind): that reference
    # holds only while the two give the same values, and leave the stream in
    # the same state (buffered uint32 included)
    for n in range(1, 128):
        g32, g64 = np.random.default_rng(n), np.random.default_rng(n)
        np.testing.assert_array_equal(g32.integers(0, n, size, dtype=np.int32), g64.integers(0, n, size), str(n))
        assert g32.bit_generator.state == g64.bit_generator.state, n


def _rejections(seed, chunk_index, n, m):
    """How many words numpy's bounded draw of m keys over range n rejects in a chunk stream.

    Lemire's test on the stream's uint32 words, low half of each raw word
    first, in uint64: a word x is rejected where x * n mod 2**32 < 2**32 % n.
    """
    words = chunk_stream(seed, chunk_index).bit_generator.random_raw(2 * m).view(np.uint32).astype(np.uint64)
    rejected = words * np.uint64(n) % 2**32 < 2**32 % n
    last = np.searchsorted(np.cumsum(~rejected), m)  # the word that gives the m-th key
    assert last < words.size
    return int(np.count_nonzero(rejected[:last]))


# (scenario, weak-side policy, settings per station, lambda buckets); with
# _MAX_BINS lifted, the buckets set the key range n
_LEMIRE_GRIDS = [
    ("double-ekert", "random", 3, 1024),  # 18 432: about 22 % of full chunks reject a word
    ("double-ekert", "alternate", 3, 1024),  # 9 216 per side, with the parity offset
    ("double-bbm92", "random", 1, 1),  # 1: every key is 0
    ("double-ekert", "random", 2, 1024),  # 8 192, a power of two: nothing is rejected
    ("double-ekert", "random", 3, 100_004),  # 1 800 072: about 27 rejections per full chunk
    ("double-ekert", "alternate", 3, 100_004),  # 900 036 per side: about 14
    ("double-bbm92", "random", 1, 1_431_655_766),  # 2**32 % n is n - 2: a third of the words
]


def test_bin_keys_equal_numpys_bounded_draw_through_rejections(monkeypatch):
    # _draw_bins takes Lemire's method over the raw words itself; its keys
    # must be numpy's bounded int32 draw on every grid and chunk length,
    # through rejections, their splice and the high half an odd m leaves over
    monkeypatch.setattr(protocol, "_MAX_BINS", 2**40)
    met = []  # (m, rejected words) per chunk
    for scenario, policy, n_settings, buckets in _LEMIRE_GRIDS:
        monkeypatch.setattr(protocol, "_LAMBDA_BUCKETS", buckets)
        settings = {"alice_settings": _spread(n_settings), "bob_settings": _spread(n_settings)}
        sc = ScenarioConfig(kind=scenario, weak_side_policy=policy)
        grid = protocol._bin_grid(ProtocolConfig(protocol="ekert", rounds=1, **settings), sc)
        per_side = math.prod(grid.shape[1:])
        n = per_side if grid.parity else math.prod(grid.shape)
        assert grid.shape[3] == buckets and n == grid.key_range
        assert grid.parity == (policy == "alternate") and grid.reject_below == 2**32 % n
        for c in range(48):
            m = (CHUNK_ROUNDS, CHUNK_ROUNDS - 1, 3392, 3393, 2, 1)[c % 6]
            pc = ProtocolConfig(protocol="ekert", rounds=c * CHUNK_ROUNDS + m, seed=62, **settings)
            expected = chunk_stream(pc.seed, c).integers(0, n, m, dtype=np.int32)
            if grid.parity:
                expected += per_side * ((c * CHUNK_ROUNDS + np.arange(m)) % 2)
            key = protocol._draw_bins(pc, grid, c)
            assert key.dtype == np.intp
            np.testing.assert_array_equal(key, expected, err_msg=f"{scenario} {policy} n={n} chunk {c}")
            met.append((m, _rejections(pc.seed, c, n, m)))
    # the splice of several rejected words, and the leftover half of an odd m, were exercised
    assert max(r for _, r in met) >= 2
    assert any(m % 2 and r for m, r in met)
    assert sum(bool(r) for m, r in met[:48] if m == CHUNK_ROUNDS) >= 1  # the default 3 x 3 grid rejects too


def test_bin_grid_refuses_more_bins_than_the_key_product_holds(monkeypatch):
    # a key is (x * n) >> 32 in intp: the grid bound keeps x * n below 2**63
    # and the keys within int32; at the bound the keys are still numpy's
    assert (2**32 - 1) * protocol._MAX_GRID_BINS <= np.iinfo(np.intp).max
    assert protocol._MAX_GRID_BINS <= np.iinfo(np.int32).max
    monkeypatch.setattr(protocol, "_MAX_BINS", 2**40)
    pc = ProtocolConfig(protocol="ekert", rounds=3393, seed=63, alice_settings=(0.0,), bob_settings=(0.0,))
    sc = ScenarioConfig(kind="double-bbm92")
    monkeypatch.setattr(protocol, "_LAMBDA_BUCKETS", protocol._MAX_GRID_BINS)
    grid = protocol._bin_grid(pc, sc)
    expected = chunk_stream(pc.seed, 0).integers(0, grid.key_range, pc.rounds, dtype=np.int32)
    np.testing.assert_array_equal(protocol._draw_bins(pc, grid, 0), expected)
    monkeypatch.setattr(protocol, "_LAMBDA_BUCKETS", protocol._MAX_GRID_BINS + 1)
    with pytest.raises(ValueError, match="at most"):
        protocol._bin_grid(pc, sc)


def _assert_bucketed_matches_columns(pc, sc, workers=(1,)):
    """Streamed counts, Eve-audit counters and report equal the column session's, with and without the audit."""
    reference = SessionRecords.simulate(pc, sc)
    for w, audit in [(1, False)] + [(w, True) for w in workers]:
        streamed = run_session(pc, sc, w, audit=audit)
        np.testing.assert_array_equal(streamed.counts, reference.counts)
        assert streamed.eve_tally == (reference.eve_tally if audit else None), (w, audit)
        if audit:
            assert eve_prediction_report(streamed) == eve_prediction_report(reference), w
    return reference


_BUCKET_ROUNDS = 2 * CHUNK_ROUNDS + 1234  # two full chunks and a partial one


def _settled_bins(pc, tables):
    """The bins of a bin table whose rounds are settled one by one: those holding the sentinel past the last cell."""
    return tables.cells == math.prod(protocol._count_shape(pc))


@pytest.mark.parametrize("policy", [p.value for p in WeakSidePolicy])
@pytest.mark.parametrize("scenario,proto", [
    ("double-bbm92", "bbm92"), ("double-bbm92", "ekert"),
    ("double-ekert", "bbm92"), ("double-ekert", "ekert"),
])
def test_bucketed_reducer_matches_the_column_session(scenario, proto, policy):
    # counts and Eve-audit counters of every bin equal those of the per-round columns
    pc = ProtocolConfig(protocol=proto, rounds=_BUCKET_ROUNDS, seed=46)
    for alpha in (0.2, DEFAULT_ALPHA, 0.7):
        for strong in (2.0, 1.5):
            sc = ScenarioConfig(kind=scenario, alpha=alpha, strong_intensity=strong, weak_side_policy=policy)
            _assert_bucketed_matches_columns(pc, sc, workers=(1, 2))


def _window_edges(settings, widths):
    """The lambdas s + q + sign * w where a window changes, indexed (s, q, sign, w); not canonicalized."""
    return np.array([
        [[[s + q + sign * w for w in widths] for sign in (1, -1)] for q in (0.0, math.pi / 2.0)]
        for s in settings
    ])


def _edge_draws(pc, sc):
    """Hidden polarizations on and around every window edge, bucket boundary and end of [0, pi)."""
    true_width = protocol.window_half_width
    widths = [true_width(sc.strong_intensity), true_width(weak_intensity(sc.alpha))]
    edges = _window_edges(pc.alice_settings + pc.bob_settings, widths).reshape(-1)
    grid = protocol._bin_grid(pc, sc)
    k = np.arange(grid.buckets + 1)
    boundaries = np.concatenate([k * math.pi / grid.buckets, k / grid.scale])
    exact = canon_angle(np.concatenate([edges, boundaries]))
    exact = np.concatenate([exact, np.nextafter(exact, -1.0), np.nextafter(exact, 4.0)])
    exact = np.append(exact, [0.0, math.nextafter(math.pi, 0.0)])
    exact = exact[(exact >= 0.0) & (exact < math.pi)]

    def draw(rng, size):
        near = canon_angle(rng.choice(edges, size) + rng.uniform(-4e-6, 4e-6, size))
        near[: exact.size] = exact[:size]  # the first rounds of every chunk; full chunks hold them all
        return near

    return draw


@pytest.mark.parametrize("scenario,proto", [("double-bbm92", "bbm92"), ("double-ekert", "ekert")])
def test_bucketed_reducer_at_window_edges_and_bucket_boundaries(monkeypatch, scenario, proto):
    # rounds on and within 4e-6 of a window edge (where Eve's Malus cosine
    # crosses its threshold), on bucket boundaries and their float
    # neighbours, at 0 and at nextafter(pi, 0); with the kernel's windows
    # too wide by up to three buckets, so the audit's counters are exercised
    pc = ProtocolConfig(protocol=proto, rounds=_BUCKET_ROUNDS, seed=47)
    true_width = protocol.window_half_width
    for strong in (2.0, 1.5):
        sc = ScenarioConfig(kind=scenario, strong_intensity=strong)
        injected = _inject_lambdas(monkeypatch, _edge_draws(pc, sc))
        for extra in (0.0, 1e-6, 1e-3, 1e-2):
            monkeypatch.setattr(protocol, "window_half_width", lambda i, extra=extra: true_width(i) + extra)
            # rounds exactly on an edge may differ between the two
            # arithmetics even without a fault; the counters must still agree
            reference = _assert_bucketed_matches_columns(pc, sc)
            _assert_injected(reference, injected)
            report = eve_prediction_report(reference)
            assert (report["key_rounds"], report["key_mismatches"]) == _key_recount(reference)
            if strong == 1.5 and extra == 1e-6:
                # a station clicks just outside its true window, where Eve
                # predicts no click: key rounds she gets wrong
                assert report["key_mismatches"] > 0
        monkeypatch.setattr(protocol, "window_half_width", true_width)
    # uniform draws: a window three buckets too wide puts Eve's midpoint
    # prediction at odds with the kernel's outcome in whole buckets, which
    # the audited table settles (on top of every bin the unaudited one
    # settles), so the audit counts their mismatches round by round
    monkeypatch.undo()
    monkeypatch.setattr(protocol, "window_half_width", lambda i: true_width(i) + 1e-2)
    sc = ScenarioConfig(kind=scenario)
    with_audit, without = (
        _settled_bins(pc, protocol._bucket_tables(pc, sc, audit)) for audit in (True, False)
    )
    pinned = {"double-bbm92": (96, 24), "double-ekert": (648, 144)}[scenario]
    assert (int(with_audit.sum()), int(without.sum())) == pinned
    assert with_audit[without].all()
    assert _assert_bucketed_matches_columns(pc, sc).eve_tally[0] > 0


@pytest.mark.parametrize("scenario", ["double-bbm92", "double-ekert"])
def test_every_bucket_holding_a_window_edge_is_settled(scenario):
    # the bucket that holds a window edge of a setting and weak side is
    # settled in every bin of that setting and weak side, with and without
    # Eve's arithmetic
    true_width = protocol.window_half_width
    eight = tuple(0.1 + np.arange(8) * math.pi / 8)
    setting_sets = [("bbm92", {}), ("ekert", {}), ("ekert", {"alice_settings": eight, "bob_settings": eight})]
    for alpha, strong, (proto, settings), audit in itertools.product(
        (1e-4, 0.2, DEFAULT_ALPHA, 0.7), (1.01, 1.5, 2.0), setting_sets, (True, False)
    ):
        pc = ProtocolConfig(protocol=proto, rounds=1, **settings)
        sc = ScenarioConfig(kind=scenario, alpha=alpha, strong_intensity=strong)
        tables = protocol._bucket_tables(pc, sc, audit)
        settle = _settled_bins(pc, tables).reshape(tables.grid.shape)
        weak = weak_intensity(alpha) if scenario == "double-ekert" else strong
        for station, station_settings, weak_code in (
            (0, pc.alice_settings, WeakSide.A), (1, pc.bob_settings, WeakSide.B)
        ):
            # every weak side the session reaches: A and B under double-ekert, NONE under double-bbm92
            for digit, code in enumerate(tables.grid.sides):
                width = true_width(weak if code == weak_code else strong)
                edges = canon_angle(_window_edges(station_settings, [width]))
                held = np.multiply(edges, tables.grid.scale).astype(np.intp).reshape(len(station_settings), -1)
                for i, buckets in enumerate(held):
                    bins = settle[digit, i] if station == 0 else settle[digit, :, i]
                    assert bins[:, buckets].all(), (alpha, strong, proto, audit, station, code, i)


@pytest.mark.parametrize("scenario,proto,kwargs,audited,unaudited,bins", [
    ("double-ekert", "ekert", {}, 280, 208, 27_648),
    ("double-bbm92", "bbm92", {}, 72, 72, 12_288),
    ("double-ekert", "ekert", {"alpha": 1e-4}, 1056, 192, 27_648),
    ("double-ekert", "ekert", {"strong_intensity": 1.01}, 824, 208, 27_648),
])
def test_settle_bin_counts(scenario, proto, kwargs, audited, unaudited, bins):
    # a looser settle rule costs speed and a tighter one correctness: both
    # move these counts, taken over all three weak sides. A session's table
    # settles the same bins over the weak sides it reaches
    pc = ProtocolConfig(protocol=proto, rounds=1)
    sc = ScenarioConfig(kind=scenario, **kwargs)
    for audit, expected in ((True, audited), (False, unaudited)):
        three_sides = _three_side_cells(pc, sc, audit) >= math.prod(protocol._count_shape(pc))
        assert (int(three_sides.sum()), three_sides.size) == (expected, bins), audit
        tables = protocol._bucket_tables(pc, sc, audit)
        reached = three_sides[:, :, tables.grid.sides].transpose(2, 0, 1, 3)
        np.testing.assert_array_equal(_settled_bins(pc, tables), reached.reshape(-1))


@pytest.mark.parametrize("buckets", [1024, 1000, 5])
def test_bucket_index_stays_in_range(monkeypatch, buckets):
    # at 1000 or 5 buckets, buckets / pi times nextafter(pi, 0) rounds up to
    # the bucket count, so the scale has to be lowered
    monkeypatch.setattr(protocol, "_LAMBDA_BUCKETS", buckets)
    sc = ScenarioConfig(kind="double-ekert")
    top = math.nextafter(math.pi, 0.0)
    for n_settings in (1, 2, 3, 8, 127):
        settings = tuple(np.arange(n_settings) * math.pi / n_settings)
        pc = ProtocolConfig(protocol="ekert", rounds=1, alice_settings=settings, bob_settings=settings)
        grid = protocol._bin_grid(pc, sc)
        k = np.arange(grid.buckets + 1)
        lam = np.concatenate([k * math.pi / grid.buckets, k / grid.scale, [top]])
        lam = np.concatenate([lam, np.nextafter(lam, -1.0), np.nextafter(lam, 4.0)])
        lam = lam[(lam >= 0.0) & (lam < math.pi)]
        bucket = np.multiply(lam, grid.scale).astype(np.intp)
        assert 0 <= bucket.min() and bucket.max() == grid.buckets - 1


@pytest.mark.parametrize("buckets", [1, 1000])
def test_bucketed_reducer_with_other_bucket_counts(monkeypatch, buckets):
    # one bucket settles every round; 1000 buckets need a lowered scale
    monkeypatch.setattr(protocol, "_LAMBDA_BUCKETS", buckets)
    pc = ProtocolConfig(protocol="ekert", rounds=_BUCKET_ROUNDS, seed=48)
    for scenario in ("double-bbm92", "double-ekert"):
        sc = ScenarioConfig(kind=scenario)
        for audit in (True, False):
            assert _settled_bins(pc, protocol._bucket_tables(pc, sc, audit)).all() == (buckets == 1)
        _assert_bucketed_matches_columns(pc, sc)


def test_bucketed_reducer_for_one_and_for_127_settings_a_side():
    sc = ScenarioConfig(kind="double-ekert")
    one = ProtocolConfig(protocol="ekert", rounds=70_000, seed=49, alice_settings=(0.3,), bob_settings=(1.1,))
    _assert_bucketed_matches_columns(one, sc)
    many = tuple(np.arange(127) * math.pi / 127)
    pc = ProtocolConfig(protocol="ekert", rounds=70_000, seed=49, alice_settings=many, bob_settings=many)
    tables = protocol._bucket_tables(pc, sc, True)
    assert tables.cells.size <= protocol._MAX_BINS
    assert tables.cells.nbytes <= 8 * protocol._MAX_BINS, tables.cells.nbytes
    _assert_bucketed_matches_columns(pc, sc)


class _RecordedBitGenerator:
    """A bit generator that logs (stream label, "random_raw", size) of each raw draw, then draws it."""

    def __init__(self, bit_generator, label, log):
        self._bit_generator, self._label, self._log = bit_generator, label, log

    def random_raw(self, size):
        self._log.append((self._label, "random_raw", size))
        return self._bit_generator.random_raw(size)

    def __getattr__(self, name):
        return getattr(self._bit_generator, name)


class _RecordedStream:
    """A generator that logs (stream label, method, size) of each draw, raw draws included, then draws it."""

    def __init__(self, rng, label, log):
        self._rng, self._label, self._log = rng, label, log
        self.bit_generator = _RecordedBitGenerator(rng.bit_generator, label, log)

    def integers(self, low, high, size, **kwargs):
        self._log.append((self._label, "integers", size))
        return self._rng.integers(low, high, size, **kwargs)

    def random(self, size):
        self._log.append((self._label, "random", size))
        return self._rng.random(size)


def _record_draws(monkeypatch):
    """Log every draw of the session's chunk streams, in the order they are made."""
    log = []
    chunk = protocol.chunk_stream
    monkeypatch.setattr(protocol, "chunk_stream", lambda seed, c: _RecordedStream(chunk(seed, c), ("chunk", c), log))
    return log


def _first_draws(log):
    """The first draw of each chunk stream in log, in order.

    Any later draw of a stream must be a random_raw: the further words a
    bin-key draw takes after a rejection.
    """
    first = {}
    for entry in log:
        if entry[0] in first:
            assert entry[1] == "random_raw", entry
        else:
            first[entry[0]] = entry
    return list(first.values())


def _record_fraction_rounds(monkeypatch):
    """Log the round indices of every round_fractions call, in the order they are made."""
    log = []
    real = protocol.round_fractions
    monkeypatch.setattr(protocol, "round_fractions", lambda seed, rounds: log.append(rounds) or real(seed, rounds))
    return log


@pytest.mark.parametrize("scenario,proto", [("double-bbm92", "bbm92"), ("double-ekert", "ekert")])
def test_streamed_chunk_draws_a_fraction_only_for_each_settled_round(monkeypatch, scenario, proto):
    # the chunk stream draws the raw words of the m bin keys and nothing
    # else; round_fractions is asked, over all its calls, for exactly the global indices of the
    # rounds the session's table settles, in round order, with and without
    # the audit
    pc = ProtocolConfig(protocol=proto, rounds=CHUNK_ROUNDS + 1234, seed=54)
    sc = ScenarioConfig(kind=scenario)
    settled = {}
    for audit in (False, True):
        tables = protocol._bucket_tables(pc, sc, audit)
        expected, rounds = [], []
        for c, m in enumerate((CHUNK_ROUNDS, 1234)):
            expected += [(("chunk", c), "random_raw", -(-m // 2))]
            local = np.flatnonzero(_settled_bins(pc, tables).take(_DRAW_BINS(pc, tables.grid, c)))
            rounds.append(c * CHUNK_ROUNDS + local)
        log, asked = _record_draws(monkeypatch), _record_fraction_rounds(monkeypatch)
        run_session(pc, sc, audit=audit)
        monkeypatch.undo()
        assert _first_draws(log) == expected, audit
        settled[audit] = np.concatenate(rounds)
        np.testing.assert_array_equal(np.concatenate(asked), settled[audit])
        assert 0 < settled[audit].size < 0.05 * pc.rounds
    # Eve's audit settles bins the window rule decides only under double-ekert
    assert np.isin(settled[False], settled[True]).all()
    assert (settled[True].size > settled[False].size) == (scenario == "double-ekert")


def test_streamed_session_settles_its_rounds_in_bounded_batches(monkeypatch):
    # 24 chunks of an audited double-ekert session settle about 19 000
    # rounds: two full batches and a tail. Each round_fractions call holds
    # under the batch bound plus one chunk's settled rounds, the calls
    # together ask for every settled round once, in round order, and the
    # counts and counters do not depend on the worker count
    pc = ProtocolConfig(protocol="ekert", rounds=24 * CHUNK_ROUNDS, seed=59)
    sc = ScenarioConfig(kind="double-ekert")
    tables = protocol._bucket_tables(pc, sc, True)
    settled = [
        c * CHUNK_ROUNDS + np.flatnonzero(_settled_bins(pc, tables).take(_DRAW_BINS(pc, tables.grid, c)))
        for c in range(24)
    ]
    bound = protocol._SETTLE_BATCH + max(rounds.size for rounds in settled)
    asked = _record_fraction_rounds(monkeypatch)
    one = run_session(pc, sc)
    monkeypatch.undo()
    assert len(asked) >= 3 and sum(rounds.size for rounds in asked[:2]) >= 2 * protocol._SETTLE_BATCH
    assert all(rounds.size < bound for rounds in asked), [rounds.size for rounds in asked]
    np.testing.assert_array_equal(np.concatenate(asked), np.concatenate(settled))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    two = run_session(pc, sc, 2)
    assert one.counts.tobytes() == two.counts.tobytes()
    assert one.eve_tally == two.eve_tally
    assert one.counts.sum() == pc.rounds


@pytest.mark.parametrize("scenario,policy", [("double-bbm92", "random")] + [
    ("double-ekert", policy.value) for policy in WeakSidePolicy
])
def test_double_blind_columns_are_prefix_stable_across_a_partial_final_chunk(scenario, policy):
    # a final chunk's bin keys, and so its rounds, are the first of a full
    # chunk's, so a shorter session's columns are the longer one's prefix
    sc = ScenarioConfig(kind=scenario, weak_side_policy=policy)
    short, long = (
        SessionRecords.simulate(ProtocolConfig(protocol="ekert", rounds=rounds, seed=55), sc)
        for rounds in (CHUNK_ROUNDS + 1234, 2 * CHUNK_ROUNDS)
    )
    for name in ("a_idx", "b_idx", "outcome_a", "outcome_b", "weak_side", "hidden_lambda"):
        np.testing.assert_array_equal(getattr(short, name), getattr(long, name)[: len(short)], err_msg=name)
    assert eve_prediction_report(short)["mismatched_outcomes"] == 0


def test_simulated_chunk_takes_a_fraction_for_every_round(monkeypatch):
    # a per-round session decodes every round: the chunk stream draws the raw
    # words of its m bin keys, and round_fractions gives every round of the
    # chunk its fraction
    pc = ProtocolConfig(protocol="ekert", rounds=CHUNK_ROUNDS + 1234, seed=56)
    log, asked = _record_draws(monkeypatch), _record_fraction_rounds(monkeypatch)
    SessionRecords.simulate(pc, ScenarioConfig(kind="double-ekert"))
    assert _first_draws(log) == [(("chunk", 0), "random_raw", CHUNK_ROUNDS // 2), (("chunk", 1), "random_raw", 617)]
    assert len(asked) == 2
    np.testing.assert_array_equal(np.concatenate(asked), np.arange(pc.rounds))


@pytest.mark.parametrize("depolarize,arrays", [(0.0, 4), (0.1, 7)])
def test_genuine_pair_chunk_skips_the_replacement_draws_without_depolarization(monkeypatch, depolarize, arrays):
    # a_idx, b_idx, a_coin and u_flip always; depol_u, a_repl and b_repl only
    # when a pair can be replaced, since nothing else reads them
    log = _record_draws(monkeypatch)
    pc = ProtocolConfig(protocol="bbm92", rounds=1234, seed=57)
    run_session(pc, ScenarioConfig(kind="honest", depolarize_prob=depolarize))
    assert [entry[0] for entry in log] == [("chunk", 0)] * arrays


def test_unaudited_double_blind_session_runs_none_of_eves_arithmetic(monkeypatch):
    # without the audit a session builds its table from the window rule alone
    # and settles only the rounds that rule leaves undecided
    calls = []
    for name in ("faked_pulse_params", "predict_outcome_codes"):
        real = getattr(protocol, name)
        monkeypatch.setattr(protocol, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    pc = ProtocolConfig(protocol="ekert", rounds=CHUNK_ROUNDS + 1234, seed=58)
    for scenario in ("double-ekert", "double-bbm92"):
        run_session(pc, ScenarioConfig(kind=scenario), audit=False)
    assert calls == []
    # the counters see the audited session's calls
    run_session(pc, ScenarioConfig(kind="double-ekert"))
    assert set(calls) == {"faked_pulse_params", "predict_outcome_codes"}


@pytest.mark.parametrize("n_a,n_b,dtype", [(22, 31, np.int16), (23, 30, np.int32)])
def test_bin_table_dtype_holds_the_audit_sentinel(n_a, n_b, dtype):
    # 22 x 31 setting pairs give 32 736 cells, which with the sentinel an
    # int16 table holds; 690 pairs need int32
    pc = ProtocolConfig(protocol="ekert", rounds=1, alice_settings=_spread(n_a), bob_settings=_spread(n_b))
    n_cells = math.prod(protocol._count_shape(pc))
    for audit in (True, False):
        cells = protocol._bucket_tables(pc, ScenarioConfig(kind="double-ekert"), audit).cells
        assert cells.dtype == dtype and np.iinfo(dtype).max >= n_cells
        assert 0 <= cells.min() and cells.max() == n_cells
