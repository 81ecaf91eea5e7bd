"""Acceptance gate: every headline behavior at full desk scale (1e6 rounds).

Each criterion prints one [PASS]/[FAIL] line (run with -s to see them all)
and then asserts. The seed is pinned; tolerances are at least four standard
errors except where the model is exact.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from blindsim.analysis import (
    QUANTUM_CHSH_MAX,
    chsh_bound_conditional,
    chsh_bound_detection,
    estimate_efficiencies,
    fair_sampling_monitor,
    oracle_corr_bbm92,
    oracle_eta,
    oracle_eta_conditional,
    oracle_weak_detection_prob,
    weak_side_detection_rate,
)
from blindsim.cli import main as cli_main
from blindsim.optics import Outcome, split_intensities
from blindsim.protocol import (
    EKERT_ALICE_SETTINGS,
    EKERT_BOB_SETTINGS,
    ProtocolConfig,
    SessionRecords,
    bbm92_qber,
    chsh_score,
    correlation_estimate,
    eve_prediction_report,
    run_session,
    sift_bbm92,
)
from blindsim.sources import DEFAULT_ALPHA, ScenarioConfig

N_ROUNDS = 1_000_000
ACCEPT_SEED = 6
SQ2 = math.sqrt(2.0)

# offsets keep the per-criterion sessions on independent streams
CURVE_POINTS = (
    (0.0, 103),
    (math.pi / 8.0, 100),
    (math.pi / 4.0, 101),
    (3.0 * math.pi / 8.0, 102),
    (math.pi / 2.0, 104),
)


def _criterion(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def attack_bbm92():
    pc = ProtocolConfig(protocol="bbm92", rounds=N_ROUNDS, seed=ACCEPT_SEED)
    return SessionRecords.simulate(pc, ScenarioConfig(kind="double-bbm92"))


@pytest.fixture(scope="module")
def attack_ekert():
    pc = ProtocolConfig(protocol="ekert", rounds=N_ROUNDS, seed=ACCEPT_SEED)
    return SessionRecords.simulate(pc, ScenarioConfig(kind="double-ekert"))


@pytest.fixture(scope="module")
def attack_ekert_under_bbm92():
    pc = ProtocolConfig(protocol="bbm92", rounds=N_ROUNDS, seed=ACCEPT_SEED)
    return SessionRecords.simulate(pc, ScenarioConfig(kind="double-ekert"))


@pytest.fixture(scope="module")
def single_blind():
    pc = ProtocolConfig(protocol="bbm92", rounds=N_ROUNDS, seed=ACCEPT_SEED)
    return SessionRecords.simulate(pc, ScenarioConfig(kind="single-blinding"))


@pytest.fixture(scope="module")
def honest_ekert():
    pc = ProtocolConfig(protocol="ekert", rounds=N_ROUNDS, seed=ACCEPT_SEED)
    return SessionRecords.simulate(pc, ScenarioConfig(kind="honest"))


@pytest.fixture(scope="module")
def curve_sessions():
    sessions = []
    for delta, offset in CURVE_POINTS:
        pc = ProtocolConfig(
            protocol="bbm92",
            rounds=N_ROUNDS,
            seed=ACCEPT_SEED + offset,
            alice_settings=(0.0,),
            bob_settings=(delta,),
        )
        sessions.append((delta, SessionRecords.simulate(pc, ScenarioConfig(kind="double-bbm92"))))
    return sessions


def _silent_rounds_are_boundary_hits(records, outcomes, polarizations, settings) -> tuple[int, bool]:
    """NoClick rounds are tolerable only on the exact cos 2(pol - theta) = 0 set."""
    silent = outcomes == int(Outcome.NO_CLICK)
    n_silent = int(np.count_nonzero(silent))
    if n_silent == 0:
        return 0, True
    boundary = np.abs(np.cos(2.0 * (polarizations[silent] - settings[silent]))) < 1e-9
    return n_silent, bool(np.all(boundary))


def test_acceptance_01_strong_attack_full_rates_zero_errors(attack_bbm92):
    rec = attack_bbm92
    qber = bbm92_qber(rec)
    rate_a = float(np.mean(np.abs(rec.outcome_a) == 1))
    rate_b = float(np.mean(np.abs(rec.outcome_b) == 1))
    pol_b = np.mod(rec.hidden_lambda + math.pi / 2.0, math.pi)
    silent_a, ok_a = _silent_rounds_are_boundary_hits(rec, rec.outcome_a, rec.hidden_lambda, rec.theta_a)
    silent_b, ok_b = _silent_rounds_are_boundary_hits(rec, rec.outcome_b, pol_b, rec.theta_b)
    ok = (
        qber == 0.0
        and ok_a
        and ok_b
        and rate_a == 1.0 - silent_a / N_ROUNDS
        and rate_b == 1.0 - silent_b / N_ROUNDS
        and silent_a == 0
        and silent_b == 0
    )
    _criterion(
        1,
        ok,
        f"matched-basis error rate {qber}, click rates ({rate_a}, {rate_b}), "
        f"silent rounds ({silent_a}, {silent_b})",
    )


def test_acceptance_02_strong_attack_correlation_curve(curve_sessions):
    tol = 0.005
    worst = 0.0
    for delta, rec in curve_sessions:
        est = correlation_estimate(rec, 0.0, delta)
        worst = max(worst, abs(est.value - oracle_corr_bbm92(delta)))
    _criterion(
        2,
        worst <= tol,
        f"linear correlation curve max deviation {worst:.5f} <= {tol} over 5 offsets",
    )


def test_acceptance_03_weak_attack_reaches_quantum_chsh(attack_ekert):
    res = chsh_score(attack_ekert)
    s_dev = abs(res.value - 2.0 * SQ2)
    expected_signs = (-1.0, 1.0, -1.0, -1.0)
    pair_dev = max(
        abs(p.value - sgn * SQ2 / 2.0) for p, sgn in zip(res.pairs, expected_signs)
    )
    ok = s_dev <= 0.01 and pair_dev <= 0.005
    _criterion(
        3,
        ok,
        f"CHSH {res.value:.4f} (|dev| {s_dev:.4f} <= 0.01), "
        f"max pair deviation {pair_dev:.4f} <= 0.005",
    )


def test_acceptance_04_weak_attack_efficiencies(attack_ekert):
    eff = estimate_efficiencies(attack_ekert, n_emitted=N_ROUNDS)
    weak_rate = weak_side_detection_rate(attack_ekert)
    dev_eta = abs(eff.eta - oracle_eta(DEFAULT_ALPHA))
    dev_eta21 = abs(eff.eta_21 - oracle_eta_conditional(DEFAULT_ALPHA))
    dev_weak = abs(weak_rate - oracle_weak_detection_prob(DEFAULT_ALPHA))
    ok = dev_eta <= 0.002 and dev_eta21 <= 0.002 and dev_weak <= 0.002
    _criterion(
        4,
        ok,
        f"eta {eff.eta:.4f}, eta_21 {eff.eta_21:.4f}, weak-side rate {weak_rate:.4f} "
        f"(deviations {dev_eta:.4f}/{dev_eta21:.4f}/{dev_weak:.4f} <= 0.002)",
    )


def test_acceptance_05_bounds_saturate_at_operating_point():
    at_eta = chsh_bound_detection(oracle_eta(DEFAULT_ALPHA))
    at_eta21 = chsh_bound_conditional(oracle_eta_conditional(DEFAULT_ALPHA))
    edge_eta = chsh_bound_detection(0.75)
    edge_eta21 = chsh_bound_conditional(2.0 / 3.0)
    ok = (
        abs(at_eta - QUANTUM_CHSH_MAX) <= 1e-12
        and abs(at_eta21 - QUANTUM_CHSH_MAX) <= 1e-12
        and abs(edge_eta - 4.0) <= 1e-12
        and abs(edge_eta21 - 4.0) <= 1e-12
    )
    _criterion(
        5,
        ok,
        f"local-model ceilings {at_eta:.12f}/{at_eta21:.12f} equal 2*sqrt(2), "
        f"domain edges {edge_eta}/{edge_eta21} equal 4",
    )


def test_acceptance_06_single_blinding_halves_bob(single_blind):
    rec = single_blind
    rate_a = float(np.mean(np.abs(rec.outcome_a) == 1))
    rate_b = float(np.mean(np.abs(rec.outcome_b) == 1))
    mismatches = int(np.count_nonzero((np.abs(rec.outcome_b) == 1) & (rec.outcome_b != rec.eve_outcome)))
    ok = rate_a == 1.0 and abs(rate_b - 0.5) <= 0.002 and mismatches == 0
    _criterion(
        6,
        ok,
        f"alice rate {rate_a}, bob rate {rate_b:.4f} (|dev| <= 0.002), "
        f"clicks disagreeing with the intercept {mismatches}",
    )


def test_acceptance_07_eve_predicts_every_outcome(attack_bbm92, attack_ekert):
    rep_strong = eve_prediction_report(attack_bbm92)
    rep_weak = eve_prediction_report(attack_ekert)
    ok = (
        rep_strong["rounds"] == N_ROUNDS
        and rep_weak["rounds"] == N_ROUNDS
        and rep_strong["mismatched_outcomes"] == 0
        and rep_weak["mismatched_outcomes"] == 0
    )
    _criterion(
        7,
        ok,
        f"prediction mismatches over {N_ROUNDS} rounds: "
        f"strong/strong {rep_strong['mismatched_outcomes']}, "
        f"weak/strong {rep_weak['mismatched_outcomes']}",
    )


def test_acceptance_08_weak_attack_survives_key_sifting(attack_ekert_under_bbm92):
    key = sift_bbm92(attack_ekert_under_bbm92)
    qber = bbm92_qber(attack_ekert_under_bbm92)
    ok = qber == 0.0 and key.bits_alice.size > 0
    _criterion(
        8,
        ok,
        f"weak/strong source under key sifting: error rate {qber} "
        f"on {key.bits_alice.size} sifted bits",
    )


def test_acceptance_09_property_suites(
    attack_bbm92, attack_ekert, attack_ekert_under_bbm92, single_blind, honest_ekert, tmp_path
):
    # Malus energy conservation on random inputs
    rng = np.random.default_rng(17)
    n = 100_000
    intensity = rng.uniform(0.0, 3.0, n)
    pol = rng.uniform(0.0, math.pi, n)
    setting = rng.uniform(0.0, math.pi, n)
    i0, i1 = split_intensities(intensity, pol, setting)
    energy_err = float(np.max(np.abs(i0 + i1 - intensity)))
    energy_ok = energy_err <= 1e-12

    # rotational invariance: a global analyzer offset moves no estimate
    # beyond four combined standard errors
    phi = 0.3
    pc_rot = ProtocolConfig(
        protocol="ekert",
        rounds=N_ROUNDS,
        seed=ACCEPT_SEED + 300,
        alice_settings=tuple(s + phi for s in EKERT_ALICE_SETTINGS),
        bob_settings=tuple(s + phi for s in EKERT_BOB_SETTINGS),
    )
    rot = SessionRecords.simulate(pc_rot, ScenarioConfig(kind="double-ekert"))
    quad_rot = (phi, phi + math.pi / 4.0, phi + math.pi / 8.0, phi + 3.0 * math.pi / 8.0)
    base_res = chsh_score(attack_ekert)
    rot_res = chsh_score(rot, quad=quad_rot)
    rot_ok = abs(base_res.value - rot_res.value) <= 4.0 * math.hypot(
        base_res.stderr, rot_res.stderr
    )
    for pb, pr in zip(base_res.pairs, rot_res.pairs):
        rot_ok = rot_ok and abs(pb.value - pr.value) <= 4.0 * math.hypot(pb.stderr, pr.stderr)
    eff_base = estimate_efficiencies(attack_ekert, n_emitted=N_ROUNDS)
    eff_rot = estimate_efficiencies(rot, n_emitted=N_ROUNDS)
    rot_ok = rot_ok and abs(eff_base.eta - eff_rot.eta) <= 4.0 * math.hypot(
        eff_base.eta_stderr, eff_rot.eta_stderr
    )
    rot_ok = rot_ok and abs(eff_base.eta_21 - eff_rot.eta_21) <= 4.0 * math.hypot(
        eff_base.eta_21_stderr, eff_rot.eta_21_stderr
    )
    wr_base = weak_side_detection_rate(attack_ekert)
    wr_rot = weak_side_detection_rate(rot)
    wr_se = math.sqrt(2.0 * wr_base * (1.0 - wr_base) / N_ROUNDS)
    rot_ok = rot_ok and abs(wr_base - wr_rot) <= 4.0 * wr_se

    # seed determinism: worker count never changes a single byte
    pc = ProtocolConfig(protocol="ekert", rounds=N_ROUNDS, seed=ACCEPT_SEED)
    wide = SessionRecords.simulate(pc, ScenarioConfig(kind="double-ekert"), workers=4)
    det_ok = all(
        getattr(attack_ekert, col).tobytes() == getattr(wide, col).tobytes()
        for col in ("theta_a", "theta_b", "outcome_a", "outcome_b", "weak_side", "hidden_lambda")
    )
    cli_args = [
        "run", "--scenario", "double-ekert", "--protocol", "ekert",
        "--rounds", "120000", "--seed", str(ACCEPT_SEED),
    ]
    p1, p4 = tmp_path / "w1.json", tmp_path / "w4.json"
    cli_main(cli_args + ["--workers", "1", "--out", str(p1)])
    cli_main(cli_args + ["--workers", "4", "--out", str(p4)])
    det_ok = det_ok and p1.read_bytes() == p4.read_bytes()

    # no double click anywhere in the in-scope scenarios
    no_double = all(
        not np.any(rec.outcome_a == int(Outcome.DOUBLE_CLICK))
        and not np.any(rec.outcome_b == int(Outcome.DOUBLE_CLICK))
        for rec in (attack_bbm92, attack_ekert, attack_ekert_under_bbm92, single_blind, honest_ekert, rot)
    )

    ok = energy_ok and rot_ok and det_ok and no_double
    _criterion(
        9,
        ok,
        f"energy error {energy_err:.2e} <= 1e-12; rotation-invariant {rot_ok}; "
        f"worker-count determinism {det_ok}; double clicks absent {no_double}",
    )


def _biased_records():
    # click rate 1.0 at one setting, 0.5 at the other: a deliberate
    # fair-sampling violation
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


def test_acceptance_10_fair_sampling_monitor(
    attack_bbm92, attack_ekert, honest_ekert
):
    v_honest = fair_sampling_monitor(honest_ekert).verdict
    v_strong = fair_sampling_monitor(attack_bbm92).verdict
    v_weak = fair_sampling_monitor(attack_ekert).verdict
    v_biased = fair_sampling_monitor(_biased_records(), significance=0.01).verdict
    ok = (
        v_honest == "pass"
        and v_strong == "pass"
        and v_weak == "pass"
        and v_biased == "fail"
    )
    _criterion(
        10,
        ok,
        f"verdicts: honest {v_honest}, strong/strong {v_strong}, weak/strong {v_weak}, "
        f"biased fixture {v_biased}",
    )


def test_acceptance_11_eve_knows_the_whole_sifted_key(attack_bbm92, attack_ekert, attack_ekert_under_bbm92):
    # the paper's headline: zero errors in the sifted key, every bit of which
    # Eve predicts; the streamed session, as `run` reports it, counts the same
    details, ok = [], True
    for name, rec in (
        ("strong/strong bbm92", attack_bbm92),
        ("weak/strong ekert", attack_ekert),
        ("weak/strong bbm92", attack_ekert_under_bbm92),
    ):
        report = eve_prediction_report(rec)
        streamed = eve_prediction_report(run_session(rec.protocol, rec.scenario))
        qber = bbm92_qber(rec)
        ok = ok and (
            qber == 0.0
            and report["key_match_fraction"] == 1.0
            and report["key_rounds"] == sift_bbm92(rec).bits_alice.size > 0
            and streamed == report
        )
        fraction, bits = report["key_match_fraction"], report["key_rounds"]
        details.append(f"{name}: qber {qber}, Eve knows {fraction} of {bits} bits")
    _criterion(11, ok, "; ".join(details))
