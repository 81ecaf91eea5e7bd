"""Session engine: run a protocol against a source, sift keys, score CHSH.

A session draws independent uniform settings for both stations each round,
asks the configured source for that round's physics, and records the public
transcript plus whatever hidden side-information the scenario carries
(the faked-state polarization, Eve's intercept results). Sifting and the
correlation estimators only ever look at the public projection.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .optics import Outcome, canon_angle, window_codes, window_half_width, wrap_diff
from .sources import (
    CHUNK_ROUNDS,
    DOUBLE_BLIND_KINDS,
    ScenarioConfig,
    ScenarioKind,
    chunk_stream,
    honest_outcome_codes,
    intercept_click_codes,
    predict_outcome_codes,
    sample_lambda,
    weak_intensity,
    weak_side_codes,
)


class ProtocolKind(str, enum.Enum):
    BBM92 = "bbm92"
    EKERT = "ekert"


BBM92_SETTINGS = (0.0, math.pi / 4.0)
EKERT_ALICE_SETTINGS = (0.0, math.pi / 8.0, math.pi / 4.0)
EKERT_BOB_SETTINGS = (math.pi / 8.0, math.pi / 4.0, 3.0 * math.pi / 8.0)

# CHSH quadruple (a, a_prime, b, b_prime); all four appear in the default
# Ekert setting sets
CHSH_QUAD = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)

# angles closer than this modulo pi name the same setting
_SETTING_TOL = 1e-12


def _canon_settings(name: str, values) -> tuple[float, ...]:
    settings = tuple(canon_angle(float(v)) for v in values)
    if not 1 <= len(settings) <= 127:  # indices are stored as int8
        raise ValueError(f"{name} must hold 1 to 127 angles, got {len(settings)}")
    if any(abs(wrap_diff(s - t)) < _SETTING_TOL for i, s in enumerate(settings) for t in settings[:i]):
        raise ValueError(f"{name} must be distinct angles modulo pi, got {values}")
    return settings


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol choice plus session size and randomness seed.

    Setting lists default per protocol; overrides are canonicalized to
    [0, pi) and must lie more than 1e-12 apart modulo pi.
    """

    protocol: ProtocolKind
    rounds: int
    seed: int = 0
    alice_settings: tuple[float, ...] | None = None
    bob_settings: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "protocol", ProtocolKind(self.protocol))
        object.__setattr__(self, "rounds", int(self.rounds))
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        object.__setattr__(self, "seed", int(self.seed))
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.protocol is ProtocolKind.BBM92:
            default_a = default_b = BBM92_SETTINGS
        else:
            default_a, default_b = EKERT_ALICE_SETTINGS, EKERT_BOB_SETTINGS
        alice = self.alice_settings if self.alice_settings is not None else default_a
        bob = self.bob_settings if self.bob_settings is not None else default_b
        object.__setattr__(self, "alice_settings", _canon_settings("alice_settings", alice))
        object.__setattr__(self, "bob_settings", _canon_settings("bob_settings", bob))


class _ClickMasks:
    """Which rounds each station clicked in; shared by both record views."""

    @property
    def clicked_a(self) -> np.ndarray:
        return np.abs(self.outcome_a) == 1

    @property
    def clicked_b(self) -> np.ndarray:
        return np.abs(self.outcome_b) == 1


@dataclass(frozen=True)
class PublicRounds(_ClickMasks):
    """The transcript Alice and Bob actually share: settings and outcomes only.

    a_idx/b_idx index alice_settings/bob_settings; counts is the session's
    count tensor summed over the hidden weak-side axis.
    """

    alice_settings: tuple[float, ...]
    bob_settings: tuple[float, ...]
    a_idx: np.ndarray
    b_idx: np.ndarray
    outcome_a: np.ndarray
    outcome_b: np.ndarray
    counts: np.ndarray


class SessionRecords(_ClickMasks):
    """Columnar record of a full session, one numpy array per column.

    Settings are stored as indices into the configured setting tuples
    (a_idx, b_idx); theta_a/theta_b are derived from them. counts holds the
    number of rounds per (a_idx, b_idx, outcome_a + 1, outcome_b + 1,
    weak_side), built once here; every public statistic reads it. Hidden
    columns (the faked-state polarization, the weakened side, Eve's intercept
    outcome) ride along for analysis and audits; honest-party computations
    must go through public_view().
    """

    def __init__(
        self,
        protocol: ProtocolConfig,
        scenario: ScenarioConfig,
        a_idx,
        b_idx,
        outcome_a,
        outcome_b,
        weak_side,
        hidden_lambda=None,
        eve_outcome=None,
    ):
        self.protocol = protocol
        self.scenario = scenario
        # same_kind casting: setting angles passed as indices raise TypeError
        self.a_idx = np.asarray(a_idx).astype(np.int8, casting="same_kind", copy=False)
        self.b_idx = np.asarray(b_idx).astype(np.int8, casting="same_kind", copy=False)
        self.outcome_a = np.asarray(outcome_a, dtype=np.int8)
        self.outcome_b = np.asarray(outcome_b, dtype=np.int8)
        self.weak_side = np.asarray(weak_side, dtype=np.int8)
        self.hidden_lambda = None if hidden_lambda is None else np.asarray(hidden_lambda, dtype=np.float64)
        self.eve_outcome = None if eve_outcome is None else np.asarray(eve_outcome, dtype=np.int8)
        n = self.a_idx.shape[0]
        for name in ("b_idx", "outcome_a", "outcome_b", "weak_side", "hidden_lambda", "eve_outcome"):
            col = getattr(self, name)
            if col is not None and col.shape[0] != n:
                raise ValueError(f"column {name} has length {col.shape[0]}, expected {n}")
        # outcome codes -1..2 (Outcome) and WeakSide codes 0..2; anything
        # outside the shape makes ravel_multi_index raise ValueError
        shape = (len(protocol.alice_settings), len(protocol.bob_settings), 4, 4, 3)
        cells = np.ravel_multi_index(
            (self.a_idx, self.b_idx, self.outcome_a + 1, self.outcome_b + 1, self.weak_side), shape
        )
        self.counts = np.bincount(cells, minlength=math.prod(shape)).reshape(shape)

    @property
    def theta_a(self) -> np.ndarray:
        return np.asarray(self.protocol.alice_settings)[self.a_idx]

    @property
    def theta_b(self) -> np.ndarray:
        return np.asarray(self.protocol.bob_settings)[self.b_idx]

    def __len__(self) -> int:
        return self.a_idx.shape[0]

    def public_view(self) -> PublicRounds:
        """Strip all source-side information."""
        return PublicRounds(
            self.protocol.alice_settings, self.protocol.bob_settings, self.a_idx, self.b_idx,
            self.outcome_a, self.outcome_b, self.counts.sum(axis=4),
        )


def public_rounds(records) -> PublicRounds:
    """The public projection of a record set (pass-through for PublicRounds)."""
    view = getattr(records, "public_view", None)
    return view() if callable(view) else records


def _simulate_chunk(pc: ProtocolConfig, sc: ScenarioConfig, chunk_index: int):
    """Simulate rounds [chunk*CHUNK_ROUNDS, ...) of the session.

    Every chunk draws full-size arrays in a fixed per-scenario order and
    slices afterwards, so per-round values never depend on how many rounds
    the final chunk actually covers.
    """
    lo = chunk_index * CHUNK_ROUNDS
    hi = min(pc.rounds, lo + CHUNK_ROUNDS)
    m = hi - lo
    g = chunk_stream(pc.seed, chunk_index)
    alice = np.asarray(pc.alice_settings)
    bob = np.asarray(pc.bob_settings)

    if sc.kind in DOUBLE_BLIND_KINDS:
        lam = sample_lambda(g, CHUNK_ROUNDS)[:m]
        coin = g.integers(0, 2, CHUNK_ROUNDS)[:m]
        a_idx = g.integers(0, alice.size, CHUNK_ROUNDS)[:m]
        b_idx = g.integers(0, bob.size, CHUNK_ROUNDS)[:m]
        weak = weak_side_codes(sc, coin, lo)
        w_a = w_b = window_half_width(sc.strong_intensity)
        if sc.kind is ScenarioKind.DOUBLE_BLIND_EKERT:
            w_weak = window_half_width(weak_intensity(sc.alpha))
            # indexed by WeakSide code: NONE, A, B
            w_a = np.array([w_a, w_weak, w_a])[weak]
            w_b = np.array([w_b, w_b, w_weak])[weak]
        out_a = window_codes(lam - alice[a_idx], w_a)
        # Bob's pulse is rotated by pi/2, which swaps his two windows
        out_b = -window_codes(lam - bob[b_idx], w_b)
        return a_idx.astype(np.int8), b_idx.astype(np.int8), out_a, out_b, weak, lam, None

    # genuine pairs; under single blinding Eve measures the second photon in
    # a basis from Bob's configured set, drawn right after Bob's setting
    single = sc.kind is ScenarioKind.SINGLE_BLINDING
    a_idx = g.integers(0, alice.size, CHUNK_ROUNDS)[:m]
    b_idx = g.integers(0, bob.size, CHUNK_ROUNDS)[:m]
    second = bob[g.integers(0, bob.size, CHUNK_ROUNDS)[:m]] if single else bob[b_idx]
    a_coin = g.integers(0, 2, CHUNK_ROUNDS)[:m]
    u_flip = g.random(CHUNK_ROUNDS)[:m]
    depol_u = g.random(CHUNK_ROUNDS)[:m]
    a_repl = g.integers(0, 2, CHUNK_ROUNDS)[:m]
    b_repl = g.integers(0, 2, CHUNK_ROUNDS)[:m]
    out_a, out_b = honest_outcome_codes(
        alice[a_idx], second, a_coin, u_flip, depol_u, a_repl, b_repl, sc.depolarize_prob
    )
    eve_out = None
    if single:  # Eve forwards her result to Bob's blinded station
        eve_out, out_b = out_b, intercept_click_codes(second, out_b, bob[b_idx], sc)
    return a_idx.astype(np.int8), b_idx.astype(np.int8), out_a, out_b, np.zeros(m, np.int8), None, eve_out


def run_session(
    protocol_cfg: ProtocolConfig, scenario_cfg: ScenarioConfig, workers: int = 1
) -> SessionRecords:
    """Simulate a full session.

    Deterministic for a given (protocol_cfg, scenario_cfg): the chunked RNG
    scheme makes the output byte-identical for any workers >= 1.
    """
    if int(workers) < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if (
        scenario_cfg.kind is ScenarioKind.SINGLE_BLINDING
        and protocol_cfg.protocol is not ProtocolKind.BBM92
    ):
        raise ValueError("scenario single-blinding runs under protocol bbm92 only")

    n_chunks = -(-protocol_cfg.rounds // CHUNK_ROUNDS)
    workers = min(int(workers), n_chunks, os.cpu_count() or 1)
    if workers == 1:
        parts = [_simulate_chunk(protocol_cfg, scenario_cfg, c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(lambda c: _simulate_chunk(protocol_cfg, scenario_cfg, c), range(n_chunks))
            )

    def cat(j):
        if parts[0][j] is None:
            return None
        return np.concatenate([p[j] for p in parts]) if len(parts) > 1 else parts[0][j]

    return SessionRecords(
        protocol_cfg,
        scenario_cfg,
        a_idx=cat(0),
        b_idx=cat(1),
        outcome_a=cat(2),
        outcome_b=cat(3),
        weak_side=cat(4),
        hidden_lambda=cat(5),
        eve_outcome=cat(6),
    )


@dataclass(frozen=True)
class SiftedKey:
    """Matched-basis key material. bits_bob is already anticorrelation-flipped.

    bits_eve holds Eve's prediction of Bob's (flipped) bits when the scenario
    gives her one, else None. All present arrays have equal length.
    """

    bits_alice: np.ndarray
    bits_bob: np.ndarray
    bits_eve: np.ndarray | None
    round_indices: np.ndarray


def bbm92_qber(records) -> float | None:
    """Disagreeing fraction of the sifted key, read from the count tensor.

    Over equal-setting pairs where both stations clicked, Alice's bit is 1
    for MINUS and Bob's flipped bit is 1 for PLUS, so the errors are the
    (-,-) and (+,+) coincidences. None (undefined, not zero) when nothing
    survives sifting.
    """
    pub = public_rounds(records)
    same_setting = np.equal.outer(pub.alice_settings, pub.bob_settings)
    c = pub.counts[same_setting][:, ::2, ::2].sum(axis=0)
    n = int(c.sum())
    return int(c[0, 0] + c[1, 1]) / n if n else None


def sift_bbm92(records) -> tuple[SiftedKey, float | None]:
    """Keep equal-setting rounds where both stations clicked.

    Alice's bit is 1 for a MINUS outcome; Bob's raw bit is flipped before
    comparison because the source anticorrelates the stations. Returns the
    key and bbm92_qber(records).
    """
    pub = public_rounds(records)
    same_setting = np.equal.outer(pub.alice_settings, pub.bob_settings)
    keep = same_setting[pub.a_idx, pub.b_idx] & pub.clicked_a & pub.clicked_b
    idx = np.flatnonzero(keep)
    bits_alice = (pub.outcome_a[idx] == int(Outcome.MINUS)).astype(np.uint8)
    bits_bob = (pub.outcome_b[idx] != int(Outcome.MINUS)).astype(np.uint8)

    bits_eve = None
    scenario = getattr(records, "scenario", None)
    if scenario is not None and scenario.kind in DOUBLE_BLIND_KINDS and idx.size:
        angle = np.asarray(pub.alice_settings)[pub.a_idx[idx]]  # both stations' setting on kept rounds
        _, pred_b = predict_outcome_codes(
            records.hidden_lambda[idx], angle, angle, scenario, records.weak_side[idx]
        )
        bits_eve = (pred_b != int(Outcome.MINUS)).astype(np.uint8)

    return SiftedKey(bits_alice, bits_bob, bits_eve, idx), bbm92_qber(records)


@dataclass(frozen=True)
class CorrelationEstimate:
    """Coincidence-conditioned product average at one setting pair."""

    theta_a: float
    theta_b: float
    value: float | None
    stderr: float | None
    n_coincidences: int


def _setting_index(value: float, settings: tuple[float, ...]) -> int | None:
    """Index of the configured setting within _SETTING_TOL of value modulo pi, else None."""
    gaps = [abs(wrap_diff(float(value) - s)) for s in settings]
    return gaps.index(min(gaps)) if min(gaps) < _SETTING_TOL else None


def correlation_estimate(records, theta_a: float, theta_b: float) -> CorrelationEstimate:
    """E-hat at one setting pair, conditioned on both stations clicking.

    Angles within 1e-12 of a configured setting count that setting's rounds
    and report its angle. Standard error is sqrt((1 - E^2) / n); value and
    stderr are None when the pair has no coincidences.
    """
    pub = public_rounds(records)
    i = _setting_index(theta_a, pub.alice_settings)
    j = _setting_index(theta_b, pub.bob_settings)
    a = canon_angle(float(theta_a)) if i is None else pub.alice_settings[i]
    b = canon_angle(float(theta_b)) if j is None else pub.bob_settings[j]
    # outcome index 0 is code -1 and index 2 is +1, so [::2, ::2] holds the coincidences
    c = pub.counts[i, j, ::2, ::2] if None not in (i, j) else np.zeros((2, 2), int)
    n = int(c.sum())
    if n == 0:
        return CorrelationEstimate(a, b, None, None, 0)
    value = int(c[0, 0] + c[1, 1] - c[0, 1] - c[1, 0]) / n
    stderr = math.sqrt(max(0.0, 1.0 - value * value) / n)
    return CorrelationEstimate(a, b, value, stderr, n)


def chsh_select(
    records, a: float, a_prime: float, b: float, b_prime: float
) -> tuple[CorrelationEstimate, CorrelationEstimate, CorrelationEstimate, CorrelationEstimate]:
    """Correlation estimates for the four CHSH pairs (a,b), (a,b'), (a',b), (a',b').

    All four angles must appear in the session's configured setting sets.
    """
    pub = public_rounds(records)
    for name, value, settings in (
        ("a", a, pub.alice_settings), ("a_prime", a_prime, pub.alice_settings),
        ("b", b, pub.bob_settings), ("b_prime", b_prime, pub.bob_settings),
    ):
        if _setting_index(value, settings) is None:
            raise ValueError(f"{name}={value} is not one of the configured settings {settings}")
    return (
        correlation_estimate(records, a, b),
        correlation_estimate(records, a, b_prime),
        correlation_estimate(records, a_prime, b),
        correlation_estimate(records, a_prime, b_prime),
    )


def chsh_value(e_ab: float, e_ab_prime: float, e_a_prime_b: float, e_a_prime_b_prime: float) -> float:
    """|E(a,b) - E(a,b') + E(a',b) + E(a',b')|."""
    return abs(e_ab - e_ab_prime + e_a_prime_b + e_a_prime_b_prime)


@dataclass(frozen=True)
class ChshResult:
    """CHSH score assembled from the four pair estimates.

    value/stderr are None when any pair had zero coincidences (undefined,
    flagged rather than silently zero).
    """

    value: float | None
    stderr: float | None
    pairs: tuple[CorrelationEstimate, CorrelationEstimate, CorrelationEstimate, CorrelationEstimate]


def chsh_score(records, quad: tuple[float, float, float, float] = CHSH_QUAD) -> ChshResult:
    """chsh_select + chsh_value with error propagation across the four pairs."""
    pairs = chsh_select(records, *quad)
    if any(p.value is None for p in pairs):
        return ChshResult(None, None, pairs)
    value = chsh_value(*(p.value for p in pairs))
    stderr = math.sqrt(sum(p.stderr**2 for p in pairs))
    return ChshResult(value, stderr, pairs)


def eve_knowledge_audit(records, sifted: SiftedKey) -> float | None:
    """Fraction of sifted bits where Eve's predicted bit equals Bob's.

    None when the scenario gives Eve no prediction or the key is empty.
    """
    if sifted.bits_eve is None or sifted.bits_bob.size == 0:
        return None
    return float(np.mean(sifted.bits_eve == sifted.bits_bob))


def eve_prediction_report(records) -> dict | None:
    """Round-level audit of Eve's knowledge, serializable to JSON.

    Faked-state scenarios: her predicted outcome pair, computed by the
    reference Malus/threshold physics (sources.predict_outcome_codes), is
    compared on every round to the recorded pair, which the simulation
    decided by the window rule (optics.window_codes); a mismatch means the
    two arithmetics disagree. Single blinding: Bob's clicks are compared to
    her intercept outcome. None for honest sessions.
    """
    scenario = getattr(records, "scenario", None)
    if scenario is None:
        return None
    if scenario.kind in DOUBLE_BLIND_KINDS:
        # chunked, so no full-length angle or prediction column is ever built
        alice, bob = np.asarray(records.protocol.alice_settings), np.asarray(records.protocol.bob_settings)
        rounds, mismatches = len(records), 0
        for lo in range(0, rounds, CHUNK_ROUNDS):
            part = slice(lo, lo + CHUNK_ROUNDS)
            pred_a, pred_b = predict_outcome_codes(
                records.hidden_lambda[part], alice[records.a_idx[part]], bob[records.b_idx[part]],
                scenario, records.weak_side[part],
            )
            mismatches += int(np.count_nonzero(pred_a != records.outcome_a[part])) + int(
                np.count_nonzero(pred_b != records.outcome_b[part])
            )
        return {
            "mode": "faked-state",
            "rounds": rounds,
            "mismatched_outcomes": mismatches,
            "match_fraction": 1.0 - mismatches / (2 * rounds) if rounds else None,
        }
    if scenario.kind is ScenarioKind.SINGLE_BLINDING:
        clicked = records.clicked_b
        clicks = int(np.count_nonzero(clicked))
        mismatched = int(np.count_nonzero(clicked & (records.outcome_b != records.eve_outcome)))
        return {
            "mode": "intercept",
            "bob_clicks": clicks,
            "mismatched_clicks": mismatched,
            "match_fraction": 1.0 - mismatched / clicks if clicks else None,
        }
    return None
