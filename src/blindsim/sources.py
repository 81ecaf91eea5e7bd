"""Vectorized source kernels: honest entangled pairs and Eve's bright pulses.

The attack source replaces the entangled-pair source with classical pulse
pairs: a hidden polarization lambda drawn uniformly on [0, pi), sent to
Alice as-is and to Bob rotated by pi/2. At intensity 2 (in threshold units)
a blinded station then clicks deterministically on the detector matching
sign cos 2(lambda - setting); lowering one side's intensity to
1/cos^2(alpha) opens a no-click band of half-width alpha around the
splitter diagonal, which is what fakes a CHSH violation once results are
post-selected on coincidences.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .optics import PERIOD, Outcome, click_codes, quarter_turn, split_intensities

# weak-pulse tuning angle that saturates the CHSH maximum reachable by the
# coincidence-conditioned faked states
DEFAULT_ALPHA = math.pi / (4.0 * math.sqrt(2.0))

# rounds per RNG chunk; every chunk draws its arrays in a fixed order as if
# each had CHUNK_ROUNDS values, so any per-round value is a pure function of
# (seed, round index, config). A final chunk draws only the values it keeps
# of each array whose stream use it can skip with advance, or that is drawn
# last, with the values unchanged. A double-blind chunk draws one array, the
# round's bin (weak side, settings, lambda bucket) as one bounded integer,
# numpy's bounded int32 draw taken over the stream's raw words
# (protocol._draw_bins); a round whose bin the chunk decodes takes its
# fraction within the bucket by its round index (round_fractions)
CHUNK_ROUNDS = 1 << 16


class ScenarioKind(str, enum.Enum):
    HONEST_SINGLET = "honest"
    SINGLE_BLINDING = "single-blinding"
    DOUBLE_BLIND_BBM92 = "double-bbm92"
    DOUBLE_BLIND_EKERT = "double-ekert"


DOUBLE_BLIND_KINDS = (ScenarioKind.DOUBLE_BLIND_BBM92, ScenarioKind.DOUBLE_BLIND_EKERT)


class WeakSidePolicy(str, enum.Enum):
    ALTERNATE = "alternate"
    RANDOM = "random"
    FIXED_A = "fixed-a"
    FIXED_B = "fixed-b"


class WeakSide(enum.IntEnum):
    NONE = 0
    A = 1
    B = 2

    @property
    def label(self) -> str:
        return {WeakSide.NONE: "none", WeakSide.A: "A", WeakSide.B: "B"}[self]


def weak_intensity(alpha: float) -> float:
    """Intensity of the weak pulse whose click boundary sits at polarizer offset alpha, in (0, pi/4).

    An alpha outside that range, NaN included, raises ValueError: at pi/4
    the pulse would need intensity 2, a strong pulse's, and towards pi/2
    it grows without bound.
    """
    a = float(alpha)
    if not 0.0 < a < math.pi / 4.0:
        raise ValueError(f"alpha must lie strictly between 0 and pi/4, got {alpha}")
    return 1.0 / math.cos(a) ** 2


@dataclass(frozen=True)
class ScenarioConfig:
    """What the source between the two stations actually emits.

    depolarize_prob applies to genuine entangled pairs only (honest rounds,
    and the Alice-Eve pair in single blinding); the faked-state scenarios
    are fully classical and ignore it.
    """

    kind: ScenarioKind
    alpha: float = DEFAULT_ALPHA
    strong_intensity: float = 2.0
    single_blind_intensity: float = 1.5
    weak_side_policy: WeakSidePolicy = WeakSidePolicy.RANDOM
    depolarize_prob: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", ScenarioKind(self.kind))
        object.__setattr__(self, "weak_side_policy", WeakSidePolicy(self.weak_side_policy))
        if not 0.0 <= self.depolarize_prob <= 1.0:
            raise ValueError(
                f"depolarize_prob must lie in [0, 1], got {self.depolarize_prob}"
            )
        if not 1.0 < self.strong_intensity <= 2.0:
            # above 2 both outputs can exceed the threshold at once (double
            # clicks); at or below 1 nothing ever fires
            raise ValueError(
                f"strong_intensity must lie in (1, 2] threshold units, got {self.strong_intensity}"
            )
        if not 1.0 < self.single_blind_intensity < 2.0:
            raise ValueError(
                f"single_blind_intensity must lie strictly between 1 and 2 threshold units, "
                f"got {self.single_blind_intensity}"
            )
        if self.kind is ScenarioKind.DOUBLE_BLIND_EKERT:
            if not 0.0 < self.alpha < math.pi / 4.0:
                raise ValueError(
                    f"alpha must lie strictly between 0 and pi/4, got {self.alpha}"
                )


def _check_seed(seed: int) -> int:
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def chunk_stream(seed: int, chunk_index: int) -> np.random.Generator:
    """Independent generator for rounds [chunk*CHUNK_ROUNDS, (chunk+1)*CHUNK_ROUNDS).

    Chunks are keyed by (seed, chunk index), never by worker layout, so a
    session partitioned across any number of workers replays identically.
    """
    seed = _check_seed(seed)
    if chunk_index < 0:
        raise ValueError(f"chunk_index must be >= 0, got {chunk_index}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(int(chunk_index),)))


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): output n of a stream that
# starts at state s mixes s + n * gamma with two xor-shift-multiply steps and
# a last xor-shift, so every output is a closed form of n
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_MULTIPLIERS = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


@functools.lru_cache(maxsize=16)
def _fraction_start(seed: int) -> np.uint64:
    """round_fractions' start state for seed, hashed (about 9 us) once per seed rather than once per call."""
    return np.random.SeedSequence(seed).generate_state(1, np.uint64)[0]


def round_fractions(seed: int, rounds) -> np.ndarray:
    """The fraction in [0, 1) of each round index in rounds: a pure function of (seed, round).

    It is the top 53 bits of SplitMix64 output number round + 1, from the
    start state SeedSequence(seed).generate_state(1, uint64), which no
    chunk stream uses (chunk_stream spawns its SeedSequence). So a round
    gets the same fraction asked alone, in any batch and in any order.
    """
    start = _fraction_start(_check_seed(seed))
    z = np.array(rounds, dtype=np.uint64)
    z += 1
    np.multiply(z, _GOLDEN_GAMMA, out=z)
    np.add(z, start, out=z)
    for shift, multiplier in zip((30, 27), _MIX_MULTIPLIERS):
        np.bitwise_xor(z, z >> shift, out=z)
        np.multiply(z, multiplier, out=z)
    np.bitwise_xor(z, z >> 31, out=z)
    return (z >> 11) * 2.0**-53


def sample_lambda(rng: np.random.Generator, size=None):
    """Hidden source polarization(s), uniform on [0, pi)."""
    return rng.uniform(0.0, PERIOD, size)


def weak_side_codes(cfg: ScenarioConfig) -> np.ndarray:
    """The WeakSide codes a session's rounds take, in the order of a bin's side digit (int8).

    Under double-ekert, [A, B] for the random and alternate policies, [A] or
    [B] for a fixed one; [NONE] for every other scenario. Which code a round
    gets is drawn with its bin (protocol._draw_bins).
    """
    if cfg.kind is not ScenarioKind.DOUBLE_BLIND_EKERT:
        return np.array([WeakSide.NONE], np.int8)
    policy = cfg.weak_side_policy
    if policy is WeakSidePolicy.FIXED_A:
        return np.array([WeakSide.A], np.int8)
    if policy is WeakSidePolicy.FIXED_B:
        return np.array([WeakSide.B], np.int8)
    return np.array([WeakSide.A, WeakSide.B], np.int8)


def station_intensities(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Faked-pulse intensities at Alice's and Bob's station, each indexed by WeakSide code.

    Every pulse is strong, except that under double-ekert the weakened side
    is driven at 1/cos^2(alpha).
    """
    strong = cfg.strong_intensity
    weak = weak_intensity(cfg.alpha) if cfg.kind is ScenarioKind.DOUBLE_BLIND_EKERT else strong
    # indexed by WeakSide code: NONE, A, B
    return np.array([strong, weak, strong]), np.array([strong, strong, weak])


def faked_pulse_params(lam, cfg: ScenarioConfig, weak_side):
    """Intensities and polarizations of both faked pulses (vectorized).

    Alice receives the hidden polarization as-is, Bob the pi/2-rotated copy,
    each at the intensity station_intensities gives the round's weak side.
    lam lies in [0, pi), as a session draws it; weak_side holds one
    WeakSide code per round.
    """
    pol_a = np.asarray(lam, dtype=np.float64)
    pol_b = quarter_turn(pol_a)
    intensity_a, intensity_b = station_intensities(cfg)
    return intensity_a.take(weak_side), pol_a, intensity_b.take(weak_side), pol_b


def opposite_outcome_prob(theta_a, theta_b):
    """(1 + cos 2(theta_a - theta_b)) / 2: how often an ideal pair's outcomes disagree (vectorized).

    A session evaluates it once per setting pair and looks each round's
    value up by its pair, which gives the same bits as evaluating it per round.
    """
    return (1.0 + np.cos(2.0 * (np.asarray(theta_a) - np.asarray(theta_b)))) / 2.0


def honest_outcome_codes(
    p_opp,
    a_coin,
    u_flip,
    depol_u,
    a_repl,
    b_repl,
    depolarize_prob: float,
):
    """Outcome codes for ideal anticorrelated pairs at unit efficiency.

    The second outcome disagrees with the first with probability p_opp,
    opposite_outcome_prob of the round's settings, which realizes the joint
    law P(a, b) = (1 - a*b*cos 2(theta_a - theta_b)) / 4. With probability
    depolarize_prob the pair is replaced by two independent fair coins;
    depol_u, a_repl and b_repl are read only when it is positive.
    """
    a = (2 * np.asarray(a_coin, dtype=np.int8) - 1).astype(np.int8)
    b = np.where(u_flip < p_opp, -a, a).astype(np.int8)
    if depolarize_prob > 0.0:
        noisy = np.asarray(depol_u) < depolarize_prob
        a = np.where(noisy, (2 * np.asarray(a_repl, dtype=np.int8) - 1), a).astype(np.int8)
        b = np.where(noisy, (2 * np.asarray(b_repl, dtype=np.int8) - 1), b).astype(np.int8)
    return a, b


def intercept_pulse_directions(eve_basis, eve_outcome):
    """Polarization of the pulse Eve forwards after an intercept measurement.

    Vectorized: basis direction for a +1 outcome, the orthogonal direction
    for -1. eve_basis lies in [0, pi), as configured settings do.
    """
    basis = np.asarray(eve_basis, dtype=np.float64)
    return np.where(np.asarray(eve_outcome) == int(Outcome.PLUS), basis, quarter_turn(basis))


def intercept_click_codes(eve_basis, eve_outcome, theta_b, cfg: ScenarioConfig):
    """Bob's outcome codes under single blinding (vectorized).

    Eve forwards a pulse polarized along her intercept result at
    single_blind_intensity, so Bob's blinded station clicks exactly when his
    basis matches hers and then reproduces her outcome; on the conjugate
    basis (pi/4 away) the pulse splits below threshold on both outputs and he
    stays silent.
    """
    direction = intercept_pulse_directions(eve_basis, eve_outcome)
    return click_codes(*split_intensities(cfg.single_blind_intensity, direction, theta_b))


def predict_outcome_codes(lam, theta_a, theta_b, cfg: ScenarioConfig, weak_side):
    """Eve's per-round predictions (vectorized outcome codes for both stations).

    The pulses are rebuilt from the hidden polarization and measured by the
    reference physics, Malus splitting and the strict threshold. The
    simulation decides clicks by the window rule (optics.window_codes)
    instead, so comparing the two checks Eve's model of the stations rather
    than replaying the simulation's own arithmetic.
    """
    ia, pa, ib, pb = faked_pulse_params(lam, cfg, weak_side)
    return click_codes(*split_intensities(ia, pa, theta_a)), click_codes(*split_intensities(ib, pb, theta_b))
