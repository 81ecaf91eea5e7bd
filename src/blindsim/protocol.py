"""Session engine: run a protocol against a source, sift keys, score CHSH.

A session draws independent uniform settings for both stations each round,
asks the configured source for that round's physics, and reduces each
65536-round chunk to a count tensor and Eve-audit counters while the chunk
is still in cache. A double-blind round is a function of its setting pair,
its weak side and its hidden polarization lambda, and that function is
constant over all but a few narrow bands of lambda. So a double-blind chunk
draws each round's bin, (weak side, a_idx, b_idx, lambda bucket), as one
bounded integer, plus a fraction u in [0, 1) that places lambda within the
bucket; a per-session table laid out in draw order gives the count-tensor
cell of each bin, and only the rounds of bins that straddle a window edge or
a click threshold, or where Eve's prediction differs, are decoded, settled
and audited one by one. The audit counts the rounds, and the rounds of the
sifted key, where Eve's prediction differs from the outcome, so a streamed
session states how much of the key she knows. The per-round transcript,
plus whatever hidden side-information the scenario carries (the
faked-state polarization, Eve's intercept results), is kept only by
SessionRecords.simulate, which decodes the same draws for every round. The
correlation estimators only ever look at public_rounds, and the parties'
sifted bits only at the setting and outcome columns.
"""

from __future__ import annotations

import collections
import enum
import functools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .optics import (
    HALF_PERIOD,
    PERIOD,
    Outcome,
    canon_angle,
    click_codes,
    split_intensities,
    window_codes,
    window_half_width,
)
from .sources import (
    CHUNK_ROUNDS,
    DOUBLE_BLIND_KINDS,
    ScenarioConfig,
    ScenarioKind,
    WeakSidePolicy,
    chunk_stream,
    faked_pulse_params,
    honest_outcome_codes,
    intercept_click_codes,
    predict_outcome_codes,
    station_intensities,
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


def _angle_gap(x: float, y: float) -> float:
    """|wrap_diff(x - y)| on Python floats: how far apart two angles lie modulo pi."""
    return abs((x - y + HALF_PERIOD) % PERIOD - HALF_PERIOD)


def _whole(name: str, value) -> int:
    """value as an int; a fractional, NaN or infinite value raises ValueError instead of truncating."""
    if not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value}")
    return int(value)


def _canon_settings(name: str, values) -> tuple[float, ...]:
    raw = tuple(map(float, values))
    if not all(map(math.isfinite, raw)):
        raise ValueError(f"{name} must be finite angles, got {values}")
    settings = tuple(map(canon_angle, raw))
    if not 1 <= len(settings) <= 127:  # indices are stored as int8
        raise ValueError(f"{name} must hold 1 to 127 angles, got {len(settings)}")
    if any(_angle_gap(s, t) < _SETTING_TOL for i, s in enumerate(settings) for t in settings[:i]):
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
        object.__setattr__(self, "rounds", _whole("rounds", self.rounds))
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        object.__setattr__(self, "seed", _whole("seed", self.seed))
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


@dataclass(frozen=True, eq=False)  # == on the counts array has no single truth value
class PublicRounds:
    """The transcript Alice and Bob actually share, reduced to its counts.

    counts is the session's count tensor summed over the hidden weak-side
    axis: rounds per (a_idx, b_idx, outcome_a + 1, outcome_b + 1), with the
    setting indices into alice_settings/bob_settings. The view is read-only.
    """

    alice_settings: tuple[float, ...]
    bob_settings: tuple[float, ...]
    counts: np.ndarray


# the columns of a session, in the order chunks carry them; the last two are
# None where the scenario has no such column
_COLUMNS = ("a_idx", "b_idx", "outcome_a", "outcome_b", "weak_side", "hidden_lambda", "eve_outcome")


def _count_shape(protocol: ProtocolConfig) -> tuple[int, ...]:
    # (a_idx, b_idx, outcome_a + 1, outcome_b + 1, weak_side): outcome codes
    # -1..2 (Outcome) and WeakSide codes 0..2
    return (len(protocol.alice_settings), len(protocol.bob_settings), 4, 4, 3)


def _key_rounds(protocol: ProtocolConfig, a_idx, b_idx, out_a, out_b) -> np.ndarray:
    """Mark the rounds of the sifted key: equal settings, and both stations clicked."""
    same_setting = np.equal.outer(protocol.alice_settings, protocol.bob_settings)
    return same_setting[a_idx, b_idx] & (np.abs(out_a) == 1) & (np.abs(out_b) == 1)


def _eve_tally(protocol: ProtocolConfig, scenario: ScenarioConfig, part) -> tuple[int, ...] | None:
    """Eve-audit counters of one chunk's columns; sessions add them up.

    Faked-state scenarios: (mismatched outcomes, mismatched key rounds).
    Eve's predicted pair from the reference Malus/threshold physics
    (sources.predict_outcome_codes) is compared with the pair the kernel
    decided by the window rule, on every round and then on the rounds of
    the sifted key (equal settings, both stations clicked), where her
    prediction of Bob's outcome is her key bit. Single blinding: (Bob's
    clicks, clicks that differ from Eve's intercept outcome). None for
    honest sessions, and when the column the audit needs is absent.
    """
    a_idx, b_idx, out_a, out_b, weak, lam, eve_out = part
    if scenario.kind in DOUBLE_BLIND_KINDS and lam is not None:
        alice, bob = np.asarray(protocol.alice_settings), np.asarray(protocol.bob_settings)
        pred_a, pred_b = predict_outcome_codes(lam, alice.take(a_idx), bob.take(b_idx), scenario, weak)
        # the rounds where Eve mispredicts Bob, almost always none: only they are sifted
        wrong_b = np.flatnonzero(pred_b != out_b)
        key_mismatches = 0
        if wrong_b.size:
            wrong = (col[wrong_b] for col in (a_idx, b_idx, out_a, out_b))
            key_mismatches = int(np.count_nonzero(_key_rounds(protocol, *wrong)))
        return int(np.count_nonzero(pred_a != out_a)) + wrong_b.size, key_mismatches
    if scenario.kind is ScenarioKind.SINGLE_BLINDING and eve_out is not None:
        clicked = np.abs(out_b) == 1
        return int(np.count_nonzero(clicked)), int(np.count_nonzero(clicked & (out_b != eve_out)))
    return None


def _reduce_chunk(protocol: ProtocolConfig, scenario: ScenarioConfig, part, audit: bool):
    """Count tensor and, if audit, Eve-audit counters of one chunk's columns (_COLUMNS order).

    The columns must index the tensor: the kernel's always do, and
    SessionRecords checks the columns it is given.
    """
    a_idx, b_idx, out_a, out_b, weak = part[:5]
    shape = _count_shape(protocol)
    # the flat cell of (a_idx, b_idx, out_a + 1, out_b + 1, weak), in place in int64
    cells = np.multiply(a_idx, shape[1], dtype=np.int64)
    cells += b_idx
    cells *= 4
    cells += out_a
    cells *= 4
    cells += out_b
    cells *= 3
    cells += weak
    cells += 4 * 3 + 3  # the +1 offsets of both outcome codes
    counts = np.bincount(cells, minlength=math.prod(shape)).reshape(shape)
    return counts, _eve_tally(protocol, scenario, part) if audit else None


def _sum_tallies(tallies) -> tuple[int, ...] | None:
    """Add per-chunk Eve-audit counters; None if any chunk has none."""
    tallies = list(tallies)
    return None if None in tallies else tuple(map(sum, zip(*tallies)))


def _merge(reductions, shape):
    """Sum per-chunk (counts, tally) pairs; integer addition, so any order gives the same bytes."""
    counts = np.zeros(shape, np.int64)
    tallies = []
    for part_counts, tally in reductions:
        counts += part_counts
        tallies.append(tally)
    return counts, _sum_tallies(tallies)


class SessionCounts:
    """A session reduced to its count tensor and Eve-audit counters.

    run_session returns one: it holds no per-round column, so its memory
    does not grow with the round count. counts holds the number of rounds
    per (a_idx, b_idx, outcome_a + 1, outcome_b + 1, weak_side); every
    public statistic reads it. eve_tally holds the
    counters eve_prediction_report reads, or None when the session was run
    without the audit. Reading a per-round column (or sifting a key) raises
    ValueError; so do hasattr() and getattr() with a default, which do not
    swallow a ValueError.
    """

    _ROUND_FIELDS = _COLUMNS + ("theta_a", "theta_b")

    def __init__(
        self, protocol: ProtocolConfig, scenario: ScenarioConfig, rounds: int, counts, eve_tally=None
    ):
        self.protocol = protocol
        self.scenario = scenario
        self.rounds = int(rounds)
        self.counts = counts
        self.eve_tally = eve_tally

    def __getattr__(self, name):
        # runs only when an attribute is missing: a SessionRecords has every
        # per-round column, so here the session kept none
        if name in self._ROUND_FIELDS:
            raise ValueError(
                f"{name} is per-round data and this session kept no per-round columns; "
                "build it with SessionRecords.simulate"
            )
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __len__(self) -> int:
        return self.rounds


class SessionRecords(SessionCounts):
    """Columnar record of a full session, one numpy array per column.

    Settings are stored as indices into the configured setting tuples
    (a_idx, b_idx); theta_a/theta_b are derived from them. Hidden columns
    (the faked-state polarization, the weakened side, Eve's intercept
    outcome) ride along for analysis and audits; the public statistics
    read public_rounds(). The constructor reduces the columns to
    the count tensor, and eve_tally reduces the Eve-audit counters on first
    use, each one CHUNK_ROUNDS slice at a time, as a streamed session
    reduces its genuine-pair chunks and the rounds its double-blind tables
    leave undecided.
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
        # same_kind casting: setting angles passed as indices raise TypeError
        self.a_idx = np.asarray(a_idx).astype(np.int8, casting="same_kind", copy=False)
        self.b_idx = np.asarray(b_idx).astype(np.int8, casting="same_kind", copy=False)
        self.outcome_a = np.asarray(outcome_a, dtype=np.int8)
        self.outcome_b = np.asarray(outcome_b, dtype=np.int8)
        self.weak_side = np.asarray(weak_side, dtype=np.int8)
        self.hidden_lambda = None if hidden_lambda is None else np.asarray(hidden_lambda, dtype=np.float64)
        self.eve_outcome = None if eve_outcome is None else np.asarray(eve_outcome, dtype=np.int8)
        n = self.a_idx.shape[0]
        for name in _COLUMNS:
            col = getattr(self, name)
            if col is not None and col.shape[0] != n:
                raise ValueError(f"column {name} has length {col.shape[0]}, expected {n}")
        # _reduce_chunk trusts its columns to index the count tensor; the
        # kernel's always do, these come from outside. Outcome codes sit one
        # below their tensor index
        for name, low, size in zip(_COLUMNS, (0, 0, -1, -1, 0), _count_shape(protocol)):
            col = getattr(self, name)
            if col.size and not low <= col.min() <= col.max() < low + size:
                raise ValueError(f"column {name} holds values outside [{low}, {low + size})")
        # not SessionCounts.__init__: its eve_tally attribute would hide the lazy one below
        self.protocol, self.scenario, self.rounds = protocol, scenario, n
        reductions = (_reduce_chunk(protocol, scenario, part, False) for part in self._slices())
        self.counts, _ = _merge(reductions, _count_shape(protocol))

    @classmethod
    def simulate(cls, protocol_cfg: ProtocolConfig, scenario_cfg: ScenarioConfig, workers: int = 1):
        """Simulate a full session keeping every per-round column: run_session's counts, at any workers."""
        pc, sc = protocol_cfg, scenario_cfg
        return cls(pc, sc, *_assemble(session_chunks(pc, sc, workers), pc.rounds))

    def _slices(self):
        """The columns in _COLUMNS order, one CHUNK_ROUNDS slice at a time."""
        columns = [getattr(self, name) for name in _COLUMNS]
        # an empty session yields one empty slice, so it still has its (zero) counters
        for lo in range(0, self.rounds or 1, CHUNK_ROUNDS):
            yield [None if col is None else col[lo : lo + CHUNK_ROUNDS] for col in columns]

    @functools.cached_property
    def eve_tally(self) -> tuple[int, ...] | None:
        """Eve-audit counters, reduced from the columns on first use (_eve_tally)."""
        return _sum_tallies(_eve_tally(self.protocol, self.scenario, part) for part in self._slices())

    @property
    def theta_a(self) -> np.ndarray:
        return np.asarray(self.protocol.alice_settings)[self.a_idx]

    @property
    def theta_b(self) -> np.ndarray:
        return np.asarray(self.protocol.bob_settings)[self.b_idx]


def public_rounds(records) -> PublicRounds:
    """The public projection of a session, all source-side information stripped; PublicRounds pass through."""
    if isinstance(records, PublicRounds):
        return records
    pc = records.protocol
    return PublicRounds(pc.alice_settings, pc.bob_settings, records.counts.sum(axis=4))


def _open_chunk(pc: ProtocolConfig, chunk_index: int):
    """(first round, round count, generator) of one chunk of the session."""
    lo = chunk_index * CHUNK_ROUNDS
    return lo, min(pc.rounds, lo + CHUNK_ROUNDS) - lo, chunk_stream(pc.seed, chunk_index)


def _kept(g: np.random.Generator, m: int, trim: bool, draw, per_word: int):
    """The first m values of draw(CHUNK_ROUNDS), leaving the stream where that full draw leaves it.

    With trim, only m values are drawn and advance skips the uint64 words
    of the rest: per_word values fill one word (1 for a uniform double, 2
    for a coin at range 2, whose bounded uint32 draw never rejects).
    advance also drops a buffered uint32, so trim is right only when the
    generator holds none before the draw.
    """
    if not trim:
        return draw(CHUNK_ROUNDS)[:m]
    values = draw(m)
    g.bit_generator.advance(CHUNK_ROUNDS // per_word - -(-m // per_word))
    return values


# lambda buckets per session of a double-blind bin grid; halved until
# n_a * n_b * 3 * buckets is at most _MAX_BINS, so the tables stay small for
# up to 127 x 127 settings. The rule counts three weak sides, though a grid
# holds at most two: counting two would change the bucket count, and so the
# draws, of some setting sets. With one bucket every round is settled
_LAMBDA_BUCKETS = 1024
_MAX_BINS = 1 << 16
# slack on a bucket's reach in lambda: far beyond the few ulps of pi by which
# a round's offset arithmetic, or its float bucket index, can be off
_EDGE_SLACK = 1e-9
# slack on Eve's cosines: a float64 cosine or intensity product is off by a
# few 1e-16, far below it
_COSINE_SLACK = 2.0**-12
# the largest lambda: scale sits just below buckets / pi, so (bucket + u) /
# scale can round to pi or past it in the top bucket; such a round gets the
# largest double below pi instead, a few ulps away and in the same bucket
_TOP_LAMBDA = math.nextafter(PERIOD, 0.0)


@dataclass(frozen=True, eq=False)
class _BinGrid:
    """The bins a double-blind chunk draws, flattened in draw order.

    A round's bin is (side digit, a_idx, b_idx, bucket), shape gives the
    size of each axis, and its flat index is the round's key. sides[digit]
    is the round's WeakSide code (weak_side_codes): A and B under the random
    and alternate policies, else the one code. Under the random
    policy the key is drawn over every bin; under alternate it is drawn
    over one side's bins, and an odd round (side B) adds one side's bins.
    The round's hidden polarization lies in bucket floor(lam * scale), at
    lam = (bucket + u) / scale for its fraction u in [0, 1).
    """

    shape: tuple[int, int, int, int]
    scale: float
    sides: np.ndarray
    parity: bool

    @property
    def buckets(self) -> int:
        return self.shape[3]

    def decode(self, u, key):
        """(lam, a_idx, b_idx, weak) of rounds with fractions u and bin keys key; lam < pi."""
        _, n_a, n_b, buckets = self.shape
        rest, bucket = np.divmod(key, buckets)
        rest, b_idx = np.divmod(rest, n_b)
        digit, a_idx = np.divmod(rest, n_a)
        lam = np.add(bucket, u)
        lam /= self.scale
        np.minimum(lam, _TOP_LAMBDA, out=lam)
        return lam, a_idx, b_idx, self.sides.take(digit)


def _bin_grid(pc: ProtocolConfig, sc: ScenarioConfig) -> _BinGrid:
    """The bin grid of a double-blind session (_BinGrid)."""
    n_a, n_b = len(pc.alice_settings), len(pc.bob_settings)
    buckets = _LAMBDA_BUCKETS
    while buckets > 1 and n_a * n_b * 3 * buckets > _MAX_BINS:
        buckets //= 2
    # the bucket of the largest lambda, _TOP_LAMBDA, must stay below buckets
    scale = buckets / PERIOD
    while _TOP_LAMBDA * scale >= buckets:
        scale = math.nextafter(scale, 0.0)
    sides = weak_side_codes(sc)
    parity = sides.size == 2 and sc.weak_side_policy is WeakSidePolicy.ALTERNATE
    return _BinGrid((sides.size, n_a, n_b, buckets), scale, sides, parity)


def _draw_bins(pc: ProtocolConfig, grid: _BinGrid, chunk_index: int):
    """A double-blind chunk's draws, (u, key): each round's fraction in [0, 1) and its int32 bin key.

    u comes first, m values of CHUNK_ROUNDS (_kept: a double costs one
    uint64), and the key last, with only m values, since its bounded draw
    can reject; so no round's values depend on the session length. numpy
    draws an int32 by the same bounded-uint32 path, and so with the same
    values and stream use, as an int64.
    """
    lo, m, g = _open_chunk(pc, chunk_index)
    u = _kept(g, m, True, g.random, 1)
    per_side = math.prod(grid.shape[1:])
    key = g.integers(0, per_side if grid.parity else per_side * grid.shape[0], m, dtype=np.int32)
    if grid.parity:
        key[(lo + 1) % 2 :: 2] += per_side  # the local indices of odd absolute rounds
    return u, key


def _window_widths(sc: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Window half-widths of Alice's and Bob's station, each indexed by WeakSide code."""
    return tuple(np.array([window_half_width(x) for x in table]) for table in station_intensities(sc))


def _window_rule(lam, theta_a, theta_b, w_a, w_b):
    """The kernel's outcome codes of both stations (broadcasting, like window_codes)."""
    out_a = window_codes(lam - theta_a, w_a)
    # Bob's pulse is rotated by pi/2, which swaps his two windows
    out_b = window_codes(lam - theta_b, w_b)
    np.negative(out_b, out=out_b)
    return out_a, out_b


def _window_columns(pc: ProtocolConfig, sc: ScenarioConfig, lam, a_idx, b_idx, weak):
    """Double-blind columns in _COLUMNS order, the outcomes decided by the window rule."""
    w_a, w_b = _window_widths(sc)
    out_a, out_b = _window_rule(
        lam, np.asarray(pc.alice_settings).take(a_idx), np.asarray(pc.bob_settings).take(b_idx),
        w_a.take(weak), w_b.take(weak),
    )
    return a_idx, b_idx, out_a, out_b, weak, lam, None


def _simulate_chunk(pc: ProtocolConfig, sc: ScenarioConfig, chunk_index: int):
    """Simulate rounds [chunk*CHUNK_ROUNDS, ...) of the session.

    Returns the chunk's columns in _COLUMNS order; the setting indices are
    int64 (int32 for double blind), which index the setting tables faster
    than int8. A double-blind chunk decodes every round of its bin draws
    (_draw_bins), the draws a streamed session counts by bins. Every chunk
    draws in a fixed per-scenario order, as if each array had CHUNK_ROUNDS
    values; the final chunk keeps the first m values of each and stops
    drawing the rest where the stream allows (_kept), so per-round values
    never depend on how many rounds the final chunk actually covers.
    """
    if sc.kind in DOUBLE_BLIND_KINDS:
        grid = _bin_grid(pc, sc)
        return _window_columns(pc, sc, *grid.decode(*_draw_bins(pc, grid, chunk_index)))

    _, m, g = _open_chunk(pc, chunk_index)
    alice = np.asarray(pc.alice_settings)
    bob = np.asarray(pc.bob_settings)
    # genuine pairs; under single blinding Eve measures the second photon in
    # a basis from Bob's configured set, drawn right after Bob's setting.
    # A setting draw can reject (at 3 settings, say), so it is drawn in full
    single = sc.kind is ScenarioKind.SINGLE_BLINDING
    a_idx = g.integers(0, alice.size, CHUNK_ROUNDS)[:m]
    b_idx = g.integers(0, bob.size, CHUNK_ROUNDS)[:m]
    second_idx = g.integers(0, bob.size, CHUNK_ROUNDS)[:m] if single else b_idx
    # an odd number of rejections (rare) leaves a buffered uint32, which the
    # coins read and advance would drop: then the draws below are not trimmed
    trim = not g.bit_generator.state["has_uint32"]
    coin = functools.partial(g.integers, 0, 2)
    a_coin = _kept(g, m, trim, coin, 2)
    u_flip = _kept(g, m, trim, g.random, 1)
    depol_u = _kept(g, m, trim, g.random, 1)
    a_repl = _kept(g, m, trim, coin, 2)
    b_repl = coin(m)  # the last draw
    out_a, out_b = honest_outcome_codes(
        alice[a_idx], bob[second_idx], a_coin, u_flip, depol_u, a_repl, b_repl, sc.depolarize_prob
    )
    eve_out = None
    if single:
        # Bob's blinded station answers the pulse Eve forwards: a table of 2 |B|^2 codes
        # per (her basis, her outcome, which is never 0, his setting), keyed in place in int64
        table = intercept_click_codes(bob[:, None, None], np.array([[Outcome.MINUS], [Outcome.PLUS]]), bob, sc)
        key = np.multiply(second_idx, 2)
        key += out_b > 0
        key *= bob.size
        key += b_idx
        eve_out, out_b = out_b, table.reshape(-1).take(key)
    return a_idx, b_idx, out_a, out_b, np.zeros(m, np.int8), None, eve_out


@dataclass(frozen=True, eq=False)
class _BucketTables:
    """Per-session table of the bucketed double-blind reducer.

    cells[key] is the flat count-tensor cell of every round whose bin has
    that key in grid (_BinGrid), so the table is laid out in draw order;
    or n_cells, one past the last cell, for a bin whose rounds are settled
    one by one (_bucket_tables says which).
    """

    grid: _BinGrid
    cells: np.ndarray


def _undecided(x, thresholds, margin):
    """Mark the buckets where x, given at their midpoints, may reach one of the thresholds.

    x moves by at most margin across a bucket, so a bucket is decided only
    if x clears every threshold by more than margin; NaN counts as undecided.
    """
    return functools.reduce(np.logical_or, [~(np.abs(x - t) > margin) for t in thresholds])


def _malus_station(intensity, polarization, setting, reach, window_code):
    """Mark the buckets where Eve's codes may differ from window_code, the midpoints' window rule.

    A detector fires iff I(1 +- c)/2 > 1 (split_intensities, click_codes),
    i.e. iff c = cos 2(pol - setting) lies beyond +-tau, tau = 2/I - 1; over
    a bucket c moves by at most 2 * reach from its midpoint value.
    """
    codes = click_codes(*split_intensities(intensity, polarization, setting))
    c = np.abs(np.cos(2.0 * (polarization - setting)))
    return (codes != window_code) | _undecided(c, [2.0 / intensity - 1.0], 2.0 * reach + _COSINE_SLACK)


def _bucket_tables(pc: ProtocolConfig, sc: ScenarioConfig, audit: bool) -> _BucketTables:
    """Build a double-blind session's bin table (_BucketTables), over the sides its grid reaches.

    The window rule is evaluated at each bucket's midpoint by _window_rule,
    with the widths from window_half_width, and with the audit Eve's codes
    by faked_pulse_params, split_intensities and click_codes. One margin
    rule (_undecided) decides a bucket for both arithmetics: at the
    midpoint, the quantity each compares must clear its thresholds by more
    than it can move across the bucket. window_codes' distance
    ||lambda - setting| - pi/2| must clear w and pi/2 - w by reach, half a
    bucket plus _EDGE_SLACK; Eve's |cos 2(pol - setting)| must clear
    2/I - 1 by 2 * reach + _COSINE_SLACK. With the audit, a bucket where
    Eve's midpoint code differs from the window rule's is undecided too.
    """
    grid = _bin_grid(pc, sc)
    alice, bob = np.asarray(pc.alice_settings), np.asarray(pc.bob_settings)
    n_a, n_b = alice.size, bob.size
    mid = (np.arange(grid.buckets) + 0.5) / grid.scale
    reach = 0.5 / grid.scale + _EDGE_SLACK

    # station tables, indexed (side digit, setting, bucket)
    w_a, w_b = (w.take(grid.sides)[:, None, None] for w in _window_widths(sc))
    code_a, code_b = _window_rule(mid, alice[:, None], bob[:, None], w_a, w_b)
    undecided_a, undecided_b = (
        _undecided(np.abs(np.abs(mid - s[:, None]) - HALF_PERIOD), [w, HALF_PERIOD - w], reach)
        for s, w in ((alice, w_a), (bob, w_b))
    )
    if audit:
        i_a, pol_a, i_b, pol_b = faked_pulse_params(mid, sc, grid.sides[:, None, None])
        undecided_a |= _malus_station(i_a, pol_a, alice[:, None], reach, code_a)
        undecided_b |= _malus_station(i_b, pol_b, bob[:, None], reach, code_b)

    # the bin table, indexed (side digit, a_idx, b_idx, bucket)
    n_cells = math.prod(_count_shape(pc))
    pair = np.arange(n_a, dtype=np.int32)[:, None] * n_b + np.arange(n_b, dtype=np.int32)
    cells = (pair[:, :, None] * 4 + code_a[:, :, None] + 1) * 4 + code_b[:, None] + 1
    cells = cells * 3 + grid.sides[:, None, None, None]
    cells[undecided_a[:, :, None] | undecided_b[:, None]] = n_cells
    return _BucketTables(grid, cells.reshape(-1).astype(np.int16 if n_cells < 2**15 else np.int32))


def _reduce_bucketed(
    pc: ProtocolConfig, sc: ScenarioConfig, tables: _BucketTables, audit: bool, chunk_index: int
):
    """_reduce_chunk(pc, sc, _simulate_chunk(pc, sc, chunk_index), audit), counted by bins.

    tables.cells gives each round's cell by its bin key, and one bincount
    of the cells counts the decided rounds. Only the settled rounds are
    decoded; they go through _window_columns and _reduce_chunk, the
    kernel's and Eve's own per-round arithmetic, even when there are none.
    Their tally is the chunk's, since a decided round has Eve's prediction
    equal to its outcome.
    """
    u, key = _draw_bins(pc, tables.grid, chunk_index)
    shape = _count_shape(pc)
    n_cells = math.prod(shape)
    cell = tables.cells.take(key)
    idx = np.flatnonzero(cell == n_cells)
    settled = tables.grid.decode(u[idx], key[idx])
    del u, key  # bincount copies cell to intp: free the draws first, for a lower peak
    counts = np.bincount(cell, minlength=n_cells + 1)[:-1].reshape(shape)
    settled_counts, tally = _reduce_chunk(pc, sc, _window_columns(pc, sc, *settled), audit)
    return counts + settled_counts, tally


def _in_chunk_order(fn, n_chunks: int, workers: int):
    """fn(c) for each chunk c, in chunk order; with a pool, at most 2 chunks per worker in flight.

    ThreadPoolExecutor.map submits all of its items at once, and each
    pending future holds on to memory, so the pool is handed one chunk per
    map call, no further ahead than the window.
    """
    if workers == 1:
        yield from map(fn, range(n_chunks))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        window = collections.deque()
        for c in range(n_chunks):
            window.append(pool.map(fn, (c,)))
            if len(window) == 2 * workers:
                yield next(window.popleft())
        for results in window:
            yield next(results)


def _assemble(parts, rounds: int) -> list:
    """Copy chunk columns, in chunk order, into full-length session columns.

    Each chunk is dropped once copied, so the session never holds its
    columns twice; setting indices are stored as int8.
    """
    columns = None
    for c, part in enumerate(parts):
        if columns is None:
            dtypes = [np.int8, np.int8] + [None if col is None else col.dtype for col in part[2:]]
            columns = [None if dt is None else np.empty(rounds, dt) for dt in dtypes]
        lo = c * CHUNK_ROUNDS
        for column, col in zip(columns, part):
            if column is not None:
                column[lo : lo + col.shape[0]] = col
    return columns


def session_chunks(protocol_cfg: ProtocolConfig, scenario_cfg: ScenarioConfig, workers=1, per_chunk=None):
    """per_chunk(c) for each chunk c of the session, in chunk order (_in_chunk_order).

    per_chunk defaults to chunk c's columns (_simulate_chunk). workers < 1, or a
    scenario that does not run under the protocol, raises ValueError here,
    before any chunk runs. The chunks run on min(workers, chunks, CPUs) threads.
    """
    workers = _whole("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if scenario_cfg.kind is ScenarioKind.SINGLE_BLINDING and protocol_cfg.protocol is not ProtocolKind.BBM92:
        raise ValueError("scenario single-blinding runs under protocol bbm92 only")
    n_chunks = -(-protocol_cfg.rounds // CHUNK_ROUNDS)
    workers = min(workers, n_chunks, os.cpu_count() or 1)
    if per_chunk is None:
        per_chunk = functools.partial(_simulate_chunk, protocol_cfg, scenario_cfg)
    return _in_chunk_order(per_chunk, n_chunks, workers)


def run_session(
    protocol_cfg: ProtocolConfig, scenario_cfg: ScenarioConfig, workers: int = 1, *, audit: bool = True
) -> SessionCounts:
    """Simulate a full session, streamed: its count tensor and Eve-audit counters.

    Each chunk is reduced to its count tensor while it is in cache (a
    double-blind chunk by bins, _reduce_bucketed), so the returned
    SessionCounts does not grow with the round count, at any workers.
    audit=True also reduces the Eve-audit counters that
    eve_prediction_report reads; without it that report raises ValueError.
    SessionRecords.simulate keeps the per-round columns instead.
    Deterministic for a given (protocol_cfg, scenario_cfg): the chunked RNG
    scheme, and chunk reductions merged by integer addition, make the
    output byte-identical for any workers >= 1.
    """
    pc, sc = protocol_cfg, scenario_cfg
    if sc.kind in DOUBLE_BLIND_KINDS:
        per_chunk = functools.partial(_reduce_bucketed, pc, sc, _bucket_tables(pc, sc, audit), audit)
    else:
        def per_chunk(c):
            return _reduce_chunk(pc, sc, _simulate_chunk(pc, sc, c), audit)
    chunks = session_chunks(pc, sc, workers, per_chunk)
    return SessionCounts(pc, sc, pc.rounds, *_merge(chunks, _count_shape(pc)))


@dataclass(frozen=True)
class SiftedKey:
    """Matched-basis key material. bits_bob is already anticorrelation-flipped.

    All arrays have equal length.
    """

    bits_alice: np.ndarray
    bits_bob: np.ndarray
    round_indices: np.ndarray


def _key_coincidences(pub: PublicRounds):
    """The sifted key's rounds: coincidences at equal settings, indexed (outcome_a, outcome_b) in (-1, +1)."""
    same_setting = np.equal.outer(pub.alice_settings, pub.bob_settings)
    return pub.counts[same_setting][:, ::2, ::2].sum(axis=0)


def bbm92_qber(records) -> float | None:
    """Disagreeing fraction of the sifted key, read from the count tensor.

    Over equal-setting pairs where both stations clicked, Alice's bit is 1
    for MINUS and Bob's flipped bit is 1 for PLUS, so the errors are the
    (-,-) and (+,+) coincidences. None (undefined, not zero) when nothing
    survives sifting.
    """
    c = _key_coincidences(public_rounds(records))
    # item() keeps the tensor's type: int for rounds, float for probabilities
    n = c.sum().item()
    return (c[0, 0] + c[1, 1]).item() / n if n else None


def sift_bbm92(records) -> SiftedKey:
    """Keep equal-setting rounds where both stations clicked.

    Alice's bit is 1 for a MINUS outcome; Bob's raw bit is flipped before
    comparison because the source anticorrelates the stations. Reads only
    the setting and outcome columns; bbm92_qber gives the key's error rate.
    A session without per-round columns raises ValueError.
    """
    out_a, out_b = records.outcome_a, records.outcome_b
    idx = np.flatnonzero(_key_rounds(records.protocol, records.a_idx, records.b_idx, out_a, out_b))
    bits_alice = (out_a[idx] == int(Outcome.MINUS)).astype(np.uint8)
    bits_bob = (out_b[idx] != int(Outcome.MINUS)).astype(np.uint8)
    return SiftedKey(bits_alice, bits_bob, idx)


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
    gaps = [_angle_gap(float(value), s) for s in settings]
    return gaps.index(min(gaps)) if min(gaps) < _SETTING_TOL else None


def correlation_estimate(records, theta_a: float, theta_b: float) -> CorrelationEstimate:
    """E-hat at one setting pair, conditioned on both stations clicking.

    Angles within 1e-12 of a configured setting count that setting's rounds
    and report its angle; NaN or an infinite angle raises ValueError.
    Standard error is sqrt((1 - E^2) / n); value and stderr are None when
    the pair has no coincidences.
    """
    for name, value in (("theta_a", theta_a), ("theta_b", theta_b)):
        if not math.isfinite(float(value)):
            raise ValueError(f"{name} must be a finite angle, got {value}")
    pub = public_rounds(records)
    i = _setting_index(theta_a, pub.alice_settings)
    j = _setting_index(theta_b, pub.bob_settings)
    a = canon_angle(float(theta_a)) if i is None else pub.alice_settings[i]
    b = canon_angle(float(theta_b)) if j is None else pub.bob_settings[j]
    # outcome index 0 is code -1 and index 2 is +1, so [::2, ::2] holds the coincidences
    c = pub.counts[i, j, ::2, ::2] if None not in (i, j) else np.zeros((2, 2), int)
    # item() keeps the tensor's type: int for rounds, float for probabilities
    n = c.sum().item()
    if n == 0:
        return CorrelationEstimate(a, b, None, None, 0)
    value = (c[0, 0] + c[1, 1] - c[0, 1] - c[1, 0]).item() / n
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


def eve_prediction_report(records) -> dict | None:
    """Audit of Eve's knowledge, serializable to JSON.

    Reads the counters the session reduced chunk by chunk (_eve_tally).
    Faked-state scenarios: her predicted outcome pair, computed by the
    reference Malus/threshold physics (sources.predict_outcome_codes), is
    compared on every round to the recorded pair, which the simulation
    decided by the window rule (optics.window_codes); a mismatch means the
    two arithmetics disagree. The key_* entries restrict the comparison to
    Bob's outcome on the rounds of the sifted key, whose size key_rounds is
    read off the count tensor as bbm92_qber reads it: key_match_fraction is
    the fraction of the key Eve knows. A streamed session compares only the
    rounds it settles one by one (_reduce_bucketed), which gives the same
    counts: its table decides no bin where Eve's midpoint prediction
    differs from the window rule's. Single blinding: Bob's clicks, which
    include every key round, are compared to her intercept outcome. None
    for honest sessions and public views; ValueError for a session that
    carries no audit (run with audit=False, or built without the column
    the audit reads).
    """
    scenario = getattr(records, "scenario", None)
    if scenario is None or scenario.kind is ScenarioKind.HONEST_SINGLET:
        return None
    if records.eve_tally is None:
        raise ValueError(
            "this session carries no Eve audit: run it with audit=True, "
            "and keep the column the audit reads"
        )
    if scenario.kind in DOUBLE_BLIND_KINDS:
        rounds, (mismatches, key_mismatches) = len(records), records.eve_tally
        key_rounds = _key_coincidences(public_rounds(records)).sum().item()
        return {
            "mode": "faked-state",
            "rounds": rounds,
            "mismatched_outcomes": mismatches,
            "match_fraction": 1.0 - mismatches / (2 * rounds) if rounds else None,
            "key_rounds": key_rounds,
            "key_mismatches": key_mismatches,
            "key_match_fraction": 1.0 - key_mismatches / key_rounds if key_rounds else None,
        }
    clicks, mismatched = records.eve_tally
    return {
        "mode": "intercept",
        "bob_clicks": clicks,
        "mismatched_clicks": mismatched,
        "match_fraction": 1.0 - mismatched / clicks if clicks else None,
    }
