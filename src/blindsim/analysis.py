"""Expected counts, closed-form predictions, efficiency estimators, and detection bounds.

expected_counts is the probability of each cell of a session's count tensor,
worked out from the model geometry without the simulator's code; oracle_block
reads a summary's expected values off it with the statistics that read the
simulated counts. The oracle_* closed forms, the paper's, hold at the default
intensities and settings. The chsh_bound_* functions give the
largest CHSH value a local model exploiting undetected rounds can fake at
a given efficiency, which is what makes the weak-pulse attack's operating
point interesting: its efficiencies sit exactly on both thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optics import wrap_diff
from .protocol import (
    ProtocolConfig, ProtocolKind, SessionCounts, bbm92_qber, chsh_score, correlation_estimate, public_rounds,
)
from .sources import DOUBLE_BLIND_KINDS, ScenarioConfig, ScenarioKind, WeakSide

QUANTUM_CHSH_MAX = 2.0 * math.sqrt(2.0)

_QUARTER = math.pi / 4.0
_HALF = math.pi / 2.0
_TOL = 1e-12
MIN_CELL = 100  # rounds every setting cell of the fair-sampling monitor needs for its check to conclude


def _check_delta(delta: float) -> float:
    d = float(delta)
    # not (abs <= bound): NaN fails every comparison, so it is refused too
    if not abs(d) <= _HALF + _TOL:
        raise ValueError(f"delta must lie in [-pi/2, pi/2], got {delta}")
    return d


def _check_alpha(alpha: float) -> float:
    a = float(alpha)
    if not 0.0 < a < _QUARTER:
        raise ValueError(f"alpha must lie strictly between 0 and pi/4, got {alpha}")
    return a


def oracle_corr_bbm92(delta: float) -> float:
    """Correlation of the strong/strong faked states at analyzer offset delta.

    Linear in |delta|: -1 at matched settings, +1 at pi/2.
    """
    d = _check_delta(delta)
    return -1.0 + (4.0 / math.pi) * abs(d)


def oracle_corr_honest(delta: float, depolarize_prob: float) -> float:
    """Correlation of genuine singlet pairs at analyzer offset delta.

    -(1 - p) cos 2 delta: the singlet cosine law, shrunk by the probability
    p that a pair is replaced by two independent fair coins.
    """
    d = _check_delta(delta)
    p = float(depolarize_prob)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarize_prob must lie in [0, 1], got {depolarize_prob}")
    return -(1.0 - p) * math.cos(2.0 * d)


def oracle_corr_ekert(delta: float, alpha: float) -> float:
    """Coincidence-conditioned correlation of the weak/strong faked states.

    Piecewise linear: clamped at -1 / +1 outside the band |delta| in
    [pi/4 - alpha, pi/4 + alpha], ramping through it with slope 1/alpha.
    Continuous at both breakpoints.
    """
    a = _check_alpha(alpha)
    d = abs(_check_delta(delta))
    if d < _QUARTER - a:
        return -1.0
    if d > _QUARTER + a:
        return 1.0
    return (d - _QUARTER) / a


def oracle_weak_detection_prob(alpha: float) -> float:
    """Click probability of the weakened station: 4*alpha/pi."""
    return 4.0 * _check_alpha(alpha) / math.pi


def oracle_eta(alpha: float) -> float:
    """Single-side detection efficiency of the weak/strong attack: (1 + 4a/pi)/2."""
    return (1.0 + oracle_weak_detection_prob(alpha)) / 2.0


def oracle_eta_conditional(alpha: float) -> float:
    """Conditional efficiency (coincidences over singles): p_weak / eta."""
    return oracle_weak_detection_prob(alpha) / oracle_eta(alpha)


def expected_counts(pc: ProtocolConfig, sc: ScenarioConfig) -> np.ndarray:
    """Probability of every cell of the session's count tensor (SessionCounts.counts).

    From the model, not the simulation kernel. Faked states: a station fires
    + (-) while its pulse, along a uniform lambda at Alice and lambda + pi/2 at
    Bob, lies within w of its setting (of the orthogonal) modulo pi, where
    w = acos(2/I - 1)/2 for a strong pulse and alpha for the weak one. Genuine
    pairs follow the singlet law; under single blinding Eve measures Alice's
    partner in one of Bob's bases and forwards the result to his threshold.
    """
    alice, bob = np.asarray(pc.alice_settings), np.asarray(pc.bob_settings)
    probs = np.zeros((alice.size, bob.size, 4, 4, 3))
    if sc.kind in DOUBLE_BLIND_KINDS:
        # per WeakSide code (NONE, A, B): the share of rounds, and each station's half-width
        strong = 0.5 * math.acos(2.0 / sc.strong_intensity - 1.0)
        weak, law = strong, (1.0, 0.0, 0.0)
        if sc.kind is ScenarioKind.DOUBLE_BLIND_EKERT:
            alternate = -(-pc.rounds // 2) / pc.rounds  # A on the even rounds
            on_a = {"random": 0.5, "alternate": alternate, "fixed-a": 1.0, "fixed-b": 0.0}[sc.weak_side_policy]
            weak, law = sc.alpha, (0.0, on_a, 1.0 - on_a)
        # axes (a_idx, b_idx, weak side, piece of lambda); (setting, half-width, pulse turn)
        stations = (
            (alice.reshape(-1, 1, 1, 1), np.reshape([strong, weak, strong], (1, 1, 3, 1)), 0.0),
            (bob.reshape(1, -1, 1, 1), np.reshape([strong, strong, weak], (1, 1, 3, 1)), _HALF),
        )
        # the window edges s -+ w, s + pi/2 -+ w cut [0, pi) into pieces on which both verdicts are constant
        signs, quarters = np.array([-1.0, 1.0, -1.0, 1.0]), np.array([0.0, 0.0, _HALF, _HALF])
        cuts = np.full((alice.size, bob.size, 3, 10), math.pi)
        cuts[..., 0] = 0.0
        cuts[..., 1:5], cuts[..., 5:9] = (np.mod(s + quarters + signs * w, math.pi) for s, w, _ in stations)
        cuts.sort()
        mid = (cuts[..., 1:] + cuts[..., :-1]) / 2.0

        def verdict(u, w):  # u: pulse polarization minus setting, modulo pi
            return ((u < w) | (u > math.pi - w)).astype(int) - (np.abs(u - _HALF) < w)

        out_a, out_b = (verdict(np.mod(mid + turn - s, math.pi), w) for s, w, turn in stations)
        # each piece's flat cell of (a_idx, b_idx, out_a + 1, out_b + 1, weak side)
        pair = np.arange(alice.size).reshape(-1, 1, 1, 1) * bob.size + np.arange(bob.size).reshape(1, -1, 1, 1)
        cell = ((pair * 4 + out_a + 1) * 4 + out_b + 1) * 3 + np.arange(3).reshape(1, 1, 3, 1)
        weight = np.diff(cuts) / math.pi * np.reshape(law, (1, 1, 3, 1))
        probs = np.bincount(cell.ravel(), weight.ravel(), probs.size).reshape(probs.shape)
    else:
        # singlet law of Alice's outcome x and her partner's z, measured at e in Bob's set
        xz = np.array([[1.0, -1.0], [-1.0, 1.0]])
        p = sc.depolarize_prob
        law = (1.0 - p) * (1.0 - xz * np.cos(2.0 * (alice[:, None] - bob))[..., None, None]) / 4.0 + p / 4.0
        if sc.kind is ScenarioKind.SINGLE_BLINDING:
            # Eve's pulse d has cos 2(d - b) = z cos 2(e - b): + above 2/I - 1, - below 1 - 2/I
            c = np.reshape([-1.0, 1.0], (1, 2, 1)) * np.cos(2.0 * (bob[:, None] - bob))[:, None, :]
            tau = 2.0 / sc.single_blind_intensity - 1.0
            # one-hot over the outcome code (-1, 0, 1, 2) of each index y of Bob's outcome axis
            out_b = ((c > tau).astype(int) - (c < -tau))[..., None] == np.arange(-1, 3)  # (e, z, b_idx, y)
            probs[:, :, ::2, :, 0] = np.einsum("aexz,ezby->abxy", law, out_b) / bob.size
        else:
            probs[:, :, ::2, ::2, 0] = law
    return probs / (alice.size * bob.size)


def oracle_block(protocol_cfg: ProtocolConfig, scenario_cfg: ScenarioConfig) -> dict:
    """The statistics of expected_counts, read as one emission; None where their rounds cannot occur."""
    pc, sc = protocol_cfg, scenario_cfg
    expected = SessionCounts(pc, sc, 1, expected_counts(pc, sc))
    eff = estimate_efficiencies(expected, 1)
    block = {"alpha": sc.alpha} if sc.kind is ScenarioKind.DOUBLE_BLIND_EKERT else {}
    block |= {
        "eta": eff.eta, "eta_21": eff.eta_21, "rate_a": eff.rate_a, "rate_b": eff.rate_b,
        "weak_detection_prob": weak_side_detection_rate(expected),
        "corr_pairs": [
            {"theta_a": a, "theta_b": b, "delta": wrap_diff(b - a),
             "value": correlation_estimate(expected, a, b).value}
            for a in pc.alice_settings
            for b in pc.bob_settings
        ],
    }
    if pc.protocol is ProtocolKind.BBM92:
        block["qber"] = bbm92_qber(expected)
    else:
        block["chsh"] = chsh_score(expected).value
    return block


def _check_efficiency(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value}")
    return v


def chsh_bound_conditional(eta_21: float) -> float:
    """Largest CHSH value a local model can fake at conditional efficiency eta_21.

    4/eta_21 - 2, valid for eta_21 in [2/3, 1]; below 2/3 every value up to
    the algebraic maximum 4 is reachable and the bound is out of domain.
    """
    v = _check_efficiency("eta_21", eta_21)
    if v < 2.0 / 3.0 - _TOL:
        raise ValueError(f"eta_21={eta_21} is below the bound's domain [2/3, 1]")
    if v > 1.0 + _TOL:
        raise ValueError(f"eta_21={eta_21} exceeds 1; efficiencies live in (0, 1]")
    return 4.0 / v - 2.0


def chsh_bound_detection(eta: float) -> float:
    """Largest CHSH value a local model can fake at detection efficiency eta.

    2/(2*eta - 1), valid for eta in [3/4, 1]; out of domain below 3/4.
    """
    v = _check_efficiency("eta", eta)
    if v < 3.0 / 4.0 - _TOL:
        raise ValueError(f"eta={eta} is below the bound's domain [3/4, 1]")
    if v > 1.0 + _TOL:
        raise ValueError(f"eta={eta} exceeds 1; efficiencies live in (0, 1]")
    return 2.0 / (2.0 * v - 1.0)


@dataclass(frozen=True)
class EfficiencyReport:
    """Observed detection efficiencies.

    eta, per-side rates, and their errors need the emission count; when it is
    unknown they are None. eta_21 only needs observed clicks / coincidences.
    Counting gives eta_21 >= 2 - 1/eta whenever both are defined.
    """

    eta: float | None
    eta_21: float | None
    rate_a: float | None
    rate_b: float | None
    n_emitted: int | None
    eta_stderr: float | None = None
    eta_21_stderr: float | None = None


def estimate_efficiencies(records, n_emitted: int | None = None) -> EfficiencyReport:
    """Empirical single and conditional detection efficiencies.

    Pass n_emitted=len(records) when the record list covers every emission
    (true for the simulator's sessions); None models parties who never learn
    how many pairs the source produced. n_emitted must be a whole number no
    less than the int() of the rounds recorded, since each was emitted; an
    expected_counts tensor sums to 0 or 1 and is read with n_emitted=1.
    """
    t = public_rounds(records).counts.sum(axis=(0, 1))  # rounds per (outcome_a + 1, outcome_b + 1)
    # item() keeps the table's type: int for rounds, float for probabilities.
    # Outcome index 0 is code -1 and index 2 is +1, so [::2] selects the clicks
    singles_a = t[::2].sum().item()
    singles_b = t[:, ::2].sum().item()
    coincidences = t[::2, ::2].sum().item()
    n_rounds = t.sum().item()
    if n_emitted is not None:
        if not float(n_emitted).is_integer():
            raise ValueError(f"n_emitted must be a whole number, got {n_emitted}")
        n_emitted = int(n_emitted)
        if n_emitted < 1:
            raise ValueError(f"n_emitted must be >= 1, got {n_emitted}")
        if n_emitted < int(n_rounds):
            raise ValueError(f"n_emitted={n_emitted} is below the {int(n_rounds)} recorded rounds")
    one_click = singles_a + singles_b - 2 * coincidences

    eta_21 = None
    eta_21_stderr = None
    if singles_a + singles_b > 0:
        eta_21 = 2.0 * coincidences / (singles_a + singles_b)
        # ratio estimator x/y with x = coincidence indicator, y = clicks/2: the
        # residual x - r*y is -r/2 on one-click rounds and 1 - r on coincidences
        if n_rounds > 1:
            ybar = (singles_a + singles_b) / (2.0 * n_rounds)
            mean_sq = (one_click * (eta_21 / 2.0) ** 2 + coincidences * (1.0 - eta_21) ** 2) / n_rounds
            eta_21_stderr = math.sqrt(max(0.0, mean_sq) / n_rounds) / ybar

    eta = rate_a = rate_b = eta_stderr = None
    if n_emitted is not None:
        eta = (singles_a + singles_b) / (2.0 * n_emitted)
        rate_a = singles_a / n_emitted
        rate_b = singles_b / n_emitted
        if n_emitted == n_rounds and n_rounds > 1:
            # sample std of clicks/2 per round, which is 0, 1/2 or 1 with mean eta
            no_click = n_rounds - one_click - coincidences
            squares = no_click * eta**2 + one_click * (0.5 - eta) ** 2 + coincidences * (1.0 - eta) ** 2
            eta_stderr = math.sqrt(squares / (n_rounds - 1)) / math.sqrt(n_rounds)

    return EfficiencyReport(
        eta=eta,
        eta_21=eta_21,
        rate_a=rate_a,
        rate_b=rate_b,
        n_emitted=n_emitted,
        eta_stderr=eta_stderr,
        eta_21_stderr=eta_21_stderr,
    )


def weak_side_detection_rate(records) -> float | None:
    """Fraction of weak-pulse rounds whose weakened station clicked.

    None when the session contains no weak-pulse rounds.
    """
    c = records.counts.sum(axis=(0, 1))  # rounds per (outcome_a + 1, outcome_b + 1, weak_side)
    n_weak = (c[..., WeakSide.A].sum() + c[..., WeakSide.B].sum()).item()
    if n_weak == 0:
        return None
    # outcome index 0 is code -1 and index 2 is +1, so [::2] selects the clicks
    hits = (c[::2, :, WeakSide.A].sum() + c[:, ::2, WeakSide.B].sum()).item()
    return hits / n_weak


@dataclass(frozen=True)
class RateCheck:
    """One homogeneity check: does a rate depend on the local setting?"""

    name: str
    labels: tuple[str, ...]
    trials: tuple[int, ...]
    hits: tuple[int, ...]
    statistic: float | None
    dof: int
    p_value: float | None
    verdict: str  # "pass" | "fail" | "inconclusive"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cells": [
                {"label": lbl, "trials": t, "hits": h, "rate": h / t if t else None}
                for lbl, t, h in zip(self.labels, self.trials, self.hits)
            ],
            "statistic": self.statistic,
            "dof": self.dof,
            "p_value": self.p_value,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class FairSamplingReport:
    """Chi-square fair-sampling monitor output."""

    significance: float
    checks: tuple[RateCheck, ...]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "significance": self.significance,
            "min_cell": MIN_CELL,
            "verdict": self.verdict,
            "checks": [c.to_dict() for c in self.checks],
        }


def _chi2_sf(dof: int, statistic: float) -> float:
    """Upper tail P(X > statistic) of the chi-square law with integer dof >= 1.

    With h = statistic / 2 the tail is sum_{k < dof/2} e^-h h^k / k! for even
    dof, and erfc(sqrt h) plus the same sum over k = 1/2, 3/2, ... (k! as
    Gamma(k + 1)) for odd dof. Each term is formed in logs, so none overflows
    or underflows to a wrong answer up to the largest dof a session allows.
    """
    if statistic <= 0.0:
        return 1.0
    h = statistic / 2.0
    log_h = math.log(h)
    odd = dof % 2
    total = math.erfc(math.sqrt(h)) if odd else 0.0
    for j in range(dof // 2):
        k = j + odd / 2.0
        total += math.exp(k * log_h - h - math.lgamma(k + 1.0))
    return min(total, 1.0)


def _rate_check(name: str, labels, trials, hits, significance: float) -> RateCheck:
    trials = np.asarray(trials, dtype=np.int64)
    hits = np.asarray(hits, dtype=np.int64)
    dof = trials.size - 1
    if np.any(trials < MIN_CELL):
        return RateCheck(
            name, tuple(labels), tuple(int(t) for t in trials), tuple(int(h) for h in hits),
            None, dof, None, "inconclusive",
        )
    pooled = hits.sum() / trials.sum()
    statistic = 0.0  # pooled at 0 or 1: every cell has that same rate
    if 0.0 < pooled < 1.0:
        expected_hit = trials * pooled
        expected_miss = trials * (1.0 - pooled)
        statistic = float(
            np.sum((hits - expected_hit) ** 2 / expected_hit)
            + np.sum(((trials - hits) - expected_miss) ** 2 / expected_miss)
        )
    p_value = _chi2_sf(dof, statistic)  # the monitor has >= 2 cells per check, so dof >= 1
    verdict = "fail" if p_value < significance else "pass"
    return RateCheck(
        name, tuple(labels), tuple(int(t) for t in trials), tuple(int(h) for h in hits),
        statistic, dof, p_value, verdict,
    )


def fair_sampling_monitor(records, significance: float = 0.01) -> FairSamplingReport:
    """Test whether click and coincidence rates depend on the local settings.

    Chi-square homogeneity across the configured setting cells, one check per
    side plus one for coincidences across setting pairs. Any cell with fewer
    than MIN_CELL rounds makes that check (and at best the report)
    inconclusive. The blinding attacks are engineered to pass this monitor;
    an efficiency mismatch between settings fails it.
    """
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must lie in (0, 1), got {significance}")
    pub = public_rounds(records)
    alice, bob = pub.alice_settings, pub.bob_settings
    if len(alice) < 2 or len(bob) < 2:
        raise ValueError("fair-sampling monitor needs >= 2 settings per side")

    # per setting pair: rounds, Alice clicks, Bob clicks, coincidences
    # (outcome index 0 is code -1 and index 2 is +1, so [::2] selects the clicks)
    c = pub.counts
    trials = c.sum(axis=(2, 3))
    clicks_a = c[:, :, ::2].sum(axis=(2, 3))
    clicks_b = c[:, :, :, ::2].sum(axis=(2, 3))
    coinc = c[:, :, ::2, ::2].sum(axis=(2, 3))
    cells = (
        ("alice-click-rate", [f"{a:.9g}" for a in alice], trials.sum(axis=1), clicks_a.sum(axis=1)),
        ("bob-click-rate", [f"{b:.9g}" for b in bob], trials.sum(axis=0), clicks_b.sum(axis=0)),
        ("coincidence-rate", [f"{a:.9g}/{b:.9g}" for a in alice for b in bob], trials.ravel(), coinc.ravel()),
    )
    checks = [_rate_check(name, labels, t, h, significance) for name, labels, t, h in cells]

    verdicts = [c.verdict for c in checks]
    if "fail" in verdicts:
        overall = "fail"
    elif "inconclusive" in verdicts:
        overall = "inconclusive"
    else:
        overall = "pass"
    return FairSamplingReport(significance, tuple(checks), overall)
