"""Closed-form predictions, efficiency estimators, and detection bounds.

The oracle_* functions are the independent targets the Monte-Carlo engine
is tested against; they are evaluated straight from the model geometry and
never share code with the simulator; oracle_block collects them into the
expected values a session summary reports. The chsh_bound_* functions give the
largest CHSH value a local model exploiting undetected rounds can fake at
a given efficiency, which is what makes the weak-pulse attack's operating
point interesting: its efficiencies sit exactly on both thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .optics import wrap_diff
from .protocol import CHSH_QUAD, ProtocolKind, chsh_value, public_rounds
from .sources import DOUBLE_BLIND_KINDS, ScenarioConfig, ScenarioKind, WeakSide

QUANTUM_CHSH_MAX = 2.0 * math.sqrt(2.0)

_QUARTER = math.pi / 4.0
_HALF = math.pi / 2.0
_TOL = 1e-12


def _check_delta(delta: float) -> float:
    d = float(delta)
    if abs(d) > _HALF + _TOL:
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


def oracle_corr_fn(scenario: ScenarioConfig):
    """Closed-form correlation vs analyzer offset for the scenario, or None."""
    kind = scenario.kind
    if kind is ScenarioKind.DOUBLE_BLIND_BBM92:
        return oracle_corr_bbm92
    if kind is ScenarioKind.DOUBLE_BLIND_EKERT:
        return lambda d: oracle_corr_ekert(d, scenario.alpha)
    if kind is ScenarioKind.HONEST_SINGLET:
        return lambda d: oracle_corr_honest(d, scenario.depolarize_prob)
    return None


def oracle_block(records) -> dict:
    """Expected values for the configured parameters, per scenario."""
    pc, sc = records.protocol, records.scenario
    corr_fn = oracle_corr_fn(sc)
    block: dict = {}

    if sc.kind is ScenarioKind.DOUBLE_BLIND_EKERT:
        block["alpha"] = sc.alpha
        block["weak_detection_prob"] = oracle_weak_detection_prob(sc.alpha)
        block["eta"] = oracle_eta(sc.alpha)
        block["eta_21"] = oracle_eta_conditional(sc.alpha)
    elif sc.kind is ScenarioKind.SINGLE_BLINDING:
        block["rate_a"] = 1.0
        block["rate_b"] = 0.5
    else:
        block["eta"] = 1.0
        block["eta_21"] = 1.0

    if corr_fn is not None:
        block["corr_pairs"] = [
            {
                "theta_a": a,
                "theta_b": b,
                "delta": wrap_diff(b - a),
                "value": corr_fn(wrap_diff(b - a)),
            }
            for a in pc.alice_settings
            for b in pc.bob_settings
        ]

    if pc.protocol is ProtocolKind.BBM92:
        if sc.kind in DOUBLE_BLIND_KINDS:
            block["qber"] = 0.0
        else:
            block["qber"] = sc.depolarize_prob / 2.0
    if pc.protocol is ProtocolKind.EKERT and corr_fn is not None:
        a, a_prime, b, b_prime = CHSH_QUAD
        block["chsh"] = chsh_value(
            corr_fn(wrap_diff(b - a)),
            corr_fn(wrap_diff(b_prime - a)),
            corr_fn(wrap_diff(b - a_prime)),
            corr_fn(wrap_diff(b_prime - a_prime)),
        )
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
    how many pairs the source produced. Every recorded round was emitted, so
    n_emitted below the number of records is an error.
    """
    t = public_rounds(records).counts.sum(axis=(0, 1))  # rounds per (outcome_a + 1, outcome_b + 1)
    # outcome index 0 is code -1 and index 2 is +1, so [::2] selects the clicks
    singles_a = int(t[::2].sum())
    singles_b = int(t[:, ::2].sum())
    coincidences = int(t[::2, ::2].sum())
    n_rounds = int(t.sum())
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
        n_emitted = int(n_emitted)
        if n_emitted < 1:
            raise ValueError(f"n_emitted must be >= 1, got {n_emitted}")
        if n_emitted < n_rounds:
            raise ValueError(
                f"n_emitted={n_emitted} is below the {n_rounds} recorded rounds"
            )
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
    n_weak = int(c[..., WeakSide.A].sum() + c[..., WeakSide.B].sum())
    if n_weak == 0:
        return None
    # outcome index 0 is code -1 and index 2 is +1, so [::2] selects the clicks
    hits = int(c[::2, :, WeakSide.A].sum() + c[:, ::2, WeakSide.B].sum())
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
    min_cell: int
    checks: tuple[RateCheck, ...]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "significance": self.significance,
            "min_cell": self.min_cell,
            "verdict": self.verdict,
            "checks": [c.to_dict() for c in self.checks],
        }


def _rate_check(name: str, labels, trials, hits, significance: float, min_cell: int) -> RateCheck:
    trials = np.asarray(trials, dtype=np.int64)
    hits = np.asarray(hits, dtype=np.int64)
    dof = trials.size - 1
    if np.any(trials < max(min_cell, 1)):
        return RateCheck(
            name, tuple(labels), tuple(int(t) for t in trials), tuple(int(h) for h in hits),
            None, dof, None, "inconclusive",
        )
    pooled = hits.sum() / trials.sum()
    if pooled <= 0.0 or pooled >= 1.0:
        # every cell at exactly 0 or 1: rates are identical by construction
        statistic, p_value = 0.0, 1.0
    else:
        expected_hit = trials * pooled
        expected_miss = trials * (1.0 - pooled)
        statistic = float(
            np.sum((hits - expected_hit) ** 2 / expected_hit)
            + np.sum(((trials - hits) - expected_miss) ** 2 / expected_miss)
        )
        p_value = float(stats.chi2.sf(statistic, dof)) if dof > 0 else 1.0
    verdict = "fail" if p_value < significance else "pass"
    return RateCheck(
        name, tuple(labels), tuple(int(t) for t in trials), tuple(int(h) for h in hits),
        statistic, dof, p_value, verdict,
    )


def fair_sampling_monitor(records, significance: float = 0.01, min_cell: int = 100) -> FairSamplingReport:
    """Test whether click and coincidence rates depend on the local settings.

    Chi-square homogeneity across the configured setting cells, one check per
    side plus one for coincidences across setting pairs. Any cell with fewer
    than min_cell rounds, or none at all, makes that check (and at best the
    report) inconclusive. The blinding attacks are engineered to pass this
    monitor; an efficiency mismatch between settings fails it.
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
    checks = [_rate_check(name, labels, t, h, significance, min_cell) for name, labels, t, h in cells]

    verdicts = [c.verdict for c in checks]
    if "fail" in verdicts:
        overall = "fail"
    elif "inconclusive" in verdicts:
        overall = "inconclusive"
    else:
        overall = "pass"
    return FairSamplingReport(significance, min_cell, tuple(checks), overall)
