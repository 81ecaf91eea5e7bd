"""Correctness checks for the benchmark's command outputs.

Every expected value here is worked out from the model's closed forms in this
file; nothing is copied from the program's own oracles or from a stored run.
Each check returns a list of failure messages, empty when the output is right.
Statistical checks allow 5 standard deviations, with the deviation also taken
from the closed form, never from the stderr the program reports.
"""

from __future__ import annotations

import csv
import json
import math

NSIGMA = 5.0

# the weak-pulse operating point of the double-ekert attack
ALPHA_OPERATING = math.pi / (4.0 * math.sqrt(2.0))

# local-model CHSH ceiling 2/(2 eta - 1) at eta = 0.9, the setup command's input
BOUNDS_ETA = 0.9
BOUNDS_CEILING = 2.0 / (2.0 * BOUNDS_ETA - 1.0)


def weak_click_prob(alpha: float) -> float:
    """The weakened station clicks unless its analyzer sits in a band of width 2 alpha."""
    return 4.0 * alpha / math.pi


def eta_closed(alpha: float) -> float:
    return (1.0 + weak_click_prob(alpha)) / 2.0


def eta_21_closed(alpha: float) -> float:
    return 8.0 * alpha / (math.pi + 4.0 * alpha)


def ekert_sigmas(alpha: float, rounds: int) -> dict:
    """Standard deviations of the three efficiency estimators over `rounds` rounds.

    Every round weakens exactly one side; the strong side always clicks and the
    weak side clicks with probability p. So eta = (1 + X)/2 and
    eta_21 = 2X/(1 + X), where X is the mean of `rounds` Bernoulli(p) draws.
    """
    p = weak_click_prob(alpha)
    sd_x = math.sqrt(p * (1.0 - p) / rounds)
    return {"weak": sd_x, "eta": sd_x / 2.0, "eta_21": 2.0 / (1.0 + p) ** 2 * sd_x}


def _within(name: str, value, expected: float, sigma: float) -> list[str]:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        return [f"{name}={value!r} is not a finite number"]
    if abs(value - expected) > NSIGMA * sigma:
        return [
            f"{name}={value!r} is {abs(value - expected) / sigma:.1f} sigma from {expected!r}"
        ]
    return []


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def parse_strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _load_summary(text: str) -> tuple[dict | None, list[str]]:
    try:
        return parse_strict_json(text), []
    except ValueError as exc:
        return None, [f"summary is not strict JSON: {exc}"]


def check_attack_summary(text: str, rounds: int) -> list[str]:
    """`run --scenario double-ekert --protocol ekert` at the default operating point."""
    summary, errors = _load_summary(text)
    if summary is None:
        return errors
    try:
        alpha = ALPHA_OPERATING
        sig = ekert_sigmas(alpha, rounds)
        eff = summary["efficiency"]
        if summary["rounds"] != rounds:
            errors.append(f"rounds={summary['rounds']!r}, expected {rounds}")
        errors += _within("eta", eff["eta"], eta_closed(alpha), sig["eta"])
        errors += _within("eta_21", eff["eta_21"], eta_21_closed(alpha), sig["eta_21"])
        errors += _within(
            "weak_side_rate", eff["weak_side_rate"], weak_click_prob(alpha), sig["weak"]
        )
        # each CHSH pair sees coincidences on a ninth of the rounds times p, and
        # at E = +-1/sqrt(2) one coincidence has variance 1 - E^2 = 1/2
        n_pair = rounds * weak_click_prob(alpha) / 9.0
        errors += _within(
            "chsh.value", summary["chsh"]["value"], 2.0 * math.sqrt(2.0), math.sqrt(4 * 0.5 / n_pair)
        )
        mismatched = summary["monitors"]["eve_audit"]["mismatched_outcomes"]
        if mismatched != 0:
            errors.append(f"eve_audit.mismatched_outcomes={mismatched!r}, expected 0")
        errors += check_fair_sampling(summary["monitors"]["fair_sampling"])
    except (KeyError, TypeError) as exc:
        errors.append(f"summary lacks a field: {exc!r}")
    return errors


def _chi2_sf(statistic: float, dof: int) -> float:
    """Upper tail of the chi-square law for dof 1..8 (closed forms, no scipy)."""
    if dof % 2 == 0:
        # sum_{k < dof/2} e^{-x/2} (x/2)^k / k!
        half = statistic / 2.0
        term = total = 1.0
        for k in range(1, dof // 2):
            term *= half / k
            total += term
        return math.exp(-half) * total
    # odd dof: erfc(sqrt(x/2)) plus the series sqrt(2x/pi) e^{-x/2} x^k / (3*5*...*(2k+1))
    root = math.sqrt(statistic)
    total = math.erfc(root / math.sqrt(2.0))
    term = math.sqrt(2.0 / math.pi) * root * math.exp(-statistic / 2.0)
    for k in range(1, (dof + 1) // 2):
        total += term
        term *= statistic / (2 * k + 1)
    return total


def check_fair_sampling(report: dict) -> list[str]:
    """Recompute each chi-square homogeneity check from its cell counts.

    The monitor tests at 1 % per check, so it reports `fail` on about 3 % of
    honest-looking sessions by design. The benchmark instead requires that the
    reported statistic and verdict follow from the cells, and that no check is
    rejected at the 5-sigma level (p < 5.7e-7) the other checks use.
    """
    errors = []
    p_floor = math.erfc(NSIGMA / math.sqrt(2.0))
    for check in report["checks"]:
        cells = check["cells"]
        trials = [c["trials"] for c in cells]
        hits = [c["hits"] for c in cells]
        pooled = sum(hits) / sum(trials)
        statistic = 0.0
        for t, h in zip(trials, hits):
            e_hit, e_miss = t * pooled, t * (1.0 - pooled)
            statistic += (h - e_hit) ** 2 / e_hit + ((t - h) - e_miss) ** 2 / e_miss
        dof = len(cells) - 1
        name = check["name"]
        p_value = _chi2_sf(statistic, dof)
        if p_value < p_floor:
            errors.append(f"{name}: rates depend on the setting (p={p_value:.3g})")
        if dof != check["dof"] or not math.isclose(statistic, check["statistic"], rel_tol=1e-9, abs_tol=1e-9):
            errors.append(f"{name}: statistic {check['statistic']!r} on dof {check['dof']}, "
                          f"cells give {statistic!r} on dof {dof}")
        elif not math.isclose(p_value, check["p_value"], rel_tol=1e-6, abs_tol=1e-12):
            errors.append(f"{name}: p_value {check['p_value']!r}, expected {p_value!r}")
        verdict = "fail" if p_value < report["significance"] else "pass"
        if check["verdict"] != verdict:
            errors.append(f"{name}: verdict {check['verdict']!r}, its p_value gives {verdict!r}")
    overall = "fail" if any(c["verdict"] == "fail" for c in report["checks"]) else "pass"
    if report["verdict"] != overall:
        errors.append(f"fair_sampling.verdict {report['verdict']!r}, its checks give {overall!r}")
    return errors


def sweep_grid(start: float, stop: float, steps: int) -> list[float]:
    return [start + i * (stop - start) / (steps - 1) for i in range(steps)]


def check_alpha_sweep(text: str, start: float, stop: float, steps: int, rounds: int) -> list[str]:
    """`sweep --axis alpha`: one row per grid point, each estimate near its closed form."""
    rows = list(csv.DictReader(text.splitlines()))
    if len(rows) != steps:
        return [f"sweep has {len(rows)} rows, expected {steps}"]
    errors = []
    for i, (row, alpha) in enumerate(zip(rows, sweep_grid(start, stop, steps))):
        try:
            got = {k: float(row[k]) for k in ("alpha", "eta_estimate", "eta_21_estimate", "weak_rate_estimate")}
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"sweep row {i} is unreadable: {exc!r}")
            continue
        if not abs(got["alpha"] - alpha) <= 1e-12:
            errors.append(f"sweep row {i}: alpha={got['alpha']!r}, grid gives {alpha!r}")
            continue
        sig = ekert_sigmas(alpha, rounds)
        errors += _within(f"row {i} eta", got["eta_estimate"], eta_closed(alpha), sig["eta"])
        errors += _within(f"row {i} eta_21", got["eta_21_estimate"], eta_21_closed(alpha), sig["eta_21"])
        errors += _within(
            f"row {i} weak rate", got["weak_rate_estimate"], weak_click_prob(alpha), sig["weak"]
        )
    return errors


def check_bounds(text: str) -> list[str]:
    """`bounds --eta 0.9`: one CSV row with the ceiling 2.5 and its verdict."""
    rows = list(csv.DictReader(text.splitlines()))
    if len(rows) != 1:
        return [f"bounds printed {len(rows)} rows, expected 1"]
    row = rows[0]
    errors = []
    if row.get("kind") != "eta" or float(row.get("value") or "nan") != BOUNDS_ETA:
        errors.append(f"bounds row {row!r} is not the eta={BOUNDS_ETA} row")
    if not abs(float(row.get("bound") or "nan") - BOUNDS_CEILING) <= 1e-12:
        errors.append(f"bound={row.get('bound')!r}, expected {BOUNDS_CEILING!r}")
    # 2.5 < 2 sqrt(2): a local model cannot fake the quantum maximum here
    if row.get("verdict") != "violation certifiable":
        errors.append(f"verdict={row.get('verdict')!r}, expected 'violation certifiable'")
    return errors
