"""Each benchmark check passes on real output and fails on a corrupted copy.

    python -m pytest blindbench
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from blindsim.cli import main  # noqa: E402

ROUNDS = 100_000


@pytest.fixture(scope="module")
def attack_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("attack") / "summary.json"
    assert main([
        "run", "--scenario", "double-ekert", "--protocol", "ekert",
        "--rounds", str(ROUNDS), "--seed", "17", "--out", str(out),
    ]) == 0
    return out.read_text()


@pytest.fixture(scope="module")
def sweep_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    assert main([
        "sweep", "--axis", "alpha", "--scenario", "double-ekert", "--start", "0.2",
        "--stop", "0.7", "--steps", "5", "--rounds", "50000", "--seed", "17", "--out", str(out),
    ]) == 0
    return out.read_text()


def _edit_summary(text, edit):
    summary = json.loads(text)
    edit(summary)
    return json.dumps(summary)


def test_attack_summary_passes(attack_text):
    assert checks.check_attack_summary(attack_text, ROUNDS) == []


@pytest.mark.parametrize("edit", [
    lambda s: s["monitors"]["eve_audit"].update(mismatched_outcomes=1),
    lambda s: s["chsh"].update(value=s["chsh"]["value"] + 10 * math.sqrt(18 / (ROUNDS / math.sqrt(2)))),
    lambda s: s["efficiency"].update(eta=s["efficiency"]["eta"] + 0.01),
    lambda s: s["efficiency"].update(eta_21=s["efficiency"]["eta_21"] - 0.02),
    lambda s: s["efficiency"].update(weak_side_rate=0.5),
    lambda s: s["efficiency"].update(eta=None),
    lambda s: s.update(rounds=ROUNDS + 1),
    lambda s: s["monitors"]["fair_sampling"].update(verdict="fail"),
    lambda s: s["monitors"]["fair_sampling"]["checks"][0].update(verdict="fail"),
    lambda s: s["monitors"]["fair_sampling"]["checks"][2]["cells"][0].update(hits=0),
    lambda s: s["monitors"]["fair_sampling"]["checks"][1].update(p_value=0.5),
    lambda s: s.pop("chsh"),
], ids=[
    "eve-mismatch", "chsh-10-sigma", "eta", "eta_21", "weak-rate", "eta-null", "rounds",
    "fair-overall-verdict", "fair-check-verdict", "fair-cells", "fair-p-value", "no-chsh",
])
def test_attack_summary_corruptions_fail(attack_text, edit):
    assert checks.check_attack_summary(_edit_summary(attack_text, edit), ROUNDS)


def test_attack_summary_rejects_nan(attack_text):
    text = _edit_summary(attack_text, lambda s: s["efficiency"].update(eta=float("nan")))
    assert "NaN" in text
    assert checks.check_attack_summary(text, ROUNDS)


def test_fair_sampling_flags_setting_dependent_rates(attack_text):
    report = json.loads(attack_text)["monitors"]["fair_sampling"]
    cell = report["checks"][0]["cells"][0]
    cell["hits"] = int(cell["trials"] * 0.8)  # Alice's rate at one setting drops from 0.85 to 0.8
    errors = checks.check_fair_sampling(report)
    assert any("rates depend on the setting" in e for e in errors)


@pytest.mark.parametrize("dof", range(1, 9))
def test_chi2_sf_matches_scipy(dof):
    stats = pytest.importorskip("scipy.stats")
    for x in (0.0, 0.3, 1.0, 2.5, 7.0, 20.0, 60.0):
        assert checks._chi2_sf(x, dof) == pytest.approx(stats.chi2.sf(x, dof), rel=1e-9, abs=1e-300)


def test_sweep_passes(sweep_text):
    assert checks.check_alpha_sweep(sweep_text, 0.2, 0.7, 5, 50000) == []


def _edit_sweep(text, edit):
    rows = list(csv.DictReader(text.splitlines()))
    edit(rows)
    lines = [",".join(rows[0].keys())] + [",".join(str(v) for v in r.values()) for r in rows]
    return "\n".join(lines) + "\n"


def _shift(field, sigmas):
    def edit(rows):
        alpha = float(rows[2]["alpha"])
        sd = checks.ekert_sigmas(alpha, 50000)[{"eta_estimate": "eta", "eta_21_estimate": "eta_21",
                                                 "weak_rate_estimate": "weak"}[field]]
        rows[2][field] = repr(float(rows[2][field]) + sigmas * sd)
    return edit


@pytest.mark.parametrize("edit", [
    _shift("eta_estimate", 6),
    _shift("eta_21_estimate", -6),
    _shift("weak_rate_estimate", 6),
    lambda rows: rows.pop(),
    lambda rows: rows[1].update(alpha=repr(float(rows[1]["alpha"]) + 1e-6)),
    lambda rows: rows[3].update(eta_estimate="nan"),
], ids=["eta", "eta_21", "weak-rate", "missing-row", "off-grid", "nan"])
def test_sweep_corruptions_fail(sweep_text, edit):
    assert checks.check_alpha_sweep(_edit_sweep(sweep_text, edit), 0.2, 0.7, 5, 50000)


def test_bounds_check(capsys):
    assert main(["bounds", "--eta", str(checks.BOUNDS_ETA)]) == 0
    text = capsys.readouterr().out
    assert checks.check_bounds(text) == []
    assert checks.check_bounds(text.replace("violation certifiable", "attack feasible"))
    assert checks.check_bounds(text.replace("2.5", "2.4"))
    assert checks.check_bounds(text + text.splitlines()[1] + "\n")
