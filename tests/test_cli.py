"""End-to-end CLI behavior: schemas, determinism, exit codes."""

from __future__ import annotations

import csv
import json
import math

import pytest

from blindsim.cli import main, write_summary

SQ2 = math.sqrt(2.0)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_run_summary_schema(tmp_path):
    out = tmp_path / "summary.json"
    rc = main([
        "run", "--scenario", "double-ekert", "--protocol", "ekert",
        "--rounds", "20000", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    d = _read_json(out)
    assert list(d.keys()) == [
        "scenario", "protocol", "rounds", "seed", "qber", "chsh",
        "efficiency", "monitors", "oracle",
    ]
    assert d["scenario"] == "double-ekert"
    assert d["qber"] is None
    assert d["chsh"]["value"] == pytest.approx(2.0 * SQ2, abs=0.1)
    assert len(d["chsh"]["pairs"]) == 4
    assert set(d["efficiency"]) == {"eta", "eta_21", "per_side", "weak_side_rate"}
    assert set(d["monitors"]) == {"fair_sampling", "eve_audit"}
    assert d["monitors"]["eve_audit"]["match_fraction"] == 1.0
    assert d["oracle"]["eta"] == pytest.approx(0.8535533905932737, abs=1e-12)
    assert d["oracle"]["chsh"] == pytest.approx(2.0 * SQ2, abs=1e-12)


def test_run_summary_bbm92_fields(tmp_path):
    out = tmp_path / "summary.json"
    rc = main([
        "run", "--scenario", "double-bbm92", "--protocol", "bbm92",
        "--rounds", "20000", "--seed", "4", "--out", str(out),
    ])
    assert rc == 0
    d = _read_json(out)
    assert d["qber"] == 0.0
    assert d["chsh"] is None
    assert d["efficiency"]["eta"] == 1.0
    assert d["efficiency"]["weak_side_rate"] is None
    assert d["oracle"]["qber"] == 0.0
    assert d["monitors"]["fair_sampling"]["verdict"] == "pass"


def test_run_byte_identical_across_runs_and_workers(tmp_path):
    paths = [tmp_path / f"s{i}.json" for i in range(3)]
    args = [
        "run", "--scenario", "double-ekert", "--protocol", "ekert",
        "--rounds", "30000", "--seed", "9",
    ]
    assert main(args + ["--out", str(paths[0])]) == 0
    assert main(args + ["--out", str(paths[1])]) == 0
    assert main(args + ["--out", str(paths[2]), "--workers", "3"]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]


def test_records_csv_columns(tmp_path):
    rec_path = tmp_path / "rounds.csv"
    rc = main([
        "run", "--scenario", "double-bbm92", "--protocol", "bbm92",
        "--rounds", "500", "--seed", "5",
        "--out", str(tmp_path / "s.json"), "--records", str(rec_path),
    ])
    assert rc == 0
    rows = _read_csv(rec_path)
    assert len(rows) == 500
    assert list(rows[0].keys()) == [
        "round", "theta_a", "theta_b", "outcome_a", "outcome_b", "weak_side",
    ]
    assert {r["weak_side"] for r in rows} == {"none"}


def test_records_eve_view_predictions_match_outcomes(tmp_path):
    rec_path = tmp_path / "rounds.csv"
    rc = main([
        "run", "--scenario", "double-ekert", "--protocol", "ekert",
        "--rounds", "800", "--seed", "6",
        "--out", str(tmp_path / "s.json"), "--records", str(rec_path), "--eve-view",
    ])
    assert rc == 0
    rows = _read_csv(rec_path)
    assert list(rows[0].keys())[-3:] == ["lambda", "eve_pred_a", "eve_pred_b"]
    for r in rows:
        assert r["eve_pred_a"] == r["outcome_a"]
        assert r["eve_pred_b"] == r["outcome_b"]
        assert 0.0 <= float(r["lambda"]) < math.pi
        assert r["weak_side"] in {"A", "B"}


def test_records_eve_view_single_blinding(tmp_path):
    rec_path = tmp_path / "rounds.csv"
    rc = main([
        "run", "--scenario", "single-blinding", "--protocol", "bbm92",
        "--rounds", "600", "--seed", "7",
        "--out", str(tmp_path / "s.json"), "--records", str(rec_path), "--eve-view",
    ])
    assert rc == 0
    rows = _read_csv(rec_path)
    for r in rows:
        # no hidden pulse state, no prediction for Alice's genuine photon
        assert r["lambda"] == ""
        assert r["eve_pred_a"] == ""
        assert r["eve_pred_b"] == r["outcome_b"]


def test_run_csv_summary_format(capsys):
    rc = main([
        "run", "--scenario", "honest", "--protocol", "bbm92",
        "--rounds", "2000", "--seed", "8", "--format", "csv",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "scenario" in keys
    assert "efficiency.eta" in keys
    assert "monitors.fair_sampling.verdict" in keys


def test_exit_code_domain_errors(capsys):
    rc = main([
        "run", "--scenario", "honest", "--protocol", "bbm92", "--rounds", "0",
    ])
    assert rc == 1
    assert "rounds" in capsys.readouterr().err
    rc = main([
        "run", "--scenario", "single-blinding", "--protocol", "ekert", "--rounds", "10",
    ])
    assert rc == 1
    assert "single-blinding" in capsys.readouterr().err
    rc = main([
        "sweep", "--axis", "delta", "--start", "0", "--stop", "1", "--steps", "0",
    ])
    assert rc == 1
    assert "delta" in capsys.readouterr().err
    rc = main(["bounds"])
    assert rc == 1
    assert "--eta" in capsys.readouterr().err


def test_exit_code_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "no-such", "--protocol", "bbm92"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--protocol", "bbm92"])
    assert exc.value.code == 2


def test_bounds_table(tmp_path):
    out = tmp_path / "bounds.csv"
    rc = main([
        "bounds", "--eta", "0.9", "0.8535533905932737", "0.5",
        "--eta-21", "0.8284271247461903", "--out", str(out),
    ])
    assert rc == 0
    rows = _read_csv(out)
    assert [r["kind"] for r in rows] == ["eta", "eta", "eta", "eta_21"]
    assert rows[0]["verdict"] == "violation certifiable"
    assert float(rows[0]["bound"]) == pytest.approx(2.5, abs=1e-12)
    assert rows[1]["verdict"] == "attack feasible"
    assert float(rows[1]["bound"]) == pytest.approx(2.0 * SQ2, abs=1e-12)
    assert rows[2]["verdict"] == "out of domain"
    assert rows[2]["bound"] == ""
    assert rows[3]["verdict"] == "attack feasible"


def test_sweep_delta_double_bbm92(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--axis", "delta", "--start", "0", "--stop", str(math.pi / 2.0),
        "--steps", "3", "--scenario", "double-bbm92",
        "--rounds", "20000", "--seed", "11", "--out", str(out),
    ])
    assert rc == 0
    rows = _read_csv(out)
    assert list(rows[0].keys()) == ["delta", "n_coincidences", "estimate", "stderr", "oracle"]
    assert len(rows) == 3
    assert float(rows[0]["estimate"]) == -1.0
    assert float(rows[0]["oracle"]) == -1.0
    assert float(rows[1]["estimate"]) == pytest.approx(0.0, abs=0.05)
    assert float(rows[1]["oracle"]) == pytest.approx(0.0, abs=1e-9)
    assert float(rows[2]["estimate"]) == 1.0
    assert float(rows[2]["oracle"]) == pytest.approx(1.0, abs=1e-9)


def test_sweep_delta_honest_tracks_cosine(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--axis", "delta", "--start", "0.2", "--stop", "1.2",
        "--steps", "3", "--scenario", "honest",
        "--rounds", "20000", "--seed", "12", "--out", str(out),
    ])
    assert rc == 0
    for row in _read_csv(out):
        d = float(row["delta"])
        assert float(row["oracle"]) == pytest.approx(-math.cos(2.0 * d), abs=1e-12)
        assert float(row["estimate"]) == pytest.approx(
            float(row["oracle"]), abs=5.0 * float(row["stderr"]) + 1e-9
        )


def test_sweep_alpha(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--axis", "alpha", "--start", "0.3", "--stop", "0.6",
        "--steps", "2", "--scenario", "double-ekert",
        "--rounds", "30000", "--seed", "13", "--out", str(out),
    ])
    assert rc == 0
    rows = _read_csv(out)
    assert list(rows[0].keys()) == [
        "alpha",
        "eta_estimate", "eta_stderr", "eta_oracle",
        "eta_21_estimate", "eta_21_stderr", "eta_21_oracle",
        "weak_rate_estimate", "weak_rate_oracle",
    ]
    for row in rows:
        a = float(row["alpha"])
        assert float(row["eta_oracle"]) == pytest.approx((1.0 + 4.0 * a / math.pi) / 2.0, abs=1e-12)
        assert float(row["eta_estimate"]) == pytest.approx(
            float(row["eta_oracle"]), abs=5.0 * float(row["eta_stderr"])
        )
        assert float(row["weak_rate_estimate"]) == pytest.approx(
            float(row["weak_rate_oracle"]), abs=0.01
        )


def test_sweep_validation_errors(capsys):
    rc = main([
        "sweep", "--axis", "alpha", "--start", "0.3", "--stop", "0.6",
        "--steps", "2", "--scenario", "honest",
    ])
    assert rc == 1
    assert "double-ekert" in capsys.readouterr().err
    rc = main([
        "sweep", "--axis", "delta", "--start", "0.0", "--stop", "9.0", "--steps", "2",
    ])
    assert rc == 1
    assert "delta" in capsys.readouterr().err
    rc = main([
        "sweep", "--axis", "delta", "--start", "1.0", "--stop", "0.0", "--steps", "2",
    ])
    assert rc == 1
    assert "monotone" in capsys.readouterr().err
    rc = main([
        "sweep", "--axis", "delta", "--start", "0.0", "--stop", "1.0", "--steps", "2",
        "--scenario", "single-blinding",
    ])
    assert rc == 1
    assert "single-blinding" in capsys.readouterr().err


def test_bounds_rejects_non_finite_values(capsys):
    # a NaN efficiency must not certify a violation
    rc = main(["bounds", "--eta", "nan", "--eta-21", "nan"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "--eta" in captured.err
    assert captured.out == ""
    rc = main(["bounds", "--eta", "0.9", "--eta-21", "inf"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "--eta-21" in captured.err
    assert captured.out == ""


def test_bounds_json_format(capsys):
    rc = main(["bounds", "--eta-21", "0.7", "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["kind"] == "eta_21"
    assert rows[0]["bound"] == pytest.approx(4.0 / 0.7 - 2.0, abs=1e-12)
    assert rows[0]["verdict"] == "attack feasible"


def test_records_dash_writes_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main([
        "run", "--scenario", "double-bbm92", "--protocol", "bbm92",
        "--rounds", "100", "--seed", "5",
        "--out", str(tmp_path / "s.json"), "--records", "-",
    ])
    assert rc == 0
    assert not (tmp_path / "-").exists()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "round,theta_a,theta_b,outcome_a,outcome_b,weak_side"
    assert len(lines) == 101


def test_records_and_summary_cannot_share_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main([
        "run", "--scenario", "honest", "--protocol", "bbm92",
        "--rounds", "100", "--records", "-",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--records" in err and "--out" in err
    assert not (tmp_path / "-").exists()


def test_write_summary_refuses_nan(tmp_path):
    path = tmp_path / "s.json"
    with pytest.raises(ValueError):
        write_summary({"eta": float("nan")}, str(path), "json")
    assert not path.exists()


@pytest.mark.parametrize("seed", range(1, 21))
def test_tiny_run_has_inconclusive_fair_sampling(capsys, seed):
    # four rounds cannot cover every configured setting; the monitor must
    # still report on the configured cells instead of failing the run
    rc = main([
        "run", "--scenario", "honest", "--protocol", "bbm92",
        "--rounds", "4", "--seed", str(seed),
    ])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert d["monitors"]["fair_sampling"]["verdict"] == "inconclusive"
