"""End-to-end CLI behavior: schemas, determinism, exit codes."""

from __future__ import annotations

import ast
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import blindsim
from blindsim import cli
from blindsim.cli import main, write_records_csv, write_summary
from blindsim.protocol import ProtocolConfig
from blindsim.sources import CHUNK_ROUNDS, ScenarioConfig

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


def test_exit_code_domain_errors(tmp_path, capsys):
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
    # the records writer refuses the pairing on its own, before opening the output
    with pytest.raises(ValueError, match="single-blinding"):
        write_records_csv(
            ProtocolConfig(protocol="ekert", rounds=10), ScenarioConfig(kind="single-blinding"),
            str(tmp_path / "rounds.csv"),
        )
    assert not (tmp_path / "rounds.csv").exists()
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


def test_records_and_summary_cannot_share_a_file(tmp_path, monkeypatch, capsys):
    # refused before simulating: the dump would overwrite the summary
    def no_session(*args, **kwargs):
        raise AssertionError("simulated a session")

    monkeypatch.setattr(cli, "run_session", no_session)
    path = tmp_path / "out.txt"
    path.write_text("kept\n")
    monkeypatch.chdir(tmp_path)
    for out, records in ((str(path), str(path)), ("out.txt", str(tmp_path / "." / "out.txt"))):
        rc = main([
            "run", "--scenario", "honest", "--protocol", "bbm92", "--rounds", "1000",
            "--out", out, "--records", records,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--records" in err and "--out" in err
    assert path.read_text() == "kept\n"


def test_unwritable_output_is_a_domain_error(tmp_path, capsys):
    base = ["run", "--scenario", "honest", "--protocol", "bbm92", "--rounds", "1000"]
    for flags in (
        ["--out", str(tmp_path / "missing" / "s.json")],
        ["--out", str(tmp_path)],
        ["--out", os.devnull, "--records", str(tmp_path / "missing" / "rounds.csv")],
    ):
        rc = main(base + flags)
        assert rc == 1, flags
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, flags
    assert not (tmp_path / "missing").exists()


def _no_session(*args, **kwargs):
    raise AssertionError("a refused command simulated a session")


def test_unwritable_records_path_fails_before_simulating(tmp_path, monkeypatch, capsys):
    # either unwritable output path fails the command before it simulates,
    # and no file that the command created is left behind
    monkeypatch.setattr(cli, "run_session", _no_session)
    base = ["run", "--scenario", "honest", "--protocol", "bbm92", "--rounds", "1000"]
    out, records, missing = tmp_path / "s.json", tmp_path / "r.csv", tmp_path / "missing"
    for flags, named in (
        (["--out", str(out), "--records", str(missing / "r.csv")], "r.csv"),
        (["--out", str(missing / "s.json"), "--records", str(records)], "s.json"),
    ):
        rc = main(base + flags)
        assert rc == 1, flags
        assert named in capsys.readouterr().err
        assert not out.exists() and not records.exists(), flags
    # a file that was there before stays as it was
    records.write_text("kept\n")
    assert main(base + ["--out", str(tmp_path), "--records", str(records)]) == 1
    assert records.read_text() == "kept\n"
    records.unlink()
    # a bad pairing is refused before the records dump is opened
    rc = main([
        "run", "--scenario", "single-blinding", "--protocol", "ekert", "--rounds", "1000",
        "--out", str(out), "--records", str(records),
    ])
    assert rc == 1
    assert "single-blinding" in capsys.readouterr().err
    assert not records.exists() and not out.exists()


def test_sweep_refuses_an_unwritable_out_before_simulating(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_session", _no_session)
    rc = main([
        "sweep", "--axis", "delta", "--scenario", "double-bbm92", "--start", "0", "--stop", "1",
        "--steps", "3", "--rounds", "1000", "--out", str(tmp_path / "missing" / "x.csv"),
    ])
    assert rc == 1
    assert "x.csv" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_refuses_a_bad_worker_count_before_opening_out(tmp_path, monkeypatch, capsys):
    # as run does: no session runs, and no --out file is left behind
    monkeypatch.setattr(cli, "run_session", _no_session)
    rc = main([
        "sweep", "--axis", "alpha", "--scenario", "double-ekert", "--start", "0.2", "--stop", "0.7",
        "--steps", "3", "--rounds", "1000", "--workers", "0", "--out", str(tmp_path / "new.csv"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "workers" in err, err
    assert list(tmp_path.iterdir()) == []


def test_sweep_refuses_a_bad_grid_point_before_simulating(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_session", _no_session)
    for needle, argv in (
        ("0.8", ["--axis", "alpha", "--scenario", "double-ekert", "--start", "0.2", "--stop", "0.9",
                 "--steps", "8"]),
        ("seed", ["--axis", "delta", "--scenario", "honest", "--seed", str(2**64 - 2), "--start", "0",
                  "--stop", "1", "--steps", "3"]),
    ):
        rc = main(["sweep", "--rounds", "1000", "--out", os.devnull] + argv)
        assert rc == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err, err


def test_silently_dropped_flags_are_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_session", _no_session)
    out = tmp_path / "out.txt"
    for flag, argv in (
        ("--alpha", ["sweep", "--axis", "alpha", "--scenario", "double-ekert", "--start", "0.3",
                     "--stop", "0.6", "--steps", "2", "--alpha", "0.1"]),
        ("--eve-view", ["run", "--scenario", "double-ekert", "--protocol", "ekert", "--eve-view"]),
        ("--alpha", ["run", "--scenario", "double-bbm92", "--protocol", "bbm92", "--alpha", "nan"]),
        ("--alpha", ["run", "--scenario", "honest", "--protocol", "bbm92", "--alpha", "5"]),
        ("--depolarize", ["run", "--scenario", "double-ekert", "--protocol", "ekert", "--depolarize", "0.5"]),
        ("--depolarize", ["run", "--scenario", "double-bbm92", "--protocol", "ekert", "--depolarize", "0.1"]),
        ("--alpha", ["sweep", "--axis", "delta", "--scenario", "double-bbm92", "--start", "0", "--stop", "1",
                     "--steps", "2", "--alpha", "9"]),
        ("--depolarize", ["sweep", "--axis", "delta", "--scenario", "double-ekert", "--start", "0",
                          "--stop", "1", "--steps", "2", "--depolarize", "0.2"]),
        ("--depolarize", ["sweep", "--axis", "alpha", "--scenario", "double-ekert", "--start", "0.3",
                          "--stop", "0.6", "--steps", "2", "--depolarize", "0.2"]),
    ):
        rc = main(argv + ["--out", str(out)])
        assert rc == 1, flag
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err, flag
        assert not out.exists(), flag


def test_cli_imports_no_protocol_internals():
    # the CLI reads sessions through protocol's public API only
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
    ]
    assert ("protocol", "session_chunks") in imported
    private = [name for module, name in imported if module in ("protocol", "blindsim.protocol") and name.startswith("_")]
    assert private == []
    assert "CHUNK_ROUNDS" not in [name for _, name in imported]


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


def test_summary_with_fair_sampling_never_loads_scipy():
    code = (
        "import os, sys\n"
        "from blindsim.cli import main\n"
        "rc = main(['run', '--scenario', 'double-ekert', '--protocol', 'ekert',"
        " '--rounds', '20000', '--out', os.devnull])\n"
        "assert rc == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(blindsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _records_dump(path, rounds, *extra):
    """Run a seed-3 double-ekert Ekert session with an --eve-view records dump at path."""
    rc = main([
        "run", "--scenario", "double-ekert", "--protocol", "ekert", "--rounds", str(rounds),
        "--seed", "3", "--out", os.devnull, "--records", str(path), "--eve-view", *extra,
    ])
    assert rc == 0


def test_records_dump_memory_does_not_grow_with_rounds(tmp_path):
    # the writer simulates, writes and drops one chunk at a time; a dump that
    # kept the session's columns would grow by 13 bytes per round, and more
    # for their text
    peaks = []
    for chunks in (2, 8):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _records_dump(tmp_path / "rounds.csv", chunks * CHUNK_ROUNDS)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2 * 2**20, peaks


def test_records_dump_identical_for_any_worker_count(tmp_path):
    paths = [tmp_path / f"rounds{workers}.csv" for workers in (1, 3)]
    for path, workers in zip(paths, (1, 3)):
        _records_dump(path, 3 * CHUNK_ROUNDS + 17, "--workers", str(workers))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_records_dump_rows_do_not_depend_on_the_round_count(tmp_path):
    short, long = tmp_path / "short.csv", tmp_path / "long.csv"
    _records_dump(short, 1_000)
    _records_dump(long, 70_000)
    with open(long) as fh:
        head = [next(fh) for _ in range(1_001)]
    assert short.read_text() == "".join(head)
