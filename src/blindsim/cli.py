"""Command-line front end: run sessions, sweep curves, print efficiency bounds.

Exit codes: 0 success, 1 domain error (the message names the offending
parameter), 2 usage error (bad flags, unknown subcommand).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import enum
import json
import math
import sys

import numpy as np

from .analysis import (
    QUANTUM_CHSH_MAX,
    chsh_bound_conditional,
    chsh_bound_detection,
    estimate_efficiencies,
    fair_sampling_monitor,
    oracle_block,
    oracle_corr_fn,
    oracle_eta,
    oracle_eta_conditional,
    oracle_weak_detection_prob,
    weak_side_detection_rate,
)
from .optics import wrap_diff
from .protocol import (
    ProtocolConfig,
    ProtocolKind,
    chsh_score,
    correlation_estimate,
    eve_prediction_report,
    run_session,
    sift_bbm92,
)
from .sources import (
    DOUBLE_BLIND_KINDS,
    ScenarioConfig,
    ScenarioKind,
    WeakSide,
    WeakSidePolicy,
    intercept_click_codes,
    predict_outcome_codes,
)

_HALF_PI = math.pi / 2.0


def _jsonify(obj):
    """Recursively convert to plain JSON-serializable types (deterministic)."""
    if isinstance(obj, enum.Enum):
        return _jsonify(obj.value)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def build_summary(records) -> dict:
    """Aggregate one session into the JSON summary structure."""
    pc, sc = records.protocol, records.scenario

    qber = None
    if pc.protocol is ProtocolKind.BBM92:
        _, qber = sift_bbm92(records)

    chsh = None
    if pc.protocol is ProtocolKind.EKERT:
        result = chsh_score(records)
        chsh = {
            "value": result.value,
            "stderr": result.stderr,
            "pairs": [
                {
                    "theta_a": p.theta_a,
                    "theta_b": p.theta_b,
                    "value": p.value,
                    "stderr": p.stderr,
                    "n": p.n_coincidences,
                }
                for p in result.pairs
            ],
        }

    eff = estimate_efficiencies(records, n_emitted=len(records))
    summary = {
        "scenario": sc.kind.value,
        "protocol": pc.protocol.value,
        "rounds": pc.rounds,
        "seed": pc.seed,
        "qber": qber,
        "chsh": chsh,
        "efficiency": {
            "eta": eff.eta,
            "eta_21": eff.eta_21,
            "per_side": {"a": eff.rate_a, "b": eff.rate_b},
            "weak_side_rate": weak_side_detection_rate(records),
        },
        "monitors": {
            "fair_sampling": fair_sampling_monitor(records).to_dict(),
            "eve_audit": eve_prediction_report(records),
        },
        "oracle": oracle_block(records),
    }
    return _jsonify(summary)


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        rows = []
        for k, v in obj.items():
            rows.extend(_flatten(v, f"{prefix}{k}."))
        return rows
    if isinstance(obj, list):
        rows = []
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}."))
        return rows
    return [(prefix[:-1], "" if obj is None else obj)]


@contextlib.contextmanager
def _output(path):
    """Text stream for an output path: stdout for None or "-", else the file, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_table(rows, fieldnames, path, fmt):
    """Emit a list of row dicts as CSV (default) or JSON."""
    if fmt == "json":
        text = json.dumps(_jsonify(rows), indent=2, allow_nan=False) + "\n"
        with _output(path) as out:
            out.write(text)
        return
    with _output(path) as out:
        writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in fieldnames})


def write_summary(summary: dict, path, fmt: str) -> None:
    if fmt == "json":
        # strict JSON: a NaN or infinity raises ValueError before the file is opened
        text = json.dumps(summary, indent=2, allow_nan=False) + "\n"
        with _output(path) as out:
            out.write(text)
        return
    with _output(path) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in _flatten(summary):
            writer.writerow([key, value])


def write_records_csv(records, path, eve_view: bool = False) -> None:
    """Dump per-round records.

    Default columns: round, theta_a, theta_b, outcome_a, outcome_b,
    weak_side. --eve-view appends lambda, eve_pred_a, eve_pred_b; those cells
    stay empty for rounds/scenarios where Eve holds no such information.
    A path of "-" writes to stdout.
    """
    sc = records.scenario
    fields = ["round", "theta_a", "theta_b", "outcome_a", "outcome_b", "weak_side"]
    if eve_view:
        fields += ["lambda", "eve_pred_a", "eve_pred_b"]

    lam_txt = pred_a_txt = pred_b_txt = None
    if eve_view:
        n = len(records)
        if sc.kind in DOUBLE_BLIND_KINDS:
            pred_a, pred_b = predict_outcome_codes(
                records.hidden_lambda, records.theta_a, records.theta_b, sc, records.weak_side
            )
            lam_txt = [f"{v:.9g}" for v in records.hidden_lambda]
            pred_a_txt = [str(int(v)) for v in pred_a]
            pred_b_txt = [str(int(v)) for v in pred_b]
        elif sc.kind is ScenarioKind.SINGLE_BLINDING:
            pred_b = intercept_click_codes(
                records.eve_basis, records.eve_outcome, records.theta_b, sc
            )
            lam_txt = [""] * n
            pred_a_txt = [""] * n
            pred_b_txt = [str(int(v)) for v in pred_b]
        else:
            lam_txt = pred_a_txt = pred_b_txt = [""] * n

    side_label = {int(side): side.label for side in WeakSide}
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        theta_a = records.theta_a
        theta_b = records.theta_b
        out_a = records.outcome_a
        out_b = records.outcome_b
        weak = records.weak_side
        for i in range(len(records)):
            row = [
                i,
                f"{theta_a[i]:.9g}",
                f"{theta_b[i]:.9g}",
                int(out_a[i]),
                int(out_b[i]),
                side_label[int(weak[i])],
            ]
            if eve_view:
                row += [lam_txt[i], pred_a_txt[i], pred_b_txt[i]]
            writer.writerow(row)


def _scenario_from_args(args) -> ScenarioConfig:
    kwargs = {
        "kind": args.scenario,
        "weak_side_policy": args.weak_side,
        "depolarize_prob": args.depolarize,
    }
    if args.alpha is not None:
        kwargs["alpha"] = args.alpha
    return ScenarioConfig(**kwargs)


def cmd_run(args) -> int:
    if args.records == "-" and args.out == "-":
        raise ValueError("--records - and --out - both write to stdout; send one of them to a file")
    scenario_cfg = _scenario_from_args(args)
    protocol_cfg = ProtocolConfig(protocol=args.protocol, rounds=args.rounds, seed=args.seed)
    records = run_session(protocol_cfg, scenario_cfg, workers=args.workers)
    summary = build_summary(records)
    write_summary(summary, args.out, args.format)
    if args.records:
        write_records_csv(records, args.records, eve_view=args.eve_view)
    return 0


def _sweep_grid(args) -> np.ndarray:
    if args.steps < 1:
        raise ValueError(f"{args.axis} sweep grid is empty (steps={args.steps}, need >= 1)")
    if not args.stop >= args.start:
        raise ValueError(f"{args.axis} sweep grid must be monotone: start <= stop")
    return np.linspace(args.start, args.stop, args.steps)


def cmd_sweep(args) -> int:
    grid = _sweep_grid(args)
    rows = []
    if args.axis == "delta":
        scenario_kind = ScenarioKind(args.scenario)
        if scenario_kind is ScenarioKind.SINGLE_BLINDING:
            raise ValueError("scenario single-blinding has no analyzer-offset curve to sweep")
        if args.start < -_HALF_PI - 1e-12 or args.stop > _HALF_PI + 1e-12:
            raise ValueError("delta sweep grid must lie within [-pi/2, pi/2]")
        for i, d in enumerate(grid):
            delta = float(d)
            scenario_cfg = _scenario_from_args(args)
            protocol_cfg = ProtocolConfig(
                protocol="bbm92",
                rounds=args.rounds,
                seed=args.seed + i,
                alice_settings=(0.0,),
                bob_settings=(delta,),
            )
            records = run_session(protocol_cfg, scenario_cfg, workers=args.workers)
            est = correlation_estimate(records, 0.0, delta)
            corr_fn = oracle_corr_fn(scenario_cfg)
            rows.append(
                {
                    "delta": delta,
                    "n_coincidences": est.n_coincidences,
                    "estimate": est.value,
                    "stderr": est.stderr,
                    "oracle": corr_fn(wrap_diff(delta)),
                }
            )
        fieldnames = ["delta", "n_coincidences", "estimate", "stderr", "oracle"]
    else:
        if ScenarioKind(args.scenario) is not ScenarioKind.DOUBLE_BLIND_EKERT:
            raise ValueError("alpha sweeps apply to scenario double-ekert only")
        for i, a in enumerate(grid):
            alpha = float(a)
            scenario_cfg = ScenarioConfig(
                kind=ScenarioKind.DOUBLE_BLIND_EKERT,
                alpha=alpha,
                weak_side_policy=args.weak_side,
            )
            protocol_cfg = ProtocolConfig(protocol="ekert", rounds=args.rounds, seed=args.seed + i)
            records = run_session(protocol_cfg, scenario_cfg, workers=args.workers)
            eff = estimate_efficiencies(records, n_emitted=len(records))
            rows.append(
                {
                    "alpha": alpha,
                    "eta_estimate": eff.eta,
                    "eta_stderr": eff.eta_stderr,
                    "eta_oracle": oracle_eta(alpha),
                    "eta_21_estimate": eff.eta_21,
                    "eta_21_stderr": eff.eta_21_stderr,
                    "eta_21_oracle": oracle_eta_conditional(alpha),
                    "weak_rate_estimate": weak_side_detection_rate(records),
                    "weak_rate_oracle": oracle_weak_detection_prob(alpha),
                }
            )
        fieldnames = [
            "alpha",
            "eta_estimate",
            "eta_stderr",
            "eta_oracle",
            "eta_21_estimate",
            "eta_21_stderr",
            "eta_21_oracle",
            "weak_rate_estimate",
            "weak_rate_oracle",
        ]
    _write_table(rows, fieldnames, args.out, args.format)
    return 0


def cmd_bounds(args) -> int:
    eta_values = args.eta or []
    eta_21_values = args.eta_21 or []
    if not eta_values and not eta_21_values:
        raise ValueError("provide at least one --eta or --eta-21 value")
    for flag, values in (("--eta", eta_values), ("--eta-21", eta_21_values)):
        for v in values:
            if not math.isfinite(v):
                raise ValueError(f"{flag} values must be finite, got {v}")
    rows = []
    for kind, values, fn in (
        ("eta", eta_values, chsh_bound_detection),
        ("eta_21", eta_21_values, chsh_bound_conditional),
    ):
        for v in values:
            try:
                bound = fn(v)
            except ValueError as exc:
                rows.append(
                    {"kind": kind, "value": v, "bound": None, "verdict": "out of domain", "note": str(exc)}
                )
                continue
            if QUANTUM_CHSH_MAX <= bound + 1e-12:
                verdict = "attack feasible"
            else:
                verdict = "violation certifiable"
            rows.append({"kind": kind, "value": v, "bound": bound, "verdict": verdict, "note": ""})
    _write_table(rows, ["kind", "value", "bound", "verdict", "note"], args.out, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindsim",
        description="Detector-blinding attack simulator for entanglement-based QKD",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one session and emit a summary")
    run.add_argument(
        "--scenario", required=True, choices=[k.value for k in ScenarioKind],
        help="source between the stations",
    )
    run.add_argument(
        "--protocol", required=True, choices=[p.value for p in ProtocolKind],
        help="protocol whose settings and post-processing to use",
    )
    run.add_argument("--rounds", type=int, default=100_000, help="emitted rounds (default 100000)")
    run.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    run.add_argument("--alpha", type=float, default=None, help="weak-pulse tuning angle, radians")
    run.add_argument(
        "--weak-side", default="random", choices=[p.value for p in WeakSidePolicy],
        help="which side gets the weak pulse (double-ekert only)",
    )
    run.add_argument("--depolarize", type=float, default=0.0, help="honest-pair depolarization probability")
    run.add_argument("--out", default="-", help="summary destination (default stdout)")
    run.add_argument("--records", default=None, help="optional per-round CSV dump path ('-' for stdout)")
    run.add_argument(
        "--eve-view", action="store_true",
        help="append lambda and Eve's predictions to the records dump",
    )
    run.add_argument("--format", default="json", choices=["json", "csv"], help="summary format")
    run.add_argument("--workers", type=int, default=1, help="parallel chunk workers (output is identical)")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="sweep an analyzer offset or tuning-angle grid")
    sweep.add_argument("--axis", required=True, choices=["delta", "alpha"], help="grid variable")
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True, help="number of grid points (inclusive ends)")
    sweep.add_argument(
        "--scenario", default="double-bbm92", choices=[k.value for k in ScenarioKind],
        help="source to sweep (delta axis; alpha axis is double-ekert)",
    )
    sweep.add_argument("--rounds", type=int, default=100_000, help="rounds per grid point")
    sweep.add_argument("--seed", type=int, default=0, help="base seed; point i uses seed + i")
    sweep.add_argument("--alpha", type=float, default=None, help="tuning angle for delta sweeps of double-ekert")
    sweep.add_argument(
        "--weak-side", default="random", choices=[p.value for p in WeakSidePolicy]
    )
    sweep.add_argument("--depolarize", type=float, default=0.0)
    sweep.add_argument("--out", default="-", help="table destination (default stdout)")
    sweep.add_argument("--format", default="csv", choices=["csv", "json"], help="table format")
    sweep.add_argument("--workers", type=int, default=1)
    sweep.set_defaults(func=cmd_sweep)

    bounds = sub.add_parser("bounds", help="local-model CHSH ceilings at given efficiencies")
    bounds.add_argument("--eta", type=float, nargs="*", default=[], help="detection efficiencies")
    bounds.add_argument(
        "--eta-21", dest="eta_21", type=float, nargs="*", default=[],
        help="conditional (coincidence/singles) efficiencies",
    )
    bounds.add_argument("--out", default="-", help="table destination (default stdout)")
    bounds.add_argument("--format", default="csv", choices=["csv", "json"], help="table format")
    bounds.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
