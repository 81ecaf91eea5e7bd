"""Command-line front end: run sessions, sweep curves, print efficiency bounds.

Exit codes: 0 success, 1 domain error or unwritable output (the message names
the parameter or path at fault), 2 usage error (bad flags, unknown subcommand).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import enum
import itertools
import json
import math
import os
import sys

import numpy as np

from .analysis import (
    QUANTUM_CHSH_MAX,
    chsh_bound_conditional,
    chsh_bound_detection,
    estimate_efficiencies,
    expected_counts,
    fair_sampling_monitor,
    oracle_block,
    weak_side_detection_rate,
)
from .optics import Outcome
from .protocol import (
    ProtocolConfig,
    ProtocolKind,
    SessionCounts,
    bbm92_qber,
    chsh_score,
    correlation_estimate,
    eve_prediction_report,
    run_session,
    session_chunks,
)
from .sources import (
    DOUBLE_BLIND_KINDS,
    ScenarioConfig,
    ScenarioKind,
    WeakSide,
    WeakSidePolicy,
    predict_outcome_codes,
)

_HALF_PI = math.pi / 2.0

# glibc mallopt parameters. M_TOP_PAD: freed bytes the heap keeps at its top
# instead of returning them to the OS; 32 MB holds several chunks' worth of
# arrays. M_MMAP_THRESHOLD: allocations at least this large get their own
# mapping, returned to the OS when freed; 4 MB is eight 65536-round float64
# columns, so every per-chunk array comes from the heap.
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3
_HEAP_TOP_PAD = 32 << 20
_MMAP_THRESHOLD = 4 << 20


def _keep_freed_heap() -> None:
    """Let the heap keep freed memory for the next chunk (Linux; elsewhere a no-op).

    A session streams 65536-round chunks, and each chunk frees all its
    arrays before the next one allocates the same sizes again. By default
    glibc hands the freed top of the heap back to the OS each time, so
    every chunk faults its pages in afresh: about 1 700 page faults per
    double-ekert chunk with the Eve audit. Setting M_TOP_PAD also freezes
    glibc's sliding mmap threshold, so the threshold is set explicitly
    too: otherwise whether a 512 KB chunk array is mapped afresh each
    chunk would depend on what the process allocated and freed before.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes  # only the commands that simulate sessions load it

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


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

    qber = bbm92_qber(records) if pc.protocol is ProtocolKind.BBM92 else None

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
        "oracle": oracle_block(pc, sc),
    }
    return _jsonify(summary)


def _flatten(obj, prefix=""):
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [row for k, v in items for row in _flatten(v, f"{prefix}{k}.")]
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
        write_summary(_jsonify(rows), path, "json")
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


# a function of its own because tracemalloc finds the line of each allocation
# by scanning the allocating function's line table: inside the long body of
# write_records_csv, a traced dump took twice as long as the per-row f-string
def _format_rows(row_format: str, columns) -> str:
    """One %-format of equal-length columns, interleaved row by row; row_format formats one row."""
    return (row_format * len(columns[0])) % tuple(itertools.chain.from_iterable(zip(*columns)))


def write_records_csv(
    protocol_cfg: ProtocolConfig, scenario_cfg: ScenarioConfig, path, eve_view: bool = False
) -> None:
    """Dump the per-round records of SessionRecords.simulate(protocol_cfg, scenario_cfg).

    Default columns: round, theta_a, theta_b, outcome_a, outcome_b,
    weak_side. --eve-view appends lambda, eve_pred_a, eve_pred_b; those cells
    stay empty for rounds/scenarios where Eve holds no such information.
    A path of "-" writes to stdout. Every per-round value depends only on
    (seed, chunk index, config), so each chunk of session_chunks is
    simulated again, written and dropped: memory does not grow with the
    round count. A bad pairing raises ValueError before the file is opened.
    """
    pc, sc = protocol_cfg, scenario_cfg
    chunks = session_chunks(pc, sc)
    alice, bob = np.asarray(pc.alice_settings), np.asarray(pc.bob_settings)
    lam_view = eve_view and sc.kind in DOUBLE_BLIND_KINDS
    fields = ["round", "theta_a", "theta_b", "outcome_a", "outcome_b", "weak_side"]
    if eve_view:
        fields += ["lambda", "eve_pred_a", "eve_pred_b"]

    # the text of every value a column but round and lambda takes, looked up
    # by code: setting pairs by a_idx * len(bob) + b_idx, outcomes and weak
    # side by their flat cell, Eve's predicted pair likewise
    codes = range(int(Outcome.MINUS), int(Outcome.DOUBLE_CLICK) + 1)

    def cell_text(oa, ob, side):
        text = f"{oa},{ob},{side.label}"
        if not eve_view or lam_view:
            return text
        # Eve holds no lambda here; under single blinding her forwarded pulse
        # decides Bob's click, so she predicts his outcome exactly
        return text + (f",,,{ob}" if sc.kind is ScenarioKind.SINGLE_BLINDING else ",,,")

    pair_txt = np.array([f"{a:.9g},{b:.9g}" for a in alice for b in bob], dtype=object)
    cell_txt = np.array(
        [cell_text(oa, ob, side) for oa in codes for ob in codes for side in WeakSide], dtype=object
    )
    pred_txt = np.array([f"{pa},{pb}" for pa in codes for pb in codes], dtype=object)

    row_format = "%d,%s,%s,%.9g,%s\n" if lam_view else "%d,%s,%s\n"
    with _output(path) as fh:
        fh.write(",".join(fields) + "\n")
        lo = 0
        for a_idx, b_idx, out_a, out_b, weak, lam, _ in chunks:
            rounds = range(lo, lo + a_idx.size)
            lo = rounds.stop
            pairs = pair_txt.take(a_idx * bob.size + b_idx).tolist()
            cells = cell_txt.take(((out_a + 1) * 4 + out_b + 1) * 3 + weak).tolist()
            columns = [rounds, pairs, cells]
            if lam_view:
                pred_a, pred_b = predict_outcome_codes(lam, alice.take(a_idx), bob.take(b_idx), sc, weak)
                columns += [lam.tolist(), pred_txt.take((pred_a + 1) * 4 + pred_b + 1).tolist()]
            fh.write(_format_rows(row_format, columns))


def _scenario_from_args(args) -> ScenarioConfig:
    """The scenario the flags name; a flag that the scenario would ignore raises ValueError."""
    kind = ScenarioKind(args.scenario)
    if args.alpha is not None and kind is not ScenarioKind.DOUBLE_BLIND_EKERT:
        raise ValueError(f"--alpha tunes the weak pulse of scenario double-ekert; {kind.value} has none")
    if args.depolarize != 0.0 and kind in DOUBLE_BLIND_KINDS:
        raise ValueError(f"--depolarize applies to genuine pairs; scenario {kind.value} emits none")
    kwargs = {
        "kind": kind,
        "weak_side_policy": args.weak_side,
        "depolarize_prob": args.depolarize,
    }
    if args.alpha is not None:
        kwargs["alpha"] = args.alpha
    return ScenarioConfig(**kwargs)


def _probe_outputs(*paths) -> None:
    """Open each output file path for append, which truncates nothing.

    An unwritable path raises OSError, and the files that the probe created
    before it are removed, so a refused command leaves none behind.
    """
    created = []
    try:
        for path in paths:
            if path not in (None, "-"):
                new = not os.path.exists(path)
                open(path, "a").close()
                if new:
                    created.append(path)
    except OSError:
        for path in created:
            os.remove(path)
        raise


def cmd_run(args) -> int:
    if args.eve_view and not args.records:
        raise ValueError("--eve-view adds columns to the --records dump; give --records too")
    if args.records == "-" and args.out == "-":
        raise ValueError("--records - and --out - both write to stdout; send one of them to a file")
    if args.records not in (None, "-") and args.out != "-":
        if os.path.realpath(args.records) == os.path.realpath(args.out):
            raise ValueError(f"--records and --out both name {args.out}; send them to different files")
    scenario_cfg = _scenario_from_args(args)
    protocol_cfg = ProtocolConfig(protocol=args.protocol, rounds=args.rounds, seed=args.seed)
    # a bad worker count or pairing, then an unwritable output path, fail
    # before anything is simulated
    session_chunks(protocol_cfg, scenario_cfg, args.workers)
    _probe_outputs(args.records, args.out)
    _keep_freed_heap()
    # the summary needs only the count tensor and the Eve audit, reduced chunk
    # by chunk; the records dump simulates the chunks again, one at a time
    session = run_session(protocol_cfg, scenario_cfg, workers=args.workers)
    write_summary(build_summary(session), args.out, args.format)
    if args.records:
        write_records_csv(protocol_cfg, scenario_cfg, args.records, eve_view=args.eve_view)
    return 0


def _sweep_grid(args) -> np.ndarray:
    if args.steps < 1:
        raise ValueError(f"{args.axis} sweep grid is empty (steps={args.steps}, need >= 1)")
    if not args.stop >= args.start:
        raise ValueError(f"{args.axis} sweep grid must be monotone: start <= stop")
    return np.linspace(args.start, args.stop, args.steps)


def cmd_sweep(args) -> int:
    grid = _sweep_grid(args)
    # every grid point's configs are built, and so checked, before the first is simulated
    if args.axis == "delta":
        if ScenarioKind(args.scenario) is ScenarioKind.SINGLE_BLINDING:
            raise ValueError("scenario single-blinding has no analyzer-offset curve to sweep")
        if args.start < -_HALF_PI - 1e-12 or args.stop > _HALF_PI + 1e-12:
            raise ValueError("delta sweep grid must lie within [-pi/2, pi/2]")
        scenario_cfg = _scenario_from_args(args)
        points = [
            (float(d), scenario_cfg, ProtocolConfig(
                protocol="bbm92", rounds=args.rounds, seed=args.seed + i,
                alice_settings=(0.0,), bob_settings=(float(d),),
            ))
            for i, d in enumerate(grid)
        ]
    else:
        if ScenarioKind(args.scenario) is not ScenarioKind.DOUBLE_BLIND_EKERT:
            raise ValueError("alpha sweeps apply to scenario double-ekert only")
        if args.alpha is not None:
            raise ValueError("--alpha applies to delta sweeps; an alpha sweep takes its angles from the grid")
        base = _scenario_from_args(args)
        points = [
            (float(a), dataclasses.replace(base, alpha=float(a)),
             ProtocolConfig(protocol="ekert", rounds=args.rounds, seed=args.seed + i))
            for i, a in enumerate(grid)
        ]
    # a bad worker count, then an unwritable --out, fail before anything is simulated
    for _, scenario_cfg, protocol_cfg in points:
        session_chunks(protocol_cfg, scenario_cfg, args.workers)
    _probe_outputs(args.out)
    _keep_freed_heap()
    rows = []
    for x, scenario_cfg, protocol_cfg in points:
        records = run_session(protocol_cfg, scenario_cfg, workers=args.workers, audit=False)
        # the oracle columns are the same statistics of the expected counts
        expected = SessionCounts(protocol_cfg, scenario_cfg, 1, expected_counts(protocol_cfg, scenario_cfg))
        if args.axis == "delta":
            est = correlation_estimate(records, 0.0, x)
            rows.append(
                {
                    "delta": x,
                    "n_coincidences": est.n_coincidences,
                    "estimate": est.value,
                    "stderr": est.stderr,
                    "oracle": correlation_estimate(expected, 0.0, x).value,
                }
            )
        else:
            eff = estimate_efficiencies(records, n_emitted=len(records))
            want = estimate_efficiencies(expected, 1)
            rows.append(
                {
                    "alpha": x,
                    "eta_estimate": eff.eta,
                    "eta_stderr": eff.eta_stderr,
                    "eta_oracle": want.eta,
                    "eta_21_estimate": eff.eta_21,
                    "eta_21_stderr": eff.eta_21_stderr,
                    "eta_21_oracle": want.eta_21,
                    "weak_rate_estimate": weak_side_detection_rate(records),
                    "weak_rate_oracle": weak_side_detection_rate(expected),
                }
            )
    _write_table(rows, list(rows[0]), args.out, args.format)  # steps >= 1, so rows is never empty
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
