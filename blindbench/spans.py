"""Spans around the public functions of each blindsim layer.

The wrappers live in the benchmark, not in the program: `Tracer.install`
rebinds every module-level name in the `blindsim` package that refers to a
traced function, so calls made through `from .x import f` aliases are caught
as well, and `Tracer.uninstall` puts the originals back. Spans are kept in
memory as tuples and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

TRACED = {
    "sources": (
        "chunk_stream", "sample_lambda", "weak_side_codes", "faked_pulse_params",
        "predict_outcome_codes",
    ),
    "optics": ("split_intensities", "click_codes"),
    "protocol": ("run_session", "chsh_score", "eve_prediction_report"),
    "analysis": ("fair_sampling_monitor", "estimate_efficiencies", "weak_side_detection_rate"),
    "cli": ("build_summary", "oracle_block", "write_summary"),
}

# spans whose tracemalloc peak is recorded; none of them nests inside another,
# so resetting the peak at their start cannot hide an enclosing span's peak
PEAK_SPANS = ("protocol.run_session", "cli.build_summary")


class Tracer:
    """Records (name, start, end, parent, command, peak_bytes) for each traced call.

    `parent` is the index of the enclosing span in `spans`, or -1 at top level.
    `peak_bytes` is the tracemalloc peak above the span's starting allocation,
    taken only for PEAK_SPANS and only while tracemalloc is tracing, else None.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.command = -1
        self.sessions: list[tuple[int, int, int]] = []  # (command, rounds, retained bytes)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        measure_peak = name in PEAK_SPANS
        record_session = name == "protocol.run_session"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            peak_base = None
            if measure_peak and tracemalloc.is_tracing():
                tracemalloc.reset_peak()
                peak_base = tracemalloc.get_traced_memory()[0]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                peak = None
                if peak_base is not None:
                    peak = tracemalloc.get_traced_memory()[1] - peak_base
                spans[index] = (name, start, end, parent, self.command, peak)
            if record_session:
                self.sessions.append((self.command, len(result), retained_bytes(result)))
            return result

        return wrapper

    def install(self) -> None:
        originals = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"blindsim.{layer}"]
            for fn_name in names:
                fn = getattr(module, fn_name)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{fn_name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "blindsim" and not mod_name.startswith("blindsim."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def retained_bytes(records) -> int:
    """Bytes held by the per-round columns of a SessionRecords."""
    total = 0
    for value in vars(records).values():
        nbytes = getattr(value, "nbytes", None)
        if nbytes is not None:
            total += nbytes
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
