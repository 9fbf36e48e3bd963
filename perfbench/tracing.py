"""In-memory span recorder for the traced benchmark run.

Spans are opened by wrappers that replace the library's public functions at
every module attribute through which callers reach them, plus
``numpy.fft.fft``, ``ifft`` and ``fft2``.  Nothing in the library changes:
the wrappers are installed by :meth:`Tracer.install` and removed by
:meth:`Tracer.uninstall`.

Each span records its name, start, end, parent span, report index, self
time (duration minus the time covered by its child spans) and the
``tracemalloc`` peak above the traced memory at entry.  NumPy reports its
array buffers to ``tracemalloc``, so the peak covers array temporaries.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

# (module, function) pairs wrapped in the traced run; span names drop the
# package prefix, e.g. "states.to_momentum"
TRACED_FUNCTIONS = {
    "grids": ("spectral_derivative_axis", "fourier_interpolate"),
    "states": ("to_momentum", "momentum_density", "moment"),
    "fisher": ("fisher_length", "fisher_length_mixed", "fisher_length_periodic",
               "fisher_covariance"),
    "decomposition": ("classical_estimate",),
    "relations": ("verify_position_momentum", "verify_conjugate", "verify_phase_angular",
                  "verify_phase_number", "verify_general", "verify_multidim",
                  "verify_ivanovic"),
    "signals": ("verify_time_frequency",),
    "wigner": ("wigner_transform", "wigner_average_momentum"),
    "twoparticle": ("build_epr", "epr_moments", "nonclassical_components_2d",
                    "correlation_relation", "collapse_position", "collapse_momentum"),
}
FFT_FUNCTIONS = ("fft", "ifft", "fft2")
PACKAGE = "exact_uncertainty"

# span fields, in the order they are stored
NAME, START, END, PARENT, REPORT, SELF, ALLOC, POINTS = range(8)


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []  # open frames: [span index, child time, peak]
        self._report = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, points: int = 0):
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:  # fold the parent's peak so far before resetting it
            self._stack[-1][2] = max(self._stack[-1][2], peak)
        tracemalloc.reset_peak()
        parent = self._stack[-1][0] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self._report, 0.0, 0, points]
        frame = [len(self.spans), 0.0, current]
        self.spans.append(record)
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            peak = max(frame[2], tracemalloc.get_traced_memory()[1])
            self._stack.pop()
            duration = end - record[START]
            record[END] = end
            record[SELF] = duration - frame[1]
            record[ALLOC] = peak - current
            if self._stack:
                self._stack[-1][1] += duration
                self._stack[-1][2] = max(self._stack[-1][2], peak)

    @contextmanager
    def report(self, index: int, kind: str):
        """Root span of one report; every span inside carries its index."""
        self._report = index
        try:
            with self.span("report." + kind):
                yield
        finally:
            self._report = -1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, counts_points: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points = int(getattr(args[0], "size", 0)) if counts_points and args else 0
            with self.span(name, points):
                return fn(*args, **kwargs)
        return traced

    def install(self):
        """Replace each traced function wherever a module holds a reference."""
        import numpy.fft

        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for short, names in TRACED_FUNCTIONS.items():
            home = sys.modules[f"{PACKAGE}.{short}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for fn_name in FFT_FUNCTIONS:
            original = getattr(numpy.fft, fn_name)
            self._patch(numpy.fft, fn_name,
                        self._wrap(f"numpy.fft.{fn_name}", original, counts_points=True))

    def _patch(self, owner, attr: str, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def summarize(spans: list[list], n_reports: int) -> dict:
    """Per span name: calls, FFT points, and p50 duration, self time and
    allocation peak per call."""
    by_name: dict[str, list[list]] = {}
    for record in spans:
        by_name.setdefault(record[NAME], []).append(record)
    out = {}
    for name, records in by_name.items():
        out[name] = {
            "calls": len(records),
            "calls_per_report": len(records) / n_reports,
            "points": sum(r[POINTS] for r in records),
            "p50_s": statistics.median(r[END] - r[START] for r in records),
            "self_p50_s": statistics.median(r[SELF] for r in records),
            "alloc_peak_p50_bytes": statistics.median(r[ALLOC] for r in records),
        }
    return out


def counts_by_kind(spans: list[list], kinds: list[str]) -> dict:
    """Calls per report of each span name, and FFT points per report, split
    by report kind.  These are counts, so they repeat exactly between runs."""
    reports_of_kind: dict[str, int] = {}
    for kind in kinds:
        reports_of_kind[kind] = reports_of_kind.get(kind, 0) + 1
    totals: dict[str, dict[str, float]] = {kind: {} for kind in reports_of_kind}
    for record in spans:
        if record[REPORT] < 0 or record[NAME].startswith("report."):
            continue
        row = totals[kinds[record[REPORT]]]
        row[record[NAME]] = row.get(record[NAME], 0) + 1
        if record[POINTS]:
            row["numpy.fft.points"] = row.get("numpy.fft.points", 0) + record[POINTS]
    return {kind: {name: count / reports_of_kind[kind] for name, count in sorted(row.items())}
            for kind, row in totals.items()}
