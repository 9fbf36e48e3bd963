"""Benchmark of the exact_uncertainty library: one seeded workload per run.

    python3 perfbench/run.py --workload suite-full --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  The load is a closed loop: one caller in
one process issues the next report only when the previous one has
returned.  Set-up is measured in fresh child processes, run one after
another, half of them before the timed loop and half after it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the library's
public functions are wrapped (see tracing.py) and the metrics are the
per-layer ones.  Earlier lines hold the failure list (workload, seed,
index), computed array sizes and, when traced, per-kind call counts.
See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("suite-full", "mixed-wigner", "epr-2d")
SETUP_REPEATS = 8  # set-up samples per run, half before the loop and half after

# closed loop with one caller on a 2-core host: at most 2 BLAS/OpenMP threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "2")


class SetupError(RuntimeError):
    """The checkout does not hold the library this benchmark measures."""


def use_checkout_library():
    """Put the checkout's src/ first on sys.path; load_workload refuses any
    other copy of the library."""
    if not (SRC / "exact_uncertainty" / "__init__.py").is_file():
        raise SetupError(f"no library at {SRC}/exact_uncertainty; run from a full checkout")
    sys.path.insert(0, str(SRC))


def load_workload(name: str, seed: int, tiny: bool):
    """Import the library and build the seeded inputs: what setup_s times."""
    import exact_uncertainty
    import workloads

    if Path(exact_uncertainty.__file__).resolve().parent != SRC / "exact_uncertainty":
        raise SetupError(f"imported {exact_uncertainty.__file__}, not the checkout's library")
    return workloads.WORKLOADS[name](seed, tiny)


def set_up(name: str, seed: int, tiny: bool):
    """Everything before the first timed call: import, the unit pool, and
    the first unit's inputs."""
    load_workload(name, seed, tiny).unit(0)


def setup_seconds(name: str, seed: int, tiny: bool, repeats: int,
                  warm_up: bool) -> list[float]:
    """Set-up time of ``repeats`` fresh interpreters, run one after another,
    each measured from before the library import to the first timed call.
    With ``warm_up`` one more interpreter runs first, unmeasured: the first
    start after other work is the slowest."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(repeats + warm_up):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[warm_up:]


def last_level_cache_bytes() -> int | None:
    """Largest cache of cpu0, read from sysfs (nothing is written)."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 2 ** 10, "M": 2 ** 20, "G": 2 ** 30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0] or (level == best[0] and value > best[1]):
            best = (level, value)
    return best[1] if best else None


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile by linear interpolation (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_loop(workload, seconds: float, seed: int, tracer=None, corrupt=None) -> dict:
    """Run units of reports until the next unit would end past ``seconds``.

    Only the library calls and the serialisation are timed; generating inputs
    and checking outputs happen outside each report's interval.
    ``corrupt(index, text)`` lets the self-test damage a report before it
    is checked.
    """
    durations: list[float] = []
    kinds: list[str] = []
    failures: list[dict] = []
    unit_seconds: list[float] = []
    start = time.perf_counter()
    unit_index = 0
    while not unit_seconds or (time.perf_counter() - start
                               + statistics.median(unit_seconds) <= seconds):
        unit_start = time.perf_counter()
        for kind, produce in workload.unit(unit_index):
            index = len(durations)
            problem = None
            began = time.perf_counter()
            try:
                if tracer is None:
                    text = produce()
                else:
                    with tracer.report(index, kind):
                        text = produce()
            except Exception as exc:  # a raising report is a failed report
                problem = f"raised {type(exc).__name__}: {exc}"
            durations.append(time.perf_counter() - began)
            kinds.append(kind)
            if problem is None:
                if corrupt is not None:
                    text = corrupt(index, text)
                problem = workload.problem(kind, text)
            if problem is not None:
                failures.append({"workload": workload.name, "seed": seed, "index": index,
                                 "kind": kind, "problem": problem})
        unit_seconds.append(time.perf_counter() - unit_start)
        unit_index += 1
    return {"durations": durations, "kinds": kinds, "failures": failures}


def end_to_end_metrics(loop: dict, setup: list[float]) -> dict:
    durations = loop["durations"]
    attempted = len(durations)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "reports_per_s": {"value": attempted / sum(durations), "unit": "1/s"},
        "report_ms_p50": {"value": 1e3 * statistics.median(durations), "unit": "ms"},
        "report_ms_p90": {"value": 1e3 * percentile(durations, 90), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MiB"},
        "passed_frac": {"value": (attempted - len(loop["failures"])) / attempted,
                        "unit": "fraction"},
    }


# per-layer metric name -> (span name, statistic, unit[, report kind the
# statistic is restricted to])
LAYER_METRICS = {
    "grids.spectral_derivative_axis.ms": ("grids.spectral_derivative_axis", "ms", "ms"),
    "grids.fourier_interpolate.ms": ("grids.fourier_interpolate", "ms", "ms"),
    "states.to_momentum.calls_per_report": ("states.to_momentum", "calls", "count"),
    "states.to_momentum.ms": ("states.to_momentum", "ms", "ms"),
    "states.momentum_density.ms": ("states.momentum_density", "ms", "ms"),
    "states.moment.calls_per_report": ("states.moment", "calls", "count"),
    "fisher.fisher_length.ms": ("fisher.fisher_length", "ms", "ms"),
    "fisher.fisher_length_mixed.ms": ("fisher.fisher_length_mixed", "ms", "ms"),
    "fisher.fisher_length_periodic.ms": ("fisher.fisher_length_periodic", "ms", "ms"),
    "fisher.fisher_covariance.ms": ("fisher.fisher_covariance", "ms", "ms"),
    "fisher.fisher_covariance.alloc_peak_mb": ("fisher.fisher_covariance", "alloc", "MiB"),
    "decomposition.classical_estimate.ms": ("decomposition.classical_estimate", "ms", "ms"),
    "decomposition.classical_estimate.calls_per_report":
        ("decomposition.classical_estimate", "calls", "count"),
    **{f"relations.{fn}.self_ms": (f"relations.{fn}", "self_ms", "ms")
       for fn in ("verify_position_momentum", "verify_conjugate", "verify_phase_angular",
                  "verify_phase_number", "verify_general", "verify_multidim",
                  "verify_ivanovic")},
    "signals.verify_time_frequency.self_ms": ("signals.verify_time_frequency", "self_ms", "ms"),
    "wigner.wigner_transform.ms": ("wigner.wigner_transform", "ms", "ms"),
    "wigner.wigner_transform.alloc_peak_mb": ("wigner.wigner_transform", "alloc", "MiB"),
    "wigner.wigner_average_momentum.ms": ("wigner.wigner_average_momentum", "ms", "ms"),
    # the mixture's transform alone: the pure-state calls outnumber it, so
    # the p50 over all calls above follows the pure path
    "wigner.wigner_transform.mixed_ms": ("wigner.wigner_transform", "ms", "ms", "wigner-mixed"),
    "wigner.wigner_transform.mixed_alloc_peak_mb":
        ("wigner.wigner_transform", "alloc", "MiB", "wigner-mixed"),
    **{f"twoparticle.{fn}.{metric}": (f"twoparticle.{fn}", stat, unit)
       for fn in ("build_epr", "epr_moments", "nonclassical_components_2d",
                  "correlation_relation", "collapse_momentum")
       for metric, stat, unit in (("self_s", "self_s", "s"),
                                  ("alloc_peak_mb", "alloc", "MiB"))},
    "twoparticle.nonclassical_components_2d.calls_per_report":
        ("twoparticle.nonclassical_components_2d", "calls", "count"),
    "cli.report_json.ms": ("cli.report_json", "ms", "ms"),
}
FFT_SPANS = ("numpy.fft.fft", "numpy.fft.ifft", "numpy.fft.fft2")


def per_layer_metrics(loop: dict, spans: list) -> dict:
    """Per-layer metrics from the spans.  A function the workload never
    calls has 0 calls, 0 time and 0 allocation."""
    attempted = len(loop["durations"])
    kinds = loop["kinds"]
    # generating a unit's inputs may call traced functions; only reports count
    spans = [r for r in spans if r[tracing.REPORT] >= 0]
    summaries = {None: tracing.summarize(spans, attempted)}
    for kind in {entry[3] for entry in LAYER_METRICS.values() if len(entry) == 4}:
        of_kind = [r for r in spans if kinds[r[tracing.REPORT]] == kind]
        summaries[kind] = tracing.summarize(of_kind, max(kinds.count(kind), 1))
    summary = summaries[None]
    statistic = {
        "ms": lambda s: 1e3 * s["p50_s"],
        "self_ms": lambda s: 1e3 * s["self_p50_s"],
        "self_s": lambda s: s["self_p50_s"],
        "alloc": lambda s: s["alloc_peak_p50_bytes"] / 2 ** 20,
        "calls": lambda s: s["calls_per_report"],
    }
    metrics = {}
    for name, (span, stat, unit, *kind) in LAYER_METRICS.items():
        of_kind = summaries[kind[0] if kind else None]
        value = statistic[stat](of_kind[span]) if span in of_kind else 0.0
        metrics[name] = {"value": value, "unit": unit}
    ffts = [summary[s] for s in FFT_SPANS if s in summary]
    metrics["grids.fft_calls_per_report"] = {
        "value": sum(s["calls"] for s in ffts) / attempted, "unit": "count"}
    metrics["grids.fft_points_per_report"] = {
        "value": sum(s["points"] for s in ffts) / attempted, "unit": "count"}
    metrics["trace.reports_per_s"] = {"value": attempted / sum(loop["durations"]),
                                      "unit": "1/s"}
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        setup_repeats: int = SETUP_REPEATS, corrupt=None) -> tuple[dict, dict]:
    """One benchmark run: (result object, details for the preceding lines)."""
    # setup_s is an end-to-end metric, so a traced run skips its samples;
    # the untraced run takes them on both sides of the loop, so that they
    # span the run rather than one moment of it
    setup = [] if trace else setup_seconds(name, seed, tiny, setup_repeats // 2, warm_up=True)
    workload = load_workload(name, seed, tiny)
    details = {"sizes": workload.computed_sizes()}
    if details["sizes"]:
        details["sizes"]["label"] = "computed from array shapes, not measured"
        details["sizes"]["last_level_cache_bytes"] = last_level_cache_bytes()
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        workload.span = tracer.span
        tracemalloc.start()
        try:
            loop = timed_loop(workload, seconds, seed, tracer, corrupt)
        finally:
            tracemalloc.stop()
            tracer.uninstall()
        metrics = per_layer_metrics(loop, tracer.spans)
        details["counts_by_kind"] = tracing.counts_by_kind(tracer.spans, loop["kinds"])
        details["spans"] = tracer.spans
    else:
        loop = timed_loop(workload, seconds, seed, corrupt=corrupt)
        setup += setup_seconds(name, seed, tiny, setup_repeats - len(setup), warm_up=False)
        metrics = end_to_end_metrics(loop, setup)
    details["setup_s_samples"] = setup
    details["failures"] = loop["failures"]
    details["reports_by_kind"] = {
        kind: {"reports": loop["kinds"].count(kind),
               "ms_p50": 1e3 * statistics.median(
                   d for d, k in zip(loop["durations"], loop["kinds"]) if k == kind)}
        for kind in dict.fromkeys(loop["kinds"])}
    result = {
        "correct": not loop["failures"],
        "attempted": len(loop["durations"]),
        "failed": len(loop["failures"]),
        "metrics": metrics,
    }
    return result, details


def write_trace(name: str, seed: int, details: dict):
    """Write the spans kept in memory, once the run has ended."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "report", "self_s",
                              "alloc_peak_bytes", "fft_points"],
                   "spans": details["spans"],
                   "counts_by_kind": details["counts_by_kind"]}, fh, allow_nan=False)
    return path


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, as the self-test uses")
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up seconds and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_library()
        if args.setup_only:
            began = time.perf_counter()
            set_up(args.workload, args.seed, args.tiny)
            print(repr(time.perf_counter() - began))
            return 0
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.tiny)
    except (SetupError, subprocess.SubprocessError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("failures: " + json.dumps(details["failures"], allow_nan=False))
    print("reports by kind: " + json.dumps(details["reports_by_kind"]))
    if details["setup_s_samples"]:
        print("setup_s samples: " + json.dumps(details["setup_s_samples"]))
    if details["sizes"]:
        print("sizes: " + json.dumps(details["sizes"]))
    if args.trace:
        print("counts per report by kind: " + json.dumps(details["counts_by_kind"]))
        print(f"spans written to {write_trace(args.workload, args.seed, details)}")
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
