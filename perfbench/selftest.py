"""Self-test of the benchmark: every workload at tiny sizes, untraced and traced.

    python3 perfbench/selftest.py

Asserts, for each run, that every metric named in BENCHMARK.json appears
with its unit, that the result line is strict JSON (``allow_nan=False``),
and that a deliberately corrupted first report is counted as failed: a
semantic corruption in the untraced run, a NaN token in the traced run.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SECONDS = 2.0


def damage(value):
    """Turn every verdict into "violated" and move every number far off."""
    if isinstance(value, dict):
        return {k: damage(v) for k, v in value.items()}
    if isinstance(value, list):
        return [damage(v) for v in value]
    if isinstance(value, str) and value in ("equality", "inequality-satisfied"):
        return "violated"
    if isinstance(value, float):
        return value * 1e6 + 1.0
    return value


def corrupt_semantics(index: int, text: str) -> str:
    return json.dumps(damage(json.loads(text))) if index == 0 else text


def corrupt_with_nan(index: int, text: str) -> str:
    if index != 0:
        return text
    doc = json.loads(text)
    doc["injected"] = float("nan")
    return json.dumps(doc)  # allow_nan defaults to True: writes a bare NaN


def check_result(result: dict, expected: dict, label: str):
    line = json.dumps(result, allow_nan=False)  # raises on NaN or infinity
    assert json.loads(line) == result, label
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert set(result["metrics"]) == set(expected), \
        f"{label}: metrics differ: {set(result['metrics']) ^ set(expected)}"
    for name, unit in expected.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, f"{label}: {name} has unit {metric['unit']}"
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), \
            f"{label}: {name} = {metric['value']!r}"
    assert result["attempted"] >= 1 and result["failed"] >= 1, label


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    run.use_checkout_library()
    for workload in spec_workloads(spec):
        for trace, corrupt, expected in ((False, corrupt_semantics, end_to_end),
                                         (True, corrupt_with_nan, per_layer)):
            label = f"{workload} trace={int(trace)}"
            result, details = run.run(workload, seed=1, seconds=SECONDS, trace=trace,
                                      tiny=True, setup_repeats=2, corrupt=corrupt)
            check_result(result, expected, label)
            assert any(f["index"] == 0 for f in details["failures"]), \
                f"{label}: corrupted report 0 not counted"
            if not trace:
                passed = result["metrics"]["passed_frac"]["value"]
                assert passed == 1 - result["failed"] / result["attempted"] < 1, label
            print(f"ok  {label}: {result['attempted']} reports, {result['failed']} failed")
    return 0


def spec_workloads(spec: dict) -> list[str]:
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES), names
    return names


if __name__ == "__main__":
    sys.exit(main())
