"""Self-test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 bench/selftest.py

Asserts that each run is correct, prints every metric named in
BENCHMARK.json with its unit and a sample count, that spans nest inside
their parents and that no span has a negative self time. Exits 0 on success.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run as bench
import workloads


def expected_metrics() -> tuple[dict, dict]:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    return e2e, layers


def check_record(record: dict, expected: dict):
    where = f"{record['workload']} trace={int(record['trace'])}"
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"], f"{where}: {record['violations']}"
    assert result["attempted"] >= 1 and result["failed"] == 0, where
    metrics = result["metrics"]
    assert set(metrics) == set(expected), f"{where}: {sorted(set(metrics) ^ set(expected))}"
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, f"{where}: {name} unit {metrics[name]['unit']}"
        assert isinstance(metrics[name]["value"], float), f"{where}: {name}"
        assert record["samples"][name] >= 1 or record["trace"], f"{where}: {name} has no samples"
        assert any(line.split()[0] == name and f"n={record['samples'][name]}" in line
                   for line in record["table"]), f"{where}: {name} missing from the table"


def check_spans(record: dict):
    spans = record["spans"]
    assert spans, "traced run recorded no spans"
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        p = s["parent"]
        if p >= 0:
            parent = spans[p]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"], (s, parent)
            own[p] -= s["end"] - s["start"]
    assert min(own) >= 0, "negative self time"
    names = {s["name"] for s in spans}
    assert {"run", "setup.data", "synth.generate", "encoder.forward"} <= names, names


def main() -> int:
    e2e, layers = expected_metrics()
    os.makedirs(bench.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.OUT_DIR) as out:
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                record = bench.run(name, seed=3, seconds=0.2, trace=trace,
                                   sizes=workloads.TINY, out_dir=out)
                check_record(record, layers if trace else e2e)
                if trace:
                    check_spans(record)
                print(f"ok {name} trace={int(trace)}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
