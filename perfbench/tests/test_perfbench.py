"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracer  # noqa: E402
from run import quartiles  # noqa: E402

REFERENCE = {
    "rows": [{"label": "T1", "n_actors": 3, "n_links": 2, "sum_links": 2, "clustering": 0.5}],
    "correlations": {"ranked_drivers": ["embedding", "homophily"]},
    "provenance": {"input_path": "/a/in.csv", "ingest_warnings": ["/a/in.csv:3: bad"]},
}
PERIODS = [{"N": 3, "L": 2, "W": 2}]


def _copy(bundle):
    return json.loads(json.dumps(bundle))


def test_gate_accepts_rounding_noise_and_a_moved_input():
    got = _copy(REFERENCE)
    got["rows"][0]["clustering"] = 0.5 * (1 + 1e-12)
    got["provenance"] = {"input_path": "/b/in.csv", "ingest_warnings": ["/b/in.csv:3: bad"]}
    assert gate.mismatches(got, REFERENCE, PERIODS) == []


def test_gate_rejects_wrong_values_order_and_types():
    for mutate in (
        lambda b: b["rows"][0].update(clustering=0.5 * (1 + 1e-6)),
        lambda b: b["correlations"]["ranked_drivers"].reverse(),
        lambda b: b["rows"][0].update(n_links=2.0),
        lambda b: b["rows"][0].update(label="T2"),
        lambda b: b["rows"].append(dict(b["rows"][0])),
    ):
        got = _copy(REFERENCE)
        mutate(got)
        assert gate.mismatches(got, REFERENCE, PERIODS), mutate


def test_gate_checks_generator_counts():
    assert gate.mismatches(_copy(REFERENCE), REFERENCE, [{"N": 3, "L": 2, "W": 3}])


def test_summarize_splits_total_and_self_time():
    spans = [
        ["pipeline.run", 0.0, 10.0, None],
        ["metrics.row", 1.0, 9.0, 0],
        ["graph_core.giant", 2.0, 3.0, 1],
        ["metrics.row", 4.0, 5.0, 1],  # same-layer nesting is counted once
    ]
    summary = tracer.summarize(spans)
    assert summary["layers"]["metrics"]["total_s"] == 8.0
    assert summary["layers"]["metrics"]["self_s"] == 7.0
    assert summary["layers"]["pipeline"]["self_s"] == 2.0
    assert summary["functions"]["metrics.row"]["calls"] == 2
    assert tracer.outermost_time(spans, lambda n: n.startswith(("metrics", "graph_core"))) == 8.0


def test_quartiles_report_tail_only_with_ten_samples_beyond_it():
    assert "p90" not in quartiles([float(i) for i in range(99)])
    stats = quartiles([float(i) for i in range(100)])
    assert stats["n"] == 100 and stats["median"] == 49.5 and "p90" in stats


def test_smoke_emits_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["smoke"] == "ok"
