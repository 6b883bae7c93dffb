#!/usr/bin/env python3
"""netevolve benchmark: the real ``netevolve analyze`` CLI on seeded inputs.

    python3 perfbench/run.py --workload ba_growth --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere; paths resolve against the checkout that holds this file.
Each sample is one fresh interpreter (``child.py``) running one CLI call,
one at a time, with the CLI's default thread count.  Every output bundle is
compared with a reference bundle that the frozen seed copy of the package in
``seedref/`` computes for the same input (see ``gate.py``); a non-zero exit
or a mismatch counts as a failed call.

``--trace 0`` reports the end-to-end metrics: medians over the rounds that
fit in ``--seconds``.  ``--trace 1`` instead alternates untraced rounds,
single-threaded traced rounds (``tracer.py``) and ``-X importtime`` probes,
and reports the per-layer metrics.  The last stdout line is the JSON
result; the lines before it give each metric with its sample count and
quartiles, and the environment.  Everything a run writes stays under
``.bench_build/perfbench/`` in the checkout, including a detailed JSON
record of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
CALL_TIMEOUT_S = 170
WORK_LAYERS = ("ingest", "graph_core", "metrics", "powerlaw", "evolution")
SERIALIZE = "pipeline.bundle_to_json"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "analyze_s": "s",
    "link_periods_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed CLI call)."""


def _env(pythonpath: Path, threads: str | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("NETEVOLVE_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(pythonpath)
    if threads is not None:
        env["NETEVOLVE_THREADS"] = threads
    return env


def spawn(child_args: list[str], env: dict, log: Path, python_flags=()) -> tuple[float, float, int]:
    """Run child.py once; return (wall seconds, CPU seconds, exit code)."""
    command = [sys.executable, *python_flags, str(HERE / "child.py"), *child_args]
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, proc.returncode


class Workload:
    """One workload's inputs, references and CLI calls for one seed."""

    def __init__(self, name: str, seed: int, smoke: bool):
        self.name, self.seed = name, seed
        self.dir = OUT / f"{name}-s{seed}{'-smoke' if smoke else ''}"
        start = time.perf_counter()
        self.calls = workloads.build(name, self.dir, seed, SRC / "netevolve" / "data", smoke)
        self.input_build_s = time.perf_counter() - start
        self.ba = (workloads.SMOKE_BA_N if smoke else workloads.BA_N, workloads.BA_M)
        self.env = _env(SRC)
        self.failures: list[str] = []
        self.attempted = 0
        self.threads: set = set()
        self.references = [self._reference(call) for call in self.calls]

    def _reference(self, call: dict) -> dict:
        """The seed code's bundle for this call, computed once per input."""
        key = hashlib.sha256(
            json.dumps([call["input_sha256"], call["args"][3:]]).encode()
        ).hexdigest()[:20]
        path = OUT / "refs" / f"{key}.json"
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            scratch = path.with_suffix(".tmp")
            *_, code = spawn(
                ["analyze", str(scratch.with_suffix(".child")), *call["args"], "--out", str(scratch)],
                _env(HERE / "seedref", threads="1"),
                self.dir / "reference.log",
            )
            if code != 0:
                raise BenchError(f"seed reference failed on {call['name']}, see {self.dir}/reference.log")
            scratch.replace(path)
        return json.loads(path.read_text(encoding="utf-8"))

    def run_call(self, index: int, mode: str, tag: str) -> dict | None:
        """One CLI call in a fresh interpreter; None when it failed."""
        call, reference = self.calls[index], self.references[index]
        out = self.dir / f"{call['name']}-{tag}.json"
        child_out = self.dir / f"{call['name']}-{tag}.child.json"
        log = self.dir / f"{call['name']}-{tag}.log"
        for stale in (out, child_out):
            stale.unlink(missing_ok=True)
        args = [*call["args"], "--out", str(out)]
        env = self.env
        if mode == "trace":
            args = [str(self.ba[0]), str(self.ba[1]), str(self.seed), *args]
            env = {**env, "NETEVOLVE_THREADS": "1"}
        self.attempted += 1
        wall, cpu, code = spawn([mode, str(child_out), *args], env, log)
        if code != 0 or not child_out.exists() or not out.exists():
            self.failures.append(f"{call['name']} {mode}: exit {code}, see {log}")
            return None
        bundle = json.loads(out.read_text(encoding="utf-8"))
        problems = gate.mismatches(bundle, reference, call["periods"])
        if problems:
            self.failures.append(f"{call['name']} {mode}: " + "; ".join(problems[:5]))
            return None
        result = json.loads(child_out.read_text(encoding="utf-8"))
        if not Path(result["netevolve_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"child imported {result['netevolve_file']}, not the checkout's src/")
        if mode == "analyze":
            self.threads.add(result["threads"])
        result.update(
            wall_s=wall,
            cpu_s=cpu,
            output_bytes=out.stat().st_size,
            fit_points=sum(f["n_points"] for f in bundle["fits"] if f is not None),
        )
        return result

    def run_round(self, mode: str, tag: str) -> list[dict] | None:
        results = [self.run_call(i, mode, tag) for i in range(len(self.calls))]
        return None if any(r is None for r in results) else results

    def import_probe(self, tag: str) -> dict[str, float]:
        """``-X importtime`` of ``netevolve.cli``: cumulative seconds per
        ``netevolve`` module."""
        log = self.dir / f"importtime-{tag}.log"
        *_, code = spawn(["import", str(self.dir / "import.child.json")], self.env, log, ("-X", "importtime"))
        if code != 0:
            raise BenchError(f"importing netevolve.cli failed, see {log}")
        modules = {}
        for line in log.read_text(encoding="utf-8").splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                name = parts[2].strip()
                if name == "netevolve" or name.startswith("netevolve."):
                    modules[name] = int(parts[1]) / 1e6
        return modules

    @property
    def link_periods(self) -> int:
        return sum(p["L"] for call in self.calls for p in call["periods"])


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and sample count; the highest of p90/p99/p99.9
    with at least ten samples beyond it, when there is one."""
    ordered = sorted(values)
    out = {"n": len(ordered), "median": statistics.median(ordered)}
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    for p in (99.9, 99, 90):
        if len(ordered) * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]
            break
    return out


def _loop(seconds: float, step) -> None:
    """Call ``step`` until the next call would overrun ``seconds``; at
    least once."""
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        step()
        took = time.perf_counter() - before
        if time.perf_counter() - start + took > seconds:
            return


def measure_end_to_end(w: Workload, seconds: float) -> dict:
    rounds: list[list[dict]] = []
    setups: list[float] = []

    def step():
        results = w.run_round("analyze", f"r{len(rounds)}")
        if results is not None:
            rounds.append(results)
            setups.extend(r["import_s"] for r in results)

    _loop(seconds, step)
    if not rounds:
        raise BenchError("no call succeeded: " + "; ".join(w.failures[:3]))
    series = {
        "wall_s": [sum(r["wall_s"] for r in rs) for rs in rounds],
        "setup_s": setups,
        "analyze_s": [sum(r["analyze_s"] for r in rs) for rs in rounds],
        "link_periods_per_s": [w.link_periods / sum(r["analyze_s"] for r in rs) for rs in rounds],
        "peak_rss_mb": [max(r["peak_rss_mb"] for r in rs) for rs in rounds],
    }
    detail = {
        "per_call_wall_s": {
            call["name"]: quartiles([rs[i]["wall_s"] for rs in rounds]) for i, call in enumerate(w.calls)
        },
        "per_call_cpu_s": {
            call["name"]: quartiles([rs[i]["cpu_s"] for rs in rounds]) for i, call in enumerate(w.calls)
        },
        "per_call_import_s": {
            call["name"]: quartiles([rs[i]["import_s"] for rs in rounds]) for i, call in enumerate(w.calls)
        },
        "import_share_of_call_wall": {
            call["name"]: statistics.median(rs[i]["import_s"] for rs in rounds)
            / statistics.median(rs[i]["wall_s"] for rs in rounds)
            for i, call in enumerate(w.calls)
        },
    }
    return {"series": series, "units": END_TO_END_UNITS, "detail": detail}


def _sum_over(summaries: list[dict], names: set[str] | str) -> float:
    """Summed outermost time of the named functions."""
    names = {names} if isinstance(names, str) else names
    return sum(s["functions"].get(n, {}).get("total_s", 0.0) for s in summaries for n in names)


def layer_values(w: Workload, results: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced round (all its calls)."""
    spans = [r["spans"] for r in results]
    summaries = [tracer.summarize(s) for s in spans]
    traced_wall = sum(r["analyze_s"] for r in results)

    def outer(names):
        return sum(tracer.outermost_time(s, lambda n: n in names) for s in spans)

    def counted(name):
        return sum(r["counts"].get(name, 0) for r in results)

    def layer(name, key):
        return sum(s["layers"].get(name, {}).get(key, 0.0) for s in summaries)

    work = sum(
        tracer.outermost_time(s, lambda n: n.split(".", 1)[0] in WORK_LAYERS or n == SERIALIZE)
        for s in spans
    )
    traversal = _sum_over(summaries, {"metrics.path_stats", "metrics.betweenness", "metrics.closeness"})
    visits = sum(p["N"] * 2 * p["L"] for call in w.calls for p in call["periods"])
    values = {
        "ingest.parse_s": _sum_over(summaries, {"ingest.parse_edge_events_text", "ingest.parse_publications_text"}),
        "ingest.expand_s": _sum_over(summaries, "ingest.expand_publications"),
        "ingest.rows": counted("ingest.rows"),
        "ingest.events": counted("ingest.events"),
        "ingest.skipped": counted("ingest.skipped"),
        "graph_core.build_s": _sum_over(summaries, "graph_core.build_cumulative_snapshots"),
        "graph_core.giant_component_s": _sum_over(summaries, "graph_core.giant_component"),
        "graph_core.periods": sum(len(call["periods"]) for call in w.calls),
        "graph_core.actors_last": sum(call["periods"][-1]["N"] for call in w.calls),
        "graph_core.links_last": sum(call["periods"][-1]["L"] for call in w.calls),
        "graph_core.weight_last": sum(call["periods"][-1]["W"] for call in w.calls),
        "metrics.row_s": _sum_over(summaries, "metrics.metrics_row"),
        "metrics.clustering_s": outer({"metrics.avg_clustering", "metrics.local_clustering", "metrics.transitivity"}),
        "metrics.path_stats_s": _sum_over(summaries, "metrics.path_stats"),
        "metrics.betweenness_s": _sum_over(summaries, "metrics.betweenness"),
        "metrics.closeness_s": _sum_over(summaries, "metrics.closeness"),
        "metrics.assortativity_s": _sum_over(summaries, "metrics.assortativity"),
        "metrics.neighbor_degree_s": outer({"metrics.avg_neighbor_degree_mean", "metrics.avg_neighbor_degree"}),
        "metrics.centralization_s": _sum_over(summaries, "metrics.centralization"),
        "metrics.degree_histogram_s": _sum_over(summaries, "metrics.degree_histogram"),
        "metrics.traversal_share": traversal / traced_wall,
        "metrics.pass_edge_visits": visits,
        "metrics.betweenness_visits_per_s": visits / max(_sum_over(summaries, "metrics.betweenness"), 1e-12),
        "powerlaw.fit_s": _sum_over(summaries, "powerlaw.fit_powerlaw"),
        "evolution.proxy_s": _sum_over(summaries, "evolution.proxy_series"),
        "evolution.correlate_s": _sum_over(summaries, "evolution.correlate_attachment"),
        "evolution.static_s": _sum_over(summaries, "evolution.static_attributes"),
        "evolution.classify_s": _sum_over(summaries, "evolution.classify_small_world"),
        "evolution.normality_calls": sum(
            s["functions"].get("evolution.normality_gate", {}).get("calls", 0) for s in summaries
        ),
        "pipeline.run_s": _sum_over(summaries, "pipeline.run_analysis"),
        "pipeline.serialize_s": _sum_over(summaries, SERIALIZE),
        "pipeline.output_bytes": sum(r["output_bytes"] for r in results),
        "powerlaw.points": sum(r["fit_points"] for r in results),
        "generators.generate_s": _sum_over(summaries[:1], "generators.barabasi_albert"),
        "trace.traced_wall_s": traced_wall,
        "trace.work_s": work,
        "trace.coverage": work / traced_wall,
    }
    for name in WORK_LAYERS:
        values[f"{name}.total_s"] = layer(name, "total_s")
        values[f"{name}.self_s"] = layer(name, "self_s")
    values["pipeline.total_s"] = layer("pipeline", "total_s")
    values["pipeline.span_self_s"] = layer("pipeline", "self_s")
    return values


def measure_per_layer(w: Workload, seconds: float) -> dict:
    untraced: list[float] = []
    traced: list[dict] = []
    imports: list[dict] = []

    def step():
        tag = f"t{len(traced)}"
        plain = w.run_round("analyze", tag + "u")
        if plain is not None:
            untraced.append(sum(r["analyze_s"] for r in plain))
        results = w.run_round("trace", tag)
        if results is not None:
            traced.append(layer_values(w, results))
        imports.append(w.import_probe(tag))

    _loop(seconds, step)
    if not untraced or not traced:
        raise BenchError("no traced or untraced round succeeded: " + "; ".join(w.failures[:3]))
    series = {name: [t[name] for t in traced] for name in traced[0]}
    series["cli.import_s"] = [m.get("netevolve.cli", 0.0) for m in imports]
    series["evolution.import_s"] = [m.get("netevolve.evolution", 0.0) for m in imports]
    analyze = statistics.median(untraced)
    series["pipeline.self_s"] = [analyze - t["trace.work_s"] for t in traced]
    series["trace.overhead_s"] = [t["trace.traced_wall_s"] - analyze for t in traced]
    units = {name: _unit(name) for name in series}
    wall = statistics.median(series["trace.traced_wall_s"])
    shares = {
        layer: statistics.median(series[f"{layer}.total_s"]) / wall for layer in WORK_LAYERS
    }
    shares["ingest+graph_core"] = shares["ingest"] + shares["graph_core"]
    detail = {
        "untraced_analyze_s": quartiles(untraced),
        "import_breakdown_s": {k: statistics.median(m.get(k, 0.0) for m in imports) for k in imports[0]},
        "share_of_traced_wall": shares,
    }
    return {"series": series, "units": units, "detail": detail}


def _unit(name: str) -> str:
    if name.endswith("visits_per_s"):
        return "visits/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "coverage")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name == "metrics.pass_edge_visits":
        return "visits"
    return "count"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _version(module: str):
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def environment(w: Workload) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cli_threads": sorted(w.threads, key=str),
        "workload": w.name,
        "seed": w.seed,
        "inputs": [
            {k: c[k] for k in ("name", "events", "input_bytes", "input_sha256", "periods")} for c in w.calls
        ],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    w = Workload(workload, seed, smoke)
    # One untimed import so byte-code caches are written before timing.
    spawn(["import", str(w.dir / "warmup.child.json")], w.env, w.dir / "warmup.log")
    measured = measure_per_layer(w, seconds) if trace else measure_end_to_end(w, seconds)
    measured["detail"]["error_rate"] = len(w.failures) / w.attempted
    summary = {name: quartiles(values) for name, values in measured["series"].items()}
    record = {
        "environment": environment(w),
        "input_build_s": w.input_build_s,
        "summary": summary,
        "units": measured["units"],
        "detail": measured["detail"],
        "series": measured["series"],
        "failures": w.failures,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{workload}-s{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    return {
        "correct": not w.failures,
        "attempted": w.attempted,
        "failed": len(w.failures),
        "metrics": {
            name: {"value": summary[name]["median"], "unit": measured["units"][name]} for name in summary
        },
        "record": record,
    }


def print_report(workload: str, outcome: dict) -> None:
    record = outcome["record"]
    print(f"# {workload}: environment {json.dumps({k: v for k, v in record['environment'].items() if k != 'inputs'})}")
    for name, stats in record["summary"].items():
        spread = f" q1={stats['q1']:.6g} q3={stats['q3']:.6g}" if "q1" in stats else ""
        tail = "".join(f" {k}={v:.6g}" for k, v in stats.items() if k.startswith("p"))
        print(f"{workload} {name} = {stats['median']:.6g} {record['units'][name]} (median of n={stats['n']}{spread}{tail})")
    for key in ("share_of_traced_wall", "import_share_of_call_wall"):
        if key in record["detail"]:
            shares = ", ".join(f"{k} {v:.1%}" for k, v in record["detail"][key].items())
            print(f"# {workload} {key}: {shares}")
    print(f"{workload} failed/attempted = {outcome['failed']}/{outcome['attempted']}")
    for failure in record["failures"][:10]:
        print(f"# FAILED {failure}")


def smoke(seed: int) -> int:
    """All workloads at tiny sizes, one round each, in both modes; checks
    that each emits every metric BENCHMARK.json names, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name in workloads.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            try:
                outcome = run(name, seed, 0.0, trace, smoke=True)
            except BenchError as exc:
                problems.append(f"{name} trace={int(trace)}: {exc}")
                continue
            if not outcome["correct"]:
                problems.append(f"{name} trace={int(trace)}: {outcome['record']['failures']}")
            emitted = outcome["metrics"]
            for metric in spec[kind]:
                got = emitted.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name} trace={int(trace)}: {metric['name']} [{metric['unit']}] got {got}")
            extra = emitted.keys() - {metric["name"] for metric in spec[kind]}
            if extra:
                problems.append(f"{name} trace={int(trace)}: not in BENCHMARK.json: {sorted(extra)}")
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": problems}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, all workloads, both modes")
    args = parser.parse_args(argv)
    if not (SRC / "netevolve" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'netevolve'} is missing", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outcomes = {name: run(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, outcome in outcomes.items():
        print_report(name, outcome)
    if len(outcomes) == 1:
        metrics = outcomes[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, o in outcomes.items() for k, v in o["metrics"].items()}
    print(json.dumps({
        "correct": all(o["correct"] for o in outcomes.values()),
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
