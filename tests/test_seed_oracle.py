"""End to end against the frozen seed: `netevolve analyze` on generated
inputs must give the bundle the seed copy in `perfbench/seedref` gives.

Each case writes one clean input, and `analyze --format json` runs on it
from `src/` and from the seed. Only the seed reads `NETEVOLVE_THREADS`, the
cap of its thread pool, so only the seed's side sets it to 1. Each side runs
every case through `cli.main` in its own interpreter, since two `netevolve`
packages cannot share one. The exit codes must be equal, and a bundle must
pass perfbench's gate: labels, integers and list order exactly, floats to
1e-9 relative. So the fits, proxies, the Pearson/Spearman gate, the driver
ranking, the static checks and the verdicts are checked here as a whole,
which the per-measure oracles do not.

The inputs are clean, because the seed takes some inputs that are now
rejected (`1_000` weights, NaN times):
- random CSV logs with 5-120 actors, 1-6 numeric breakpoints and weights
  1-3, and random team-structured publication corpora sliced `--yearly`;
- a corpus over 24 years, so long series meet the normality test;
- a corpus of closed twins, authors who only ever write as a whole team;
- a layered chain of 138 actors whose last period has more than 2**53
  shortest paths between its end layers, so the numpy kernel hands that
  period to the Python pass.

The module is marked `long`: it runs 17 random inputs, and 200 with
`LONG_TESTS=1` (the `examples` call below; see conftest.py); the three
fixed ones always run.

Run from the repository root: PYTHONPATH=src python3 -m pytest -q
tests/test_seed_oracle.py
"""

import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import examples

pytest.importorskip("scipy", reason="the seed imports scipy.stats")

pytestmark = pytest.mark.long

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_gate", ROOT / "perfbench" / "gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

RANDOM_CASES = examples(17, 200)


def _csv_log(rng):
    """A random edge-event log: preferential partners, integer times."""
    n = rng.randint(5, 120)
    actors = [f"u{rng.randrange(10**6):06d}" for _ in range(n)]
    pool = list(actors)
    horizon = rng.randint(20, 2000)
    lines = ["time,a,b,weight"]
    for _ in range(rng.randint(n, 4 * n)):
        a, b = rng.choice(actors), rng.choice(pool)
        if a != b:
            pool += (a, b)
            lines.append(f"{rng.randint(0, horizon)},{a},{b},{rng.randint(1, 3)}")
    cuts = sorted(rng.sample(range(horizon // 4, horizon + 1), rng.randint(1, 6)))
    return "\n".join(lines) + "\n", ["--breakpoints", ",".join(map(str, cuts))]


def _corpus(rng, years, teams, size, papers, cross=0.05, whole=False):
    """Teams that start one after another over `years` years and publish
    inside the team; with probability `cross` a paper adds the lead of the
    next team. `whole` makes every paper the full team."""
    first = rng.randint(1980, 2005)
    members = [[f"T{j:02d} {k}" for k in range(rng.randint(2, size))] for j in range(teams)]
    start = [j * years // (teams + 1) for j in range(teams)]
    lines = []
    for p in range(papers):
        year = rng.randrange(years)
        j = rng.choice([j for j in range(teams) if start[j] <= year])
        team = members[j]
        authors = list(team) if whole else rng.sample(team, rng.randint(1, len(team)))
        if rng.random() < cross:
            authors.append(members[(j + 1) % teams][0])
        date = f"{first + year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        lines.append(json.dumps({"pub_id": f"P{p:05d}", "date": date, "authors": authors}))
    return "\n".join(lines) + "\n", ["--kind", "publications", "--yearly"]


def _random_corpus(rng):
    return _corpus(rng, rng.randint(3, 24), rng.randint(3, 15), 7, rng.randint(30, 300))


def _chain():
    """23 layers of 6 actors, consecutive layers fully joined, layer k timed
    k. The periods take the python, numpy, numpy and python kernels: N*L is
    9,072 at the first cut, then 51,840 and 66,096, past the 50,000 the
    numpy kernel needs, and the whole has 6**21 > 2**53 paths across it."""
    lines = ["time,a,b,weight"]
    for k in range(22):
        lines += [f"{k},L{k:02d}n{i},L{k + 1:02d}n{j},1" for i in range(6) for j in range(6)]
    return "\n".join(lines) + "\n", ["--breakpoints", "5,14,16,21"]


CASES = {
    "decades": lambda: _corpus(random.Random(24), 24, 18, 7, 500),
    "twins": lambda: _corpus(random.Random(12), 15, 16, 8, 240, cross=0.08, whole=True),
    "chain": _chain,
    **{
        f"{'csv' if i % 2 else 'pubs'}{i:03d}": (
            lambda i=i: (_csv_log if i % 2 else _random_corpus)(random.Random(i))
        )
        for i in range(RANDOM_CASES)
    },
}


# Runs every case in one interpreter, so the seed imports scipy.stats once.
_DRIVER = """
import json, sys
from netevolve.cli import main
jobs = json.load(open(sys.argv[1]))
codes = [main(["analyze", *args, "--format", "json", "--out", out]) for args, out in jobs]
print(json.dumps(codes))
"""


@pytest.fixture(scope="module")
def exits_and_bundles(tmp_path_factory):
    """Per side, `src` and `seed`: each case's exit code and bundle (None
    when it failed)."""
    work = tmp_path_factory.mktemp("seed_oracle")
    calls = {}
    for name, build in CASES.items():
        text, args = build()
        path = work / (name + (".jsonl" if "--yearly" in args else ".csv"))
        path.write_text(text, encoding="utf-8")
        calls[name] = ["--input", str(path), *args]
    env = {k: v for k, v in os.environ.items() if k not in ("NETEVOLVE_THREADS", "PYTHONPATH")}
    sides = {
        "src": {**env, "PYTHONPATH": str(ROOT / "src")},
        "seed": {
            **env,
            "PYTHONPATH": str(ROOT / "perfbench" / "seedref"),
            "NETEVOLVE_THREADS": "1",
        },
    }
    runs = {}
    for side, side_env in sides.items():  # both sides run at once
        outs = [work / f"{name}.{side}.json" for name in calls]
        jobs = work / f"{side}.jobs.json"
        jobs.write_text(json.dumps([(args, str(out)) for args, out in zip(calls.values(), outs)]))
        command = [sys.executable, "-c", _DRIVER, str(jobs)]
        runs[side] = outs, subprocess.Popen(
            command, env=side_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
    results = {}
    for side, (outs, run) in runs.items():
        stdout, stderr = run.communicate(timeout=900)
        assert run.returncode == 0, stderr[-2000:]
        results[side] = {
            name: (code, json.loads(out.read_text()) if code == 0 else None)
            for name, code, out in zip(calls, json.loads(stdout), outs, strict=True)
        }
    return results


@pytest.mark.parametrize("case", CASES)
def test_analyze_matches_the_seed(case, exits_and_bundles):
    code, bundle = exits_and_bundles["src"][case]
    seed_code, seed_bundle = exits_and_bundles["seed"][case]
    assert code == seed_code
    if seed_code == 0:
        problems = []
        gate._diff(gate._normalize(bundle), gate._normalize(seed_bundle), "bundle", problems)
        assert not problems, problems[:10]
