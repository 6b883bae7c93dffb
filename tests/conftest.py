import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from netevolve import GraphSnapshot, cli
from netevolve.generators import barabasi_albert, erdos_renyi, watts_strogatz


LONG = bool(os.environ.get("LONG_TESTS"))  # on for any non-empty value
ROOT = Path(__file__).resolve().parents[1]

# the README's two bundled samples: each one's path from the repository root
# and the slicing arguments of its `analyze` command
SAMPLES = {
    "disaster": (
        "src/netevolve/data/disaster_events.csv",
        [
            "--breakpoints", "2009-02-07T11:50,2009-02-07T13:05,2009-02-07T16:00,2009-02-08T00:00",
            "--labels", "T1,T1-T2,T1-T3,T1-T4",
        ],
    ),
    "coauthorship": ("src/netevolve/data/coauthorship_sample.jsonl", ["--kind", "publications", "--yearly"]),
}
DISASTER, COAUTHORS = (str(ROOT / path) for path, _ in SAMPLES.values())


def examples(tier1: int, long: int) -> int:
    """The examples (or cases) a test draws: `long` when LONG_TESTS is on,
    as in CI's `LONG_TESTS=1 pytest -m long`, else `tier1`."""
    return long if LONG else tier1


def sample_argv(name: str) -> list[str]:
    """The README's `analyze` arguments for one sample, which is read by its
    absolute path."""
    path, args = SAMPLES[name]
    return ["--input", str(ROOT / path), *args]


def sample_config(name: str):
    """The AnalysisConfig the README's `analyze` command builds for one sample."""
    return cli._config_from_args(cli.build_parser().parse_args(["analyze", *sample_argv(name)]))


def run_python(code: str, env=None) -> subprocess.CompletedProcess:
    """Run `code` in a child interpreter that imports netevolve from where
    this one does; `env` (default: this one's) gets that PYTHONPATH."""
    env = {**(os.environ if env is None else env), "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def star(n_leaves: int, label: str = "star") -> GraphSnapshot:
    return GraphSnapshot.from_edge_list(
        label, [("hub", f"leaf{i}", 1) for i in range(n_leaves)]
    )


def complete(n: int, label: str = "K") -> GraphSnapshot:
    names = [f"v{i}" for i in range(n)]
    edges = [(names[i], names[j], 1) for i in range(n) for j in range(i + 1, n)]
    return GraphSnapshot.from_edge_list(label, edges)


def path_graph(n: int, label: str = "P") -> GraphSnapshot:
    return GraphSnapshot.from_edge_list(
        label, [(f"p{i}", f"p{i + 1}", 1) for i in range(n - 1)]
    )


def assortativity_regression() -> GraphSnapshot:
    """Seven linked actors and an isolated one, with exact degree
    assortativity -1/55."""
    links = [
        (0, 1), (0, 4), (0, 6), (1, 2), (1, 3), (1, 5), (2, 3),
        (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6),
    ]
    return GraphSnapshot.from_edge_list(
        "r", [(f"r{i:02d}", f"r{j:02d}", 1) for i, j in links], extra_actors=["z0"]
    )


def random_snapshot(seed: int, max_n: int = 60) -> GraphSnapshot:
    """Random weighted snapshot (possibly disconnected, isolated actors)."""
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    p = rng.uniform(0.02, 0.4)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((f"a{i:03d}", f"a{j:03d}", rng.randint(1, 4)))
    extra = [f"a{i:03d}" for i in range(n)]
    return GraphSnapshot.from_edge_list(f"rand{seed}", edges, extra_actors=extra)


def mixed_model_snapshot(seed: int, max_n: int = 100) -> GraphSnapshot:
    """One of ER/WS/BA with seeded size and parameters."""
    rng = random.Random(seed)
    n = rng.randint(8, max_n)
    model = seed % 3
    if model == 0:
        return erdos_renyi(n, rng.uniform(0.02, 0.3), seed)
    if model == 1:
        k = min(n - 1, rng.choice([2, 4, 6]))
        if k % 2:
            k -= 1
        return watts_strogatz(n, max(k, 2), rng.uniform(0.0, 0.5), seed)
    return barabasi_albert(n, rng.randint(1, min(5, n - 1)), seed)


@pytest.fixture
def k4():
    return complete(4, "K4")


@pytest.fixture
def star5():
    return star(5, "S5")


@pytest.fixture
def p4():
    return path_graph(4, "P4")
