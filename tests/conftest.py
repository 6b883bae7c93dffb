import random

import pytest

from netevolve import GraphSnapshot
from netevolve.generators import barabasi_albert, erdos_renyi, watts_strogatz


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
