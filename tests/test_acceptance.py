"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All expected values are either published table values, hand arithmetic, or
recomputed in-test by an independent brute-force oracle.
"""

import io
import itertools
import math
import random
import time
from pathlib import Path

import pytest

from conftest import mixed_model_snapshot, sample_config
from netevolve import (
    GraphSnapshot,
    MetricsRow,
    PowerLawFit,
    PublicationRecord,
    barabasi_albert,
    build_cumulative_snapshots,
    classify_small_world,
    correlate_attachment,
    degree_histogram,
    density_weighted,
    erdos_renyi,
    fit_powerlaw,
    path_stats,
    pearson,
    spearman,
    static_attributes,
)
from netevolve.evolution import ProxyRow
from netevolve.pipeline import bundle_to_csv, bundle_to_json, run_analysis
from oracles import floyd_warshall_path_stats, pearson_brute, spearman_brute


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def snapshot_with_totals(n: int, weight: int) -> GraphSnapshot:
    """Path over n actors carrying total weight `weight` (>= n-1)."""
    edges = [(f"v{i:05d}", f"v{i + 1:05d}", 1) for i in range(n - 1)]
    extra = weight - (n - 1)
    assert extra >= 0
    a, b, _ = edges[0]
    edges[0] = (a, b, 1 + extra)
    return GraphSnapshot.from_edge_list("synthetic", edges)


def test_criterion_1_density_formula_reproduction():
    published = [(43, 73, 8.08), (58, 153, 9.26), (76, 213, 7.47), (98, 286, 6.02)]
    ok = True
    for n, w, expected_pct in published:
        value_pct = 100 * density_weighted(snapshot_with_totals(n, w))
        ok = ok and abs(value_pct - expected_pct) <= 0.005
    first_year_pct = 100 * density_weighted(snapshot_with_totals(818, 1580))
    ok = ok and round(first_year_pct, 1) == 0.5
    report("1 density-formula-reproduction", ok, f"first-year {first_year_pct:.4f}%")


def test_criterion_2_path_stat_oracle_equivalence():
    started = time.time()
    checked = 0
    seed = 0
    ok = True
    while checked < 200:
        snapshot = mixed_model_snapshot(seed, max_n=100)
        seed += 1
        if snapshot.n_links == 0:
            continue
        diameter, avg = path_stats(snapshot)
        oracle_diameter, oracle_avg = floyd_warshall_path_stats(snapshot)
        if diameter != oracle_diameter or abs(avg - oracle_avg) > 1e-9:
            ok = False
            break
        checked += 1
    elapsed = time.time() - started
    ok = ok and elapsed < 30
    report("2 path-stat-oracle-equivalence", ok, f"{checked} graphs in {elapsed:.1f}s")


@pytest.mark.parametrize("exponent", [1.0, 1.5, 2.0, 3.0])
def test_criterion_3_exact_powerlaw_recovery(exponent):
    hist = {k: 409600.0 * k**-exponent for k in (1, 2, 4, 8, 16)}
    fit = fit_powerlaw(hist)
    ok = abs(fit.exponent - exponent) <= 1e-9 and abs(fit.r_squared - 1.0) <= 1e-9
    report(
        f"3 exact-powerlaw-recovery[{exponent}]",
        ok,
        f"recovered {fit.exponent:.12f}",
    )


def test_criterion_4_ba_scale_free_detection():
    started = time.time()
    n, m = 5000, 3
    seeds = (1, 2, 3, 4, 5)
    ba_ok = True
    er_lower = 0
    details = []
    for seed in seeds:
        ba = barabasi_albert(n, m, seed=seed)
        p_matched = ba.n_links / (n * (n - 1) / 2)
        er = erdos_renyi(n, p_matched, seed=seed)
        ba_fit = fit_powerlaw(degree_histogram(ba))
        er_fit = fit_powerlaw(degree_histogram(er))
        ba_ok = ba_ok and 1.5 <= ba_fit.exponent <= 3.5 and ba_fit.r_squared > 0.7
        if er_fit.r_squared < ba_fit.r_squared:
            er_lower += 1
        details.append(f"{ba_fit.r_squared:.2f}/{er_fit.r_squared:.2f}")
    elapsed = time.time() - started
    ok = ba_ok and er_lower >= 4 and elapsed < 60
    report(
        "4 ba-scale-free-detection",
        ok,
        f"r2 ba/er per seed: {' '.join(details)}, {elapsed:.1f}s",
    )


def test_criterion_5_small_world_verdict_reproduction():
    academic = MetricsRow(
        label="2010", n_actors=10130, n_links=22962, sum_links=23730,
        density_simple=0.0004, clustering=0.76, diameter=9, avg_distance=1.44,
    )
    academic_verdict = classify_small_world(academic, PowerLawFit(2.06, 3.2, 0.85, 30))
    disaster = MetricsRow(
        label="T1-T4", n_actors=98, n_links=153, sum_links=286,
        density_simple=2 * 153 / (98 * 97), clustering=0.17, diameter=5,
        avg_distance=2.93,
    )
    disaster_verdict = classify_small_world(disaster, PowerLawFit(1.11, 1.5, 0.8, 12))
    ok = academic_verdict.verdict is True and disaster_verdict.verdict is False
    ok = ok and disaster_verdict.clustering_high is False
    report(
        "5 small-world-verdict-reproduction",
        ok,
        f"academic={academic_verdict.verdict} disaster={disaster_verdict.verdict}",
    )


def test_criterion_6_static_attribute_detection():
    clustering = [0.79, 0.75, 0.72, 0.74, 0.74, 0.74, 0.74, 0.75, 0.76, 0.76]
    actors = [818, 1466, 2168, 3220, 4005, 5320, 6623, 7992, 9021, 10130]
    weights = [1580, 2903, 3849, 6513, 8476, 11040, 14568, 17735, 20985, 23730]
    rows = [
        MetricsRow(
            label=str(2001 + i), n_actors=actors[i], n_links=0, sum_links=weights[i],
            clustering=clustering[i],
            density_weighted=2 * weights[i] / (actors[i] * (actors[i] - 1)),
        )
        for i in range(10)
    ]
    checks = {c.metric: c for c in static_attributes(rows, 0.10)}
    ok = checks["clustering"].static is True and checks["density_weighted"].static is False
    report(
        "6 static-attribute-detection",
        ok,
        f"clustering spread {checks['clustering'].spread:.3f}",
    )


def test_criterion_7_clique_expansion_correctness():
    ok = True
    rng = random.Random(2024)
    for _ in range(30):
        pool = [f"auth{i}" for i in range(24)]
        records = []
        for i in range(rng.randint(1, 50)):
            team = tuple(rng.sample(pool, rng.randint(1, 8)))
            records.append(PublicationRecord(f"P{i}", rng.randint(0, 9), team))
        (snapshot,) = build_cumulative_snapshots([], [9], ["p"], publications=records)
        expected: dict[tuple[str, str], int] = {}
        expected_actors = set()
        for record in records:
            expected_actors.update(record.authors)
            for a, b in itertools.combinations(record.authors, 2):
                key = (a, b) if a <= b else (b, a)
                expected[key] = expected.get(key, 0) + 1
        if snapshot.edges != expected or snapshot.actors != frozenset(expected_actors):
            ok = False
            break
    report("7 clique-expansion-correctness", ok)


def test_criterion_8_correlation_routines():
    rng = random.Random(11)
    ok = True
    for _ in range(100):
        n = rng.randint(3, 60)
        x = [rng.uniform(-50, 50) for _ in range(n)]
        y = [rng.uniform(-50, 50) for _ in range(n)]
        if abs(pearson(x, y) - pearson_brute(x, y)) > 1e-12:
            ok = False
        if abs(spearman(x, y) - spearman_brute(x, y)) > 1e-12:
            ok = False
    # monotone-transform invariance is exact, not approximate
    for _ in range(20):
        n = rng.randint(4, 30)
        x = [rng.uniform(0.1, 10) for _ in range(n)]
        y = [rng.uniform(0.1, 10) for _ in range(n)]
        base = spearman(x, y)
        if spearman([math.exp(v) for v in x], y) != base:
            ok = False
        if spearman(x, [v**3 for v in y]) != base:
            ok = False
    # planted driver must rank first
    degree_series = [0.1 + 0.05 * i for i in range(10)]
    rows = [
        MetricsRow(
            label=f"p{i}", n_actors=40, n_links=50, sum_links=60,
            centralization_degree=degree_series[i],
            centralization_betweenness=degree_series[i],
            centralization_closeness=degree_series[i],
        )
        for i in range(10)
    ]
    noise_pref = [rng.uniform(0, 1) for _ in range(10)]
    noise_homophily = [rng.uniform(0, 1) for _ in range(10)]
    noise_multi = [rng.uniform(0, 1) for _ in range(10)]
    proxies = [
        ProxyRow(
            f"p{i}",
            pref_attachment=noise_pref[i],
            homophily=noise_homophily[i],
            embedding=math.exp(degree_series[i]),
            multi_connectivity=noise_multi[i],
        )
        for i in range(10)
    ]
    ranked = correlate_attachment(proxies, rows).ranked_drivers
    ok = ok and ranked[0] == "embedding"
    report("8 correlation-routines", ok, f"planted driver ranked: {ranked[0]}")


def test_criterion_9_determinism():
    config = sample_config("disaster")
    data = Path(config.input_path).read_bytes()
    first, second = (run_analysis(config, io.BytesIO(data)) for _ in range(2))
    ok = (
        bundle_to_csv(first) == bundle_to_csv(second)
        and bundle_to_json(first) == bundle_to_json(second)
    )
    report("9 determinism", ok)
