import math

import pytest

from netevolve import (
    avg_clustering,
    barabasi_albert,
    erdos_renyi,
    fit_powerlaw,
    degree_histogram,
    path_stats,
    watts_strogatz,
)
from netevolve.rng import SplitMix64

SEED_42_REFERENCE = [
    13679457532755275413,
    2949826092126892291,
    5139283748462763858,
]


class TestSplitMix64:
    def test_seed_42_reference_outputs(self):
        rng = SplitMix64(42)
        assert [rng.next_u64() for _ in range(3)] == SEED_42_REFERENCE

    def test_random_unit_interval(self):
        rng = SplitMix64(7)
        values = [rng.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_randrange_bounds_and_determinism(self):
        a, b = SplitMix64(5), SplitMix64(5)
        draws_a = [a.randrange(13) for _ in range(500)]
        draws_b = [b.randrange(13) for _ in range(500)]
        assert draws_a == draws_b
        assert set(draws_a) <= set(range(13))

    def test_randrange_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(1).randrange(0)


class TestErdosRenyi:
    def test_p_zero_empty(self):
        assert erdos_renyi(20, 0.0, seed=1).n_links == 0

    def test_p_one_complete(self):
        g = erdos_renyi(12, 1.0, seed=1)
        assert g.n_links == 12 * 11 // 2

    def test_edge_count_within_binomial_bound(self):
        n, p = 2000, 0.005
        g = erdos_renyi(n, p, seed=123)
        mean = n * (n - 1) / 2 * p
        sigma = math.sqrt(n * (n - 1) / 2 * p * (1 - p))
        assert abs(g.n_links - mean) < 4 * sigma

    def test_same_seed_identical(self):
        assert erdos_renyi(100, 0.05, seed=9) == erdos_renyi(100, 0.05, seed=9)

    def test_different_seed_differs(self):
        assert erdos_renyi(100, 0.05, seed=9) != erdos_renyi(100, 0.05, seed=10)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            erdos_renyi(2, 0.5, seed=1)
        with pytest.raises(ValueError):
            erdos_renyi(10, 1.5, seed=1)


class TestWattsStrogatz:
    def test_lattice_degrees_and_clustering(self):
        g = watts_strogatz(10, 4, 0.0, seed=1)
        assert all(g.degree(v) == 4 for v in g.actors)
        # ring lattice closed form 3(k-2)/(4(k-1)) = 0.5 for k=4
        assert avg_clustering(g) == pytest.approx(0.5)

    @pytest.mark.parametrize("n,k", [(10, 4), (17, 4), (24, 6), (30, 8)])
    def test_lattice_diameter_matches_bfs(self, n, k):
        g = watts_strogatz(n, k, 0.0, seed=1)
        diameter, _ = path_stats(g)
        assert diameter == math.ceil((n // 2) / (k // 2))

    def test_small_world_regime(self):
        lattice = watts_strogatz(1000, 10, 0.0, seed=4)
        rewired = watts_strogatz(1000, 10, 0.01, seed=4)
        _, lattice_distance = path_stats(lattice)
        _, rewired_distance = path_stats(rewired)
        assert rewired_distance < 0.5 * lattice_distance
        assert avg_clustering(rewired) > 0.7 * avg_clustering(lattice)

    def test_rewiring_preserves_edge_count(self):
        g = watts_strogatz(50, 6, 0.5, seed=2)
        assert g.n_links == 50 * 3

    def test_full_rewiring_is_valid_graph(self):
        g = watts_strogatz(40, 4, 1.0, seed=3)
        assert g.n_links == 40 * 2
        assert sum(g.degree(v) for v in g.actors) == 2 * g.n_links

    def test_same_seed_identical(self):
        assert watts_strogatz(60, 4, 0.3, seed=5) == watts_strogatz(60, 4, 0.3, seed=5)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            watts_strogatz(10, 3, 0.1, seed=1)  # odd k
        with pytest.raises(ValueError):
            watts_strogatz(10, 10, 0.1, seed=1)  # k >= n
        with pytest.raises(ValueError):
            watts_strogatz(10, 4, -0.1, seed=1)
        with pytest.raises(ValueError, match="^need n >= 3$"):
            watts_strogatz(2, 2, 0.1, seed=1)


class TestBarabasiAlbert:
    def test_seed_clique_only(self):
        g = barabasi_albert(4, 3, seed=1)
        assert g.n_links == 6
        assert all(g.degree(v) == 3 for v in g.actors)

    @pytest.mark.parametrize("n,m", [(10, 1), (50, 2), (200, 3), (500, 5)])
    def test_edge_count_identity(self, n, m):
        g = barabasi_albert(n, m, seed=7)
        assert g.n_links == m * (m + 1) // 2 + (n - m - 1) * m

    def test_min_degree_at_least_m(self):
        g = barabasi_albert(300, 3, seed=2)
        assert min(g.degree(v) for v in g.actors) >= 3

    def test_scale_free_fit(self):
        g = barabasi_albert(5000, 3, seed=42)
        fit = fit_powerlaw(degree_histogram(g))
        assert 1.5 <= fit.exponent <= 3.5
        assert fit.r_squared > 0.7

    def test_same_seed_identical(self):
        assert barabasi_albert(200, 2, seed=6) == barabasi_albert(200, 2, seed=6)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            barabasi_albert(10, 0, seed=1)
        with pytest.raises(ValueError):
            barabasi_albert(10, 10, seed=1)
        with pytest.raises(ValueError, match="^need n >= 3$"):
            barabasi_albert(2, 1, seed=1)
