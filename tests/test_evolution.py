import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete, examples, run_python, star
from netevolve import (
    GraphSnapshot,
    InsufficientDataError,
    MetricsRow,
    PowerLawFit,
    SmallWorldThresholds,
    UndefinedMetricError,
    classify_small_world,
    correlate_attachment,
    degree_histogram,
    fit_powerlaw,
    metrics_row,
    normality_gate,
    pearson,
    proxy_series,
    spearman,
    static_attributes,
)
from netevolve.evolution import PROXY_NAMES, ProxyRow, _average_ranks, _normaltest_pvalue
from netevolve.metrics import CENTRALIZATION_KINDS
from oracles import (
    average_ranks_brute,
    correlate_attachment_reference,
    pearson_brute,
    spearman_brute,
)

# Published ten-period series the static-attribute scan must discriminate:
# clustering barely moves while weighted density collapses as N grows.
CLUSTERING_SERIES = [0.79, 0.75, 0.72, 0.74, 0.74, 0.74, 0.74, 0.75, 0.76, 0.76]
ACTORS_SERIES = [818, 1466, 2168, 3220, 4005, 5320, 6623, 7992, 9021, 10130]
WEIGHT_SERIES = [1580, 2903, 3849, 6513, 8476, 11040, 14568, 17735, 20985, 23730]


def rows_from_series(**series):
    length = len(next(iter(series.values())))
    rows = []
    for i in range(length):
        fields = {name: values[i] for name, values in series.items()}
        rows.append(
            MetricsRow(label=f"p{i}", n_actors=10, n_links=9, sum_links=9, **fields)
        )
    return rows


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_hand_computed_value(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [3, 4])

    def test_zero_variance(self):
        with pytest.raises(UndefinedMetricError):
            pearson([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            pearson([bad, 1, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="finite"):
            pearson([1, 2, 3], [1, bad, 2])

    def test_affine_transform_gives_sign(self):
        rng = random.Random(4)
        for _ in range(25):
            x = [rng.uniform(-5, 5) for _ in range(rng.randint(3, 30))]
            if max(x) == min(x):
                continue
            a = rng.uniform(-3, 3)
            if a == 0:
                continue
            y = [a * v + 1.5 for v in x]
            assert pearson(x, y) == pytest.approx(math.copysign(1.0, a), abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 50)
        x = [rng.uniform(-10, 10) for _ in range(n)]
        y = [rng.uniform(-10, 10) for _ in range(n)]
        assert pearson(x, y) == pytest.approx(pearson_brute(x, y), abs=1e-12)


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman([1, 2, 3], [10, 100, 1000]) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_ties_match_rank_then_pearson_oracle(self):
        x = [1, 2, 2, 4]
        y = [1, 2, 3, 4]
        assert spearman(x, y) == pytest.approx(spearman_brute(x, y), abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_oracle_with_ties(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 40)
        x = [rng.randint(0, 8) for _ in range(n)]
        y = [rng.randint(0, 8) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            return
        assert spearman(x, y) == pytest.approx(spearman_brute(x, y), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(9)
        for _ in range(15):
            n = rng.randint(4, 25)
            x = [rng.uniform(0.1, 9) for _ in range(n)]
            y = [rng.uniform(0.1, 9) for _ in range(n)]
            base = spearman(x, y)
            assert spearman([math.exp(v) for v in x], y) == base
            assert spearman(x, [v**3 for v in y]) == base

    def test_constant_series_undefined(self):
        with pytest.raises(UndefinedMetricError):
            spearman([2, 2, 2], [1, 2, 3])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            spearman([1, math.nan, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="NaN"):
            spearman([1, 2, 3], [3, 2, math.nan])

    def test_infinities_rank(self):
        assert spearman([1, math.inf, 2], [1, 3, 2]) == 1.0
        assert spearman([-math.inf, 0, math.inf], [3, 2, 1]) == -1.0


class TestNormalityGate:
    @pytest.mark.parametrize("length", [4, 7, 10, 19])
    def test_short_series_always_spearman(self, length):
        assert normality_gate(list(range(length))) == "spearman"

    def test_bell_shaped_sample_gets_pearson(self):
        rng = random.Random(42)
        sample = [rng.gauss(0, 1) for _ in range(1000)]
        assert normality_gate(sample) == "pearson"

    def test_heavy_tailed_sample_gets_spearman(self):
        rng = random.Random(42)
        sample = [rng.paretovariate(1.5) for _ in range(1000)]
        assert normality_gate(sample) == "spearman"

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            normality_gate([1.0, 2.0])


def _seeded_series(seed):
    """Normal, skewed, heavy-tailed, flat, discrete and offset series. All are
    well conditioned: with a spread a billionth of the mean, scipy's and this
    package's moments both lose ~1e-7 to cancellation and cannot agree to 1e-10."""
    rng = random.Random(seed)
    n = rng.randint(20, 200)
    draw = [
        lambda: rng.gauss(3.0, 2.0),
        lambda: rng.expovariate(1.5),
        lambda: rng.lognormvariate(0.0, 1.0),
        lambda: rng.paretovariate(2.5),
        lambda: rng.uniform(-1.0, 1.0),
        lambda: float(rng.randint(0, 4)),
        lambda: 1e3 + rng.gauss(0.0, 1.0),
    ][seed % 7]
    return [draw() for _ in range(n)]


class TestNormaltestPvalue:
    @pytest.mark.parametrize("seed", range(70))
    def test_matches_scipy(self, seed):
        stats = pytest.importorskip("scipy.stats")
        sample = _seeded_series(seed)
        expected = float(stats.normaltest(sample).pvalue)
        assert _normaltest_pvalue(sample) == pytest.approx(expected, rel=1e-10, abs=0.0)
        assert normality_gate(sample) == ("spearman" if expected < 0.05 else "pearson")

    def test_constant_series_never_rejects(self):
        assert math.isnan(_normaltest_pvalue([2.5] * 30))
        assert normality_gate([2.5] * 30) == "pearson"

    @pytest.mark.parametrize(
        "series",
        [[0.0] * 25 + [2.379264640374309e-124], [0.0] * 7 + [1e-100], [0.0] * 7 + [1e-160]],
        ids=["m2-cubed-underflows", "m2-squared-underflows", "m2-subnormal"],
    )
    def test_underflowing_spread_never_rejects(self, series):
        # each spread is above the constant-series guard, but its m2 squared
        # is 0.0; scipy.stats.normaltest gives NaN for the first
        assert math.isnan(_normaltest_pvalue(series))

    def test_zero_kurtosis_denominator_never_rejects(self):
        # the kurtosis transform's 1 + k * sqrt(2 / (a - 4)) is exactly 0.0
        # here, and would divide (1 - 2 / a) by zero
        series = [0.0] * 25 + [1.0] * 24 + [1.5176726195888306]
        assert math.isnan(_normaltest_pvalue(series))
        assert normality_gate(series) == "pearson"
        stats = pytest.importorskip("scipy.stats")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # scipy warns of its division by zero
            assert math.isnan(stats.normaltest(series).pvalue)

    def test_needs_eight_points(self):
        with pytest.raises(ValueError):
            _normaltest_pvalue([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])

    @pytest.mark.parametrize("module", ["netevolve", "netevolve.cli"])
    def test_import_loads_no_numpy_scipy_logging_or_dataclasses(self, module):
        # dataclasses would bring inspect, ast, dis and tokenize with it
        unloaded = {"numpy", "scipy", "logging", "dataclasses", "inspect", "ast", "dis", "tokenize"}
        code = f"import sys, {module}; print(sorted({unloaded!r} & set(sys.modules)))"
        result = run_python(code)
        assert result.stdout == "[]\n", result.stderr

    def test_assigning_to_a_record_still_raises_frozen_instance_error(self):
        # dataclasses is loaded only to raise its error
        code = (
            "import sys, netevolve\n"
            "print('dataclasses' in sys.modules)\n"
            "try:\n"
            "    netevolve.InteractionEvent(1, 'A', 'B').a = 'C'\n"
            "except AttributeError as exc:\n"
            "    import dataclasses\n"
            "    print(type(exc) is dataclasses.FrozenInstanceError, exc)\n"
        )
        result = run_python(code)
        assert result.stdout == "False\nTrue cannot assign to field 'a'\n", result.stderr


def proxies_of(snapshots):
    """proxy_series over each snapshot's metrics row and power-law fit."""
    fits = []
    for s in snapshots:
        try:
            fits.append(fit_powerlaw(degree_histogram(s)))
        except InsufficientDataError:
            fits.append(None)
    return proxy_series([metrics_row(s) for s in snapshots], fits)


class TestProxySeries:
    def test_k4_sequence(self):
        rows = proxies_of([complete(4, "a"), complete(4, "b")])
        for row in rows:
            assert row.homophily is None
            assert row.embedding == pytest.approx(3.0)
            assert row.multi_connectivity == pytest.approx(3.0)
            assert row.pref_attachment is None  # single-degree histogram

    def test_star_hand_values(self):
        (row,) = proxies_of([star(5)])
        assert row.homophily == pytest.approx(-1.0, abs=1e-12)
        assert row.embedding == pytest.approx(2 * 5 / 6)
        assert row.multi_connectivity == pytest.approx((1.0 + 5 * 5.0) / 6)
        assert row.pref_attachment is not None

    def test_ba_sequence_cross_checked(self):
        from netevolve.generators import barabasi_albert
        from netevolve import degree_histogram
        from oracles import loglog_fit_brute

        snapshots = [barabasi_albert(n, 2, seed=3) for n in (100, 500, 1000)]
        rows = proxies_of(snapshots)
        for row, snapshot in zip(rows, snapshots):
            expected, _, _ = loglog_fit_brute(degree_histogram(snapshot))
            assert row.pref_attachment == pytest.approx(expected, abs=1e-9)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            proxy_series([], [])


class TestCorrelateAttachment:
    def _rows(self, degree, betw=None, close=None):
        betw = betw if betw is not None else degree
        close = close if close is not None else degree
        return [
            MetricsRow(
                label=f"p{i}",
                n_actors=50,
                n_links=60,
                sum_links=70,
                centralization_degree=degree[i],
                centralization_betweenness=betw[i],
                centralization_closeness=close[i],
            )
            for i in range(len(degree))
        ]

    def _proxies(self, labels, **kwargs):
        return [
            ProxyRow(
                label,
                pref_attachment=kwargs["pref_attachment"][i],
                homophily=kwargs["homophily"][i],
                embedding=kwargs["embedding"][i],
                multi_connectivity=kwargs["multi_connectivity"][i],
            )
            for i, label in enumerate(labels)
        ]

    def test_identical_series_tie_breaks_alphabetically(self):
        series = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        rows = self._rows(series)
        proxies = self._proxies(
            [r.label for r in rows],
            pref_attachment=series,
            homophily=series,
            embedding=series,
            multi_connectivity=series,
        )
        report = correlate_attachment(proxies, rows)
        for pair in report.pairs:
            assert pair.status == "ok"
            assert pair.coefficient == pytest.approx(1.0)
            assert pair.method == "spearman"  # 10 periods -> small-n gate
        assert report.ranked_drivers == (
            "embedding",
            "homophily",
            "multi_connectivity",
            "pref_attachment",
        )

    def test_constant_proxy_excluded(self):
        series = [0.1, 0.2, 0.3, 0.4]
        rows = self._rows(series)
        proxies = self._proxies(
            [r.label for r in rows],
            pref_attachment=[2.0] * 4,
            homophily=series,
            embedding=series,
            multi_connectivity=series,
        )
        report = correlate_attachment(proxies, rows)
        flat = [p for p in report.pairs if p.proxy == "pref_attachment"]
        assert all(p.status == "undefined-metric" for p in flat)
        assert "pref_attachment" not in report.ranked_drivers

    def test_undefined_periods_reduce_n(self):
        series = [0.1, 0.2, 0.3, 0.4, 0.5]
        rows = self._rows(series)
        homophily = [None, None, None, 0.4, 0.5]
        proxies = self._proxies(
            [r.label for r in rows],
            pref_attachment=series,
            homophily=homophily,
            embedding=series,
            multi_connectivity=series,
        )
        report = correlate_attachment(proxies, rows)
        pair = next(p for p in report.pairs if p.proxy == "homophily" and p.centralization == "degree")
        assert pair.status == "insufficient-data"
        assert pair.n == 2

    def test_planted_driver_ranks_first(self):
        rng = random.Random(17)
        degree = [0.1 + 0.05 * i for i in range(10)]
        rows = self._rows(degree)
        planted = [math.exp(v) for v in degree]  # monotone transform
        noise = lambda: [rng.uniform(0, 1) for _ in range(10)]
        proxies = self._proxies(
            [r.label for r in rows],
            pref_attachment=planted,
            homophily=noise(),
            embedding=noise(),
            multi_connectivity=noise(),
        )
        report = correlate_attachment(proxies, rows)
        assert report.ranked_drivers[0] == "pref_attachment"

    def test_label_misalignment_rejected(self):
        rows = self._rows([0.1, 0.2, 0.3])
        proxies = self._proxies(
            ["x", "y", "z"],
            pref_attachment=[1, 2, 3],
            homophily=[1, 2, 3],
            embedding=[1, 2, 3],
            multi_connectivity=[1, 2, 3],
        )
        with pytest.raises(ValueError):
            correlate_attachment(proxies, rows)

    def test_report_is_deterministic(self):
        series = [0.3, 0.1, 0.4, 0.2, 0.5]
        rows = self._rows(series)
        proxies = self._proxies(
            [r.label for r in rows],
            pref_attachment=[5, 4, 3, 2, 1],
            homophily=[1, 3, 2, 5, 4],
            embedding=[2, 2, 3, 3, 4],
            multi_connectivity=[0.5, 0.1, 0.9, 0.2, 0.7],
        )
        assert correlate_attachment(proxies, rows) == correlate_attachment(proxies, rows)


# A small pool makes repeated values and both signed zeros common.
_POOL = [0.0, -0.0, 0.5, 1.0, -2.0]
_NUMBERS = st.one_of(st.sampled_from(_POOL), st.floats(-1e3, 1e3))
_VALUES = st.one_of(st.sampled_from([None, *_POOL]), st.floats(-1e3, 1e3))


@st.composite
def _periods(draw):
    """Aligned proxy and metrics rows over 3-30 periods. Each series is
    drawn value by value, with None holes, or one in four is one value
    repeated."""
    n = draw(st.integers(3, 30))

    def series():
        if draw(st.integers(0, 3)) == 0:
            return [draw(_VALUES)] * n
        return draw(st.lists(_VALUES, min_size=n, max_size=n))

    proxies = {name: series() for name in PROXY_NAMES}
    centralization = {f"centralization_{kind}": series() for kind in CENTRALIZATION_KINDS}
    proxy_rows = [
        ProxyRow(f"p{i}", **{name: values[i] for name, values in proxies.items()})
        for i in range(n)
    ]
    rows = [
        MetricsRow(
            label=f"p{i}", n_actors=10, n_links=9, sum_links=9,
            **{name: values[i] for name, values in centralization.items()},
        )
        for i in range(n)
    ]
    return proxy_rows, rows


@pytest.mark.long
class TestEvolutionOracles:
    @settings(max_examples=examples(200, 3000), deadline=None)
    @given(st.lists(_NUMBERS, min_size=1, max_size=30))
    def test_ranks_match_brute(self, values):
        assert _average_ranks(values) == average_ranks_brute(values)

    @settings(max_examples=examples(200, 3000), deadline=None)
    @given(_periods())
    def test_report_matches_reference(self, periods):
        proxies, rows = periods
        assert correlate_attachment(proxies, rows) == correlate_attachment_reference(proxies, rows)


class TestStaticAttributes:
    def test_published_clustering_series_is_static(self):
        rows = rows_from_series(clustering=CLUSTERING_SERIES)
        checks = {c.metric: c for c in static_attributes(rows, 0.10)}
        assert checks["clustering"].static is True

    def test_published_density_series_is_not_static(self):
        densities = [2 * w / (n * (n - 1)) for n, w in zip(ACTORS_SERIES, WEIGHT_SERIES)]
        rows = rows_from_series(density_weighted=densities)
        checks = {c.metric: c for c in static_attributes(rows, 0.10)}
        assert checks["density_weighted"].static is False

    def test_constant_series_static_for_any_tolerance(self):
        rows = rows_from_series(clustering=[0.4] * 6)
        for tolerance in (0.001, 0.5, 1.0):
            checks = {c.metric: c for c in static_attributes(rows, tolerance)}
            assert checks["clustering"].static is True

    def test_boundary_behaviour(self):
        rng = random.Random(12)
        for _ in range(20):
            mean = rng.uniform(0.5, 5)
            tolerance = rng.uniform(0.05, 0.5)
            spread = rng.uniform(0, 2)
            series = [mean - spread / 2, mean + spread / 2, mean]
            rows = rows_from_series(avg_distance=series)
            checks = {c.metric: c for c in static_attributes(rows, tolerance)}
            actual_mean = sum(series) / 3
            expected = spread <= tolerance * actual_mean
            assert checks["avg_distance"].static == expected

    def test_exponent_series_included_when_fits_given(self):
        rows = rows_from_series(clustering=[0.4, 0.4])
        fits = [PowerLawFit(1.5, 2.0, 0.9, 5), PowerLawFit(1.6, 2.0, 0.9, 5)]
        checks = {c.metric: c for c in static_attributes(rows, 0.10, fits)}
        assert "power_law_exponent" in checks

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            static_attributes(rows_from_series(clustering=[0.4]), 0.10)

    def test_tolerance_range_enforced(self):
        rows = rows_from_series(clustering=[0.4, 0.4])
        with pytest.raises(ValueError):
            static_attributes(rows, 0.0)


class TestClassifySmallWorld:
    def academic_2010_row(self):
        n, links, weight = 10130, 22962, 23730
        return MetricsRow(
            label="2010",
            n_actors=n,
            n_links=links,
            sum_links=weight,
            density_weighted=2 * weight / (n * (n - 1)),
            density_simple=2 * links / (n * (n - 1)),
            clustering=0.76,
            diameter=9,
            avg_distance=1.44,
        )

    def disaster_t4_row(self):
        n, links, weight = 98, 153, 286
        return MetricsRow(
            label="T1-T4",
            n_actors=n,
            n_links=links,
            sum_links=weight,
            density_weighted=2 * weight / (n * (n - 1)),
            density_simple=2 * links / (n * (n - 1)),
            clustering=0.17,
            diameter=5,
            avg_distance=2.93,
        )

    def test_academic_final_year_is_small_world(self):
        verdict = classify_small_world(
            self.academic_2010_row(), PowerLawFit(2.06, 3.2, 0.85, 30)
        )
        assert verdict.density_low is True
        assert verdict.clustering_high is True
        assert verdict.diameter_small is True
        assert verdict.scale_free is True
        assert verdict.verdict is True

    def test_disaster_low_clustering_fails(self):
        verdict = classify_small_world(
            self.disaster_t4_row(), PowerLawFit(1.11, 1.5, 0.8, 12)
        )
        assert verdict.clustering_high is False
        assert verdict.verdict is False

    def test_dense_graph_fails_density(self):
        row = MetricsRow(
            label="K4", n_actors=4, n_links=6, sum_links=6,
            density_simple=1.0, clustering=1.0, diameter=1,
        )
        verdict = classify_small_world(row, PowerLawFit(1.2, 1.0, 0.9, 4))
        assert verdict.density_low is False
        assert verdict.verdict is False

    def test_missing_fit_leaves_verdict_undefined(self):
        verdict = classify_small_world(self.academic_2010_row(), None)
        assert verdict.scale_free is None
        assert verdict.verdict is None

    def test_undefined_measures_leave_their_flags_undefined(self):
        def flags(row):
            v = classify_small_world(row, None)
            return v.density_low, v.clustering_high, v.diameter_small, v.scale_free, v.verdict

        # three isolated actors: density 0, and no clustering, diameter or fit
        isolated = metrics_row(GraphSnapshot("x", ["a", "b", "c"], {}))
        assert flags(isolated) == (True, None, None, None, None)
        assert flags(MetricsRow("x", 1, 0, 0)) == (None,) * 5

    def test_verdict_is_conjunction_of_flags(self):
        rng = random.Random(31)
        for _ in range(30):
            row = MetricsRow(
                label="r",
                n_actors=rng.randint(10, 500),
                n_links=rng.randint(10, 900),
                sum_links=1000,
                density_simple=rng.uniform(0, 0.2),
                clustering=rng.uniform(0, 1),
                diameter=rng.randint(1, 20),
            )
            fit = PowerLawFit(rng.uniform(0, 3), 1.0, rng.uniform(0, 1), 9)
            verdict = classify_small_world(row, fit)
            flags = [
                verdict.density_low,
                verdict.clustering_high,
                verdict.diameter_small,
                verdict.scale_free,
            ]
            assert verdict.verdict == all(flags)
            assert verdict._asdict()["verdict"] == verdict.verdict

    def test_thresholds_are_configurable(self):
        strict = SmallWorldThresholds(clustering_min=0.9)
        verdict = classify_small_world(
            self.academic_2010_row(), PowerLawFit(2.06, 3.2, 0.85, 30), strict
        )
        assert verdict.clustering_high is False

    # Each threshold is a CLI flag, so a value can equal it exactly. Density
    # must stay below --sw-density-max; clustering and r² may equal their
    # floors --sw-clustering-min and --sw-r2-min.
    def test_density_at_its_maximum_is_not_low(self):
        row = self.academic_2010_row()
        at = SmallWorldThresholds(density_max=row.density_simple)
        verdict = classify_small_world(row, PowerLawFit(2.06, 3.2, 0.85, 30), at)
        assert verdict.density_low is False
        assert classify_small_world(row, None).density_low is True

    def test_clustering_at_its_minimum_is_high(self):
        row = self.academic_2010_row()
        at = SmallWorldThresholds(clustering_min=row.clustering)
        assert classify_small_world(row, None, at).clustering_high is True

    def test_r_squared_at_its_minimum_passes(self):
        fit = PowerLawFit(2.06, 3.2, 0.85, 30)
        at = SmallWorldThresholds(r_squared_min=fit.r_squared)
        assert classify_small_world(self.academic_2010_row(), fit, at).scale_free is True
