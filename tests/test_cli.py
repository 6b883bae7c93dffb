import errno
import importlib.util
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import tomllib
from contextlib import nullcontext
from dataclasses import FrozenInstanceError
from pathlib import Path
from typing import NamedTuple

import pytest

import netevolve.powerlaw
from conftest import COAUTHORS, DISASTER, ROOT, SAMPLES, run_python, sample_argv, sample_config
from netevolve.cli import main
from netevolve.pipeline import (
    CSV_COLUMNS,
    AnalysisConfig,
    bundle_to_csv,
    bundle_to_json,
    load_snapshots,
    run_analysis,
)
from netevolve.evolution import SmallWorldThresholds
from netevolve.generators import barabasi_albert, erdos_renyi, watts_strogatz
from netevolve.ingest import parse_edge_events_text
from oracles import proxies_by_recomputation

GOLDEN = ROOT / "tests" / "golden"


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "netevolve", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def padded_records(data):
    """CRLF line ends, a blank line after every fourth record, every third
    record padded with spaces and tabs, and a copy of the first record
    behind a form feed, which is not JSON whitespace: one warning, no
    record."""
    lines = data.removesuffix(b"\n").split(b"\n")
    out = b""
    for nr, line in enumerate(lines, 1):
        pad = b"" if nr % 3 else b" \t"
        out += pad + line + pad + b"\r\n" + (b"" if nr % 4 else b"\r\n")
    return out + b"\f" + lines[0] + b"\r\n"


def padded_labels(data):
    """CRLF line ends, a blank line after every fourth row, every third a
    label wrapped in spaces and tabs, and a space before every b label: the
    labels trim to the same actors."""
    header, *rows = data.removesuffix(b"\n").split(b"\n")
    out = header + b"\r\n"
    for i, row in enumerate(rows, 1):
        time, a, b, *rest = row.split(b",")
        if i % 3 == 0:
            a = b" \t" + a + b"\t "
        out += b",".join([time, a, b" " + b, *rest]) + b"\r\n" + (b"" if i % 4 else b"\r\n")
    return out


def cr_only(data):
    """Every LF a bare CR, which the CSV decoder must end a line at too."""
    return data.replace(b"\n", b"\r")


class Run(NamedTuple):
    """One row of committed output. `input` is a bundled sample by its path
    from the repository root, a (copy, sample) pair whose copy function
    writes a changed copy of the sample, the arguments of a `generate` call
    that writes the input, or None. Each command's arguments may name
    "{input}" and "{out}", the run's output directory. `goldens` maps each
    output, a file in "{out}" or "stdout" (all the commands' stdout), to the
    golden in tests/golden it must equal byte for byte."""

    input: str | tuple | list | None
    commands: list[list[str]]
    goldens: dict[str, str]


def readme_commands(sample):
    """The README's `analyze` command on a sample as a CSV table and as a
    JSON bundle, and `report` on that bundle."""
    path, args = SAMPLES[sample]
    analyze = ["analyze", "--input", "{input}", *args]
    return (
        [*analyze, "--out", "{out}/table.csv"],
        [*analyze, "--format", "json", "--out", "{out}/bundle.json"],
        ["report", "--bundle", "{out}/bundle.json"],
    )


def sample_runs(sample, stem):
    """The README's commands on a bundled sample, one row for each output:
    the table, the bundle, and the report of that bundle."""
    path = SAMPLES[sample][0]
    table, bundle, report = readme_commands(sample)
    return {
        f"{sample}-table": Run(path, [table], {"table.csv": f"{stem}_report.csv"}),
        f"{sample}-bundle": Run(path, [bundle], {"bundle.json": f"{stem}_bundle.json"}),
        f"{sample}-report": Run(path, [bundle, report], {"stdout": f"{stem}_report.txt"}),
    }


def copy_run(sample, stem, copy):
    """The README's commands on a copy of a sample. A copy's bundle names
    the copy, so only its table and report are compared."""
    return Run(
        (copy, SAMPLES[sample][0]),
        list(readme_commands(sample)),
        {"table.csv": f"{stem}_report.csv", "stdout": f"{stem}_report.txt"},
    )


def generated(golden, *args):
    """`generate` on 40 actors with seed 3, its edge-event CSV on stdout."""
    return Run(None, [["generate", "-n", "40", "--seed", "3", *args]], {"stdout": golden})


RUNS = {
    **sample_runs("disaster", "disaster"),
    **sample_runs("coauthorship", "coauthorship_yearly"),
    "coauthorship-padded-crlf": copy_run("coauthorship", "coauthorship_yearly", padded_records),
    "disaster-padded-crlf": copy_run("disaster", "disaster", padded_labels),
    "disaster-cr": copy_run("disaster", "disaster", cr_only),
    # BA(800, 3) cut into 8 periods of about 300 links: up to 13 batches of
    # 64 sources a period, whose widest levels find thousands of
    # shortest-path DAG edges from the sources' bits, which neither bundled
    # sample reaches
    "ba800": Run(
        ["generate", "--model", "ba", "-n", "800", "-m", "3", "--seed", "7"],
        [[
            "analyze", "--input", "{input}", "--breakpoints", "298,597,896,1196,1495,1794,2094,2393",
            "--out", "{out}/table.csv",
        ]],
        {"table.csv": "ba800_growth_report.csv"},
    ),
    "disaster-fit": Run(
        SAMPLES["disaster"][0],
        [["fit", "--input", "{input}", *SAMPLES["disaster"][1], "--out-prefix", "{out}/fit"]],
        {
            "stdout": "disaster_fit.txt",
            **{
                f"fit_{label}_{kind}.csv": f"disaster_fit_{label}_{kind}.csv"
                for label in ("T1", "T1-T2", "T1-T3", "T1-T4")
                for kind in ("points", "line")
            },
        },
    ),
    "generate-er": generated("generate_er.csv", "--model", "er", "--p", "0.1"),
    "generate-ws-beta": generated("generate_ws_beta.csv", "--model", "ws", "--k", "4", "--beta", "0.2"),
    "generate-ws": generated("generate_ws.csv", "--model", "ws", "--k", "4"),
    "generate-ba": generated("generate_ba.csv", "--model", "ba", "-m", "2"),
}
# the library graph each `generate` row's golden must hold
LIBRARY_GRAPHS = {
    "generate-er": lambda: erdos_renyi(40, 0.1, 3),
    "generate-ws-beta": lambda: watts_strogatz(40, 4, 0.2, 3),
    "generate-ws": lambda: watts_strogatz(40, 4, 0.0, 3),
    "generate-ba": lambda: barabasi_albert(40, 2, 3),
}
# the `netevolve` script pyproject.toml declares, as "module:function"
SCRIPT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]["netevolve"]


@pytest.mark.parametrize("run", RUNS)
def test_committed_output(run, tmp_path, monkeypatch, capsysbinary):
    """Each row's commands, run in order through the declared `netevolve`
    script from the repository root, write each output byte for byte as its
    golden. A bundle names its input by the path the command gave, so the
    samples' bundles name them as the README does."""
    source, commands, goldens = RUNS[run]
    script = pkgutil.resolve_name(SCRIPT)
    monkeypatch.chdir(ROOT)

    def netevolve(*argv):
        monkeypatch.setattr(sys, "argv", ["netevolve", *argv])
        with pytest.raises(SystemExit) as exit_info:
            script()
        assert exit_info.value.code == 0

    path = tmp_path / "input"
    if isinstance(source, list):
        netevolve(*source, "--out", str(path))
    elif isinstance(source, tuple):
        copy, sample = source
        path.write_bytes(copy((ROOT / sample).read_bytes()))
    elif source is not None:
        path = source
    for argv in commands:
        netevolve(*(arg.format(input=path, out=tmp_path) for arg in argv))
    stdout = capsysbinary.readouterr().out
    for output, golden in goldens.items():
        got = stdout if output == "stdout" else (tmp_path / output).read_bytes()
        assert got == (GOLDEN / golden).read_bytes(), golden


@pytest.mark.parametrize("run", LIBRARY_GRAPHS)
def test_generated_goldens_hold_the_library_graphs(run):
    """A `generate` golden holds exactly the library generator's links, so
    it cannot freeze a wrong graph."""
    events, warnings = parse_edge_events_text((GOLDEN / RUNS[run].goldens["stdout"]).read_text())
    assert warnings == []
    edges = LIBRARY_GRAPHS[run]().edges
    assert len(events) == len(edges)
    assert {(e.a, e.b): e.weight for e in events} == edges


def sample_bundle(name):
    """The bundle of the README's `analyze` command on one sample."""
    config = sample_config(name)
    with open(config.input_path, "rb") as stream:
        return run_analysis(config, stream)


def count_fits(monkeypatch):
    """Route every module's fit_powerlaw through a counter; returns the
    list of calls."""
    original = netevolve.powerlaw.fit_powerlaw
    calls = []

    def counted(hist):
        calls.append(hist)
        return original(hist)

    for name, module in list(sys.modules.items()):
        if name.startswith("netevolve") and getattr(module, "fit_powerlaw", None) is original:
            monkeypatch.setattr(module, "fit_powerlaw", counted)
    return calls


class TestAnalyze:
    def test_disaster_sample_csv_layout(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["analyze", *sample_argv("disaster"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        header = lines[0].split(",")
        for column in (
            "n_actors", "n_links", "sum_links", "density_weighted_pct",
            "clustering", "diameter", "avg_distance", "power_law_exponent",
        ):
            assert column in header
        first = dict(zip(header, lines[1].split(",")))
        assert first["label"] == "T1"
        assert first["n_actors"] == "43"
        assert first["sum_links"] == "73"
        # density printed as a percentage with one decimal
        assert first["density_weighted_pct"] == "8.1"

    def test_yearly_publications(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["analyze", *sample_argv("coauthorship"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == [str(year) for year in range(2001, 2011)]

    def test_yearly_offset_aware_dates_use_utc_years(self, tmp_path):
        # p3 falls in 2019 and p4 in 2022 as UTC instants, though not as
        # local dates
        source = tmp_path / "pubs.jsonl"
        source.write_text(
            '{"pub_id": "p1", "date": "2020-06-01T00:00+00:00", "authors": ["A", "B"]}\n'
            '{"pub_id": "p2", "date": "2021-06-01T00:00+00:00", "authors": ["B", "C"]}\n'
            '{"pub_id": "p3", "date": "2020-01-01T01:00+03:00", "authors": ["C", "D"]}\n'
            '{"pub_id": "p4", "date": "2021-12-31T22:00-05:00", "authors": ["D", "E"]}\n'
        )
        out = tmp_path / "report.csv"
        args = ["analyze", "--input", str(source), "--kind", "publications", "--yearly"]
        assert main([*args, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        rows = [line.split(",")[:3] for line in lines[1:]]
        assert rows == [["2019", "2", "1"], ["2020", "4", "2"], ["2021", "4", "3"], ["2022", "5", "4"]]

    def test_make_samples_reproduces_the_bundled_data(self, tmp_path, monkeypatch):
        script = ROOT / "scripts" / "make_samples.py"
        spec = importlib.util.spec_from_file_location("make_samples", script)
        make_samples = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
        spec.loader.exec_module(make_samples)
        committed = make_samples.DATA_DIR
        monkeypatch.setattr(make_samples, "DATA_DIR", tmp_path)
        make_samples.main()
        for name in ("disaster_events.csv", "coauthorship_sample.jsonl"):
            assert (tmp_path / name).read_bytes() == (committed / name).read_bytes()

    @pytest.mark.parametrize("sample", SAMPLES)
    def test_proxies_match_per_snapshot_recomputation(self, sample):
        config = sample_config(sample)
        data = Path(config.input_path).read_bytes()
        snapshots, _ = load_snapshots(config, io.BytesIO(data))
        proxies = run_analysis(config, io.BytesIO(data)).proxies
        assert [tuple(p) for p in proxies] == proxies_by_recomputation(snapshots)

    def test_fit_powerlaw_runs_once_per_period(self, monkeypatch):
        calls = count_fits(monkeypatch)
        bundle = sample_bundle("coauthorship")
        assert len(bundle.rows) == 10
        assert len(calls) == len(bundle.rows)

    def test_json_output_has_provenance_digest(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", *sample_argv("disaster"), "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["provenance"]["input_digest"]) == 64
        assert len(payload["rows"]) == 4
        assert payload["rows"][3]["n_actors"] == 98

    def test_reads_input_from_a_pipe(self):
        """`--input -` reads stdin as it arrives; a pipe cannot seek."""
        path, args = SAMPLES["coauthorship"]
        result = subprocess.run(
            [sys.executable, "-m", "netevolve", "analyze", "--input", "-", *args],
            input=(ROOT / path).read_bytes(),
            capture_output=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == (GOLDEN / "coauthorship_yearly_report.csv").read_bytes()

    def test_digest_tracks_input_bytes(self, tmp_path):
        import datetime

        original = Path(DISASTER).read_bytes()
        variant = tmp_path / "variant.csv"
        variant.write_bytes(original[:-2] + b"2\n")  # alter one byte
        digests = []
        for path in (DISASTER, str(variant)):
            config = AnalysisConfig(
                input_path=path, breakpoints=[datetime.datetime(2009, 2, 8)]
            )
            bundle = run_analysis(config, io.BytesIO(Path(path).read_bytes()))
            digests.append(bundle.provenance["input_digest"])
        assert digests[0] != digests[1]


class TestGenerateAndPipe:
    def test_generate_ba_csv(self, tmp_path):
        out = tmp_path / "ba.csv"
        assert main(["generate", "--model", "ba", "-n", "50", "-m", "2", "--seed", "7", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "time,a,b,weight"
        assert len(lines) == 1 + (2 * 3 // 2 + 47 * 2)

    def test_generate_requires_model_params(self):
        assert main(["generate", "--model", "er", "-n", "50"]) == 2

    def test_generate_analyze_pipe(self):
        pipeline = subprocess.run(
            f"{sys.executable} -m netevolve generate --model ba -n 1000 -m 2 --seed 7 | "
            f"{sys.executable} -m netevolve analyze --format csv",
            shell=True,
            capture_output=True,
            text=True,
        )
        assert pipeline.returncode == 0
        lines = pipeline.stdout.splitlines()
        assert len(lines) == 2
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["n_actors"] == "1000"
        assert row["small_world"] in {"true", "false"}


class TestFit:
    def test_writes_points_and_line_files(self, tmp_path):
        prefix = str(tmp_path / "fit")
        code = main(
            [
                "fit",
                "--input", DISASTER,
                "--breakpoints", "2009-02-08T00:00",
                "--labels", "all",
                "--out-prefix", prefix,
            ]
        )
        assert code == 0
        points = (tmp_path / "fit_all_points.csv").read_text().splitlines()
        line = (tmp_path / "fit_all_line.csv").read_text().splitlines()
        assert points[0] == "log10_degree,log10_count"
        assert len(points) > 3
        assert len(line) == 3
        # the fitted line endpoints must span the same x range as the points
        xs = [float(row.split(",")[0]) for row in points[1:]]
        line_xs = [float(row.split(",")[0]) for row in line[1:]]
        assert line_xs == [min(xs), max(xs)]

    def test_fits_each_histogram_once(self, tmp_path, monkeypatch):
        calls = count_fits(monkeypatch)
        assert main(["fit", *sample_argv("disaster"), "--out-prefix", str(tmp_path / "fit")]) == 0
        assert len(calls) == 4

    def test_label_with_path_separator_is_config_error(self, tmp_path, capsys):
        source = tmp_path / "events.csv"
        source.write_text("time,a,b\n1,A,B\n2,B,C\n3,C,D\n4,A,D\n5,A,C\n")
        (tmp_path / "out" / "run_").mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        code = main(
            [
                "fit",
                "--input", str(source),
                "--breakpoints", "2,4",
                "--labels", "/../../escaped,ok",
                "--out-prefix", str(tmp_path / "out" / "run"),
            ]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["stage"] == "config"
        assert sorted(tmp_path.rglob("*")) == before


class TestReport:
    def test_renders_saved_bundle(self, tmp_path):
        bundle_path = tmp_path / "bundle.json"
        main(["analyze", *sample_argv("disaster"), "--format", "json", "--out", str(bundle_path)])
        out = tmp_path / "report.txt"
        assert main(["report", "--bundle", str(bundle_path), "--out", str(out)]) == 0
        text = out.read_text()
        assert "ranked_drivers:" in text
        assert "static[clustering]" in text

    def test_row_without_clustering_is_parse_error(self, tmp_path, capsys):
        bundle = json.loads(bundle_to_json(sample_bundle("disaster")))
        del bundle["rows"][0]["clustering"]
        bundle_path = tmp_path / "bundle.json"
        bundle_path.write_text(json.dumps(bundle))
        assert main(["report", "--bundle", str(bundle_path)]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "stage": "parse",
            "error": f"{bundle_path}: not a netevolve bundle (KeyError('clustering'))",
        }

    @pytest.mark.parametrize(
        "field, reason",
        [
            ("rows", "zip() argument 2 is longer than argument 1"),
            ("fits", "zip() argument 2 is shorter than argument 1"),
            ("verdicts", "zip() argument 3 is shorter than arguments 1-2"),
        ],
    )
    def test_unequal_period_lists_are_parse_error(self, tmp_path, capsys, field, reason):
        bundle = json.loads(bundle_to_json(sample_bundle("disaster")))
        del bundle[field][-1]
        bundle_path = tmp_path / "bundle.json"
        bundle_path.write_text(json.dumps(bundle))
        out = tmp_path / "report.txt"
        assert main(["report", "--bundle", str(bundle_path), "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "stage": "parse",
            "error": f"{bundle_path}: not a netevolve bundle (ValueError({reason!r}))",
        }
        assert not out.exists()

    @pytest.mark.parametrize("separator", ["\t", "\r", "\n"])
    def test_label_with_a_table_separator_is_parse_error(self, tmp_path, capsys, separator):
        bundle = json.loads(bundle_to_json(sample_bundle("disaster")))
        bundle["rows"][0]["label"] = f"a{separator}b"
        bundle_path = tmp_path / "bundle.json"
        bundle_path.write_text(json.dumps(bundle))
        assert main(["report", "--bundle", str(bundle_path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "parse"
        assert "must not hold a tab, CR or LF" in err["error"]

    @pytest.mark.parametrize(
        "content",
        ["{}", "[1, 2]", "not json", "[" * 100_000 + "]" * 100_000],
        ids=["empty-object", "list", "not-json", "nested"],
    )
    def test_malformed_bundle_is_parse_error(self, tmp_path, capsys, content):
        # json raises RecursionError, not ValueError, on the nested array
        bundle_path = tmp_path / "bundle.json"
        bundle_path.write_text(content)
        out = tmp_path / "report.txt"
        assert main(["report", "--bundle", str(bundle_path), "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "parse"
        assert err["error"].startswith(f"{bundle_path}: not a netevolve bundle (")
        assert not out.exists()

    def test_bad_bytes_error_names_the_offset(self, tmp_path, capsys):
        bundle_path = tmp_path / "big.json"
        bundle_path.write_bytes(b'{"rows": "' + b"x" * 100_000 + b'\xff"}')
        assert main(["report", "--bundle", str(bundle_path)]) == 3
        err = capsys.readouterr().err
        assert len(err) < 300
        assert json.loads(err) == {
            "stage": "parse",
            "error": f"{bundle_path}: not UTF-8 at byte 100010 (invalid start byte)",
        }

    def test_reads_bundle_from_stdin(self, tmp_path, monkeypatch, capsys):
        bundle_path = tmp_path / "bundle.json"
        args = ["analyze", *sample_argv("disaster"), "--format", "json", "--out", str(bundle_path)]
        assert main(args) == 0
        assert main(["report", "--bundle", str(bundle_path)]) == 0
        from_file = capsys.readouterr().out
        stdin = io.TextIOWrapper(io.BytesIO(bundle_path.read_bytes()))
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["report", "--bundle", "-"]) == 0
        assert capsys.readouterr() == (from_file, "")


class TestIgnoredOptions:
    """Options that would change nothing are refused, not silently dropped."""

    @pytest.mark.parametrize("command", ["analyze", "fit"])
    @pytest.mark.parametrize(
        "extra",
        [
            ["--yearly", "--breakpoints", "2003-12-31"],
            ["--labels", "X,Y"],
            ["--breakpoints", "", "--labels", ""],
            ["--labels", ""],
            ["--breakpoints", "2003-12-31,2005-12-31", "--labels", "A, "],
        ],
        ids=[
            "yearly-and-breakpoints",
            "labels-without-breakpoints",
            "empty-breakpoints-and-labels",
            "empty-labels",
            "blank-label",
        ],
    )
    def test_slicing_mix_is_config_error(self, tmp_path, capsys, command, extra):
        out = ["--out-prefix" if command == "fit" else "--out", str(tmp_path / "out")]
        args = [command, "--input", COAUTHORS, "--kind", "publications", *extra, *out]
        assert main(args) == 2
        assert json.loads(capsys.readouterr().err)["stage"] == "config"
        assert list(tmp_path.iterdir()) == []

    def test_threads_option_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--input", DISASTER, "--threads", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", DISASTER, "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["provenance"]["config"]["threads"] is None

    def test_library_config_rejects_the_same_mixes(self):
        with pytest.raises(ValueError, match="slicing modes"):
            AnalysisConfig(input_path=COAUTHORS, yearly=True, breakpoints=[1])
        with pytest.raises(ValueError, match="--labels"):
            AnalysisConfig(input_path=COAUTHORS, labels=["X"])

    def test_library_config_checks_every_value(self):
        import datetime

        with pytest.raises(ValueError, match="unknown input kind"):
            AnalysisConfig(input_path=COAUTHORS, kind="edges")
        with pytest.raises(ValueError, match="got 1 labels for 2 breakpoints"):
            AnalysisConfig(input_path=DISASTER, breakpoints=[1, 2], labels=["X"])
        with pytest.raises(ValueError, match="distinct"):
            AnalysisConfig(input_path=DISASTER, breakpoints=[1, 2], labels=["X", "X"])
        with pytest.raises(ValueError, match="blank"):
            AnalysisConfig(input_path=DISASTER, breakpoints=[1, 2], labels=["X", " "])
        with pytest.raises(ValueError, match="strictly increasing"):
            AnalysisConfig(input_path=DISASTER, breakpoints=[2, 1])
        with pytest.raises(ValueError, match="mix naive date and numeric"):
            AnalysisConfig(input_path=DISASTER, breakpoints=[5, datetime.datetime(2009, 2, 8)])
        with pytest.raises(ValueError, match="at least one breakpoint"):
            AnalysisConfig(input_path=DISASTER, breakpoints=[])

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"breakpoints": [1, "2"]}, "time '2' is not an int, a float or a datetime"),
            ({"breakpoints": "12"}, "breakpoints must be a sequence of times, got '12'"),
            ({"breakpoints": [1, 2], "labels": [1, 2]}, "period labels must be a sequence of strings, got [1, 2]"),
            ({"breakpoints": [1, 2], "labels": "ab"}, "period labels must be a sequence of strings, got 'ab'"),
        ],
        ids=["string-breakpoint", "string-breakpoints", "int-labels", "string-labels"],
    )
    def test_library_config_rejects_slicing_values_of_the_wrong_type(self, options, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AnalysisConfig(input_path=DISASTER, **options)

    def test_library_config_is_frozen(self):
        # a field changed after the checks would reach run_analysis unchecked
        config = AnalysisConfig(input_path=DISASTER)
        for name in config._fields:
            with pytest.raises(FrozenInstanceError):
                setattr(config, name, "edges")


class TestReadme:
    def test_report_layout_names_the_columns(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        layout = readme.split("### Report layout", 1)[1].split("\n#", 1)[0]
        csv_columns, report_columns = (
            tuple(" ".join(names.split()).split(", "))
            for names in re.findall(r"columns `([^`]*)`", layout)
        )
        assert csv_columns == CSV_COLUMNS
        report = (GOLDEN / "disaster_report.txt").read_text()
        assert tuple(report.split("\n", 1)[0].split("\t")) == report_columns

    def test_library_use_block_runs(self, tmp_path, monkeypatch):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library use", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        rows = [
            f"{t},hub,v{t}" if t % 3 else f"{t},v{t - 1},v{t - 2}" for t in range(1, 31)
        ]
        (tmp_path / "interactions.csv").write_text("time,a,b\n" + "\n".join(rows) + "\n")
        (tmp_path / "corpus.jsonl").write_text(
            '{"pub_id": "P1", "date": "2004-05-01", "authors": ["A", "B", "C"]}\n'
            '{"pub_id": "P2", "date": "2005-02-01", "authors": ["C", " D"]}\n'
            '{"pub_id": "P3", "date": "2005-12-31", "authors": ["E"]}\n'
        )
        monkeypatch.chdir(tmp_path)
        namespace: dict = {}
        exec(block, namespace)
        assert [s.label for s in namespace["snapshots"]] == ["T1", "T2", "T3"]
        assert [p.label for p in namespace["proxies"]] == ["T1", "T2", "T3"]
        assert namespace["warnings"] == []
        by_year = namespace["by_year"]
        assert [(s.n_actors, s.n_links, s.sum_links) for s in by_year] == [(3, 3, 3), (5, 4, 4)]


_LINE_ENDS = [("cr", b"\r"), ("crlf", b"\r\n"), ("lf", b"\n")]

FAULT_INPUTS = {
    "latin1.csv": "time,a,b\n1,A,Bj\xf6rk\n".encode("latin-1"),
    "bad.csv": b"time,a,b\nbad,A,B\nworse,B,C\n",
    "mixed.csv": b"time,a,b\n1,A,B\n2009-02-07,B,C\n",
    "pair.csv": b"time,a,b\n1,A,B\n",
    "triangle.csv": b"time,a,b\n1,A,B\n2,B,C\n3,C,A\n",
    "solo.jsonl": b'{"pub_id": "P1", "date": "2005-01-01", "authors": ["A"]}\n',
    # UTC instants in year 0 and year 10000
    "utc-year-0.jsonl": b'{"pub_id":"p1","date":"0001-01-01T00:30+01:00","authors":["A","B"]}\n',
    "utc-year-10000.jsonl": b'{"pub_id":"p1","date":"9999-12-31T23:30-01:00","authors":["A","B"]}\n',
    "object.json": b"{}",
    "list.json": b"[1, 2]",
    "text.json": b"not json",
    "latin1.json": '{"rows": "\xf6"}'.encode("latin-1"),
    "header.csv": b"time,a,b\n",
    # a bad header, then a byte that is not UTF-8
    "header-then-bad-byte.csv": b"time,a\n1,A,B\n2,B,\xff\n",
    "loops.csv": b"time,a,b\n1,A,A\n2,B,B\n",
    "empty.jsonl": b"",
    "empty.csv": b"",
    # a bare CR, a CRLF or an LF ends the bad header before the bad byte
    **{f"header-then-bad-byte-{name}.csv": b"x,A,B" + end + b"\xff\n" for name, end in _LINE_ENDS},
    "numeric-label.json": json.dumps(
        {
            "rows": [{"label": 1, "n_actors": 2, "n_links": 1, "sum_links": 1, "clustering": 0.0, "diameter": 1}],
            "fits": [None],
            "verdicts": [{"verdict": False}],
            "correlations": {"ranked_drivers": []},
            "static_checks": [],
        }
    ).encode(),
    "tab-label.json": json.dumps(
        {
            "rows": [
                {"label": "a\tb", "n_actors": 2, "n_links": 1, "sum_links": 1,
                 "clustering": 0.0, "diameter": 1}
            ],
            "fits": [None],
            "verdicts": [{"verdict": False}],
            "correlations": {"ranked_drivers": []},
            "static_checks": [],
        }
    ).encode(),
}

FAULT_CONTRACT = [
    pytest.param("analyze", ["--input", "missing.csv"], 3, "io", id="analyze-missing"),
    pytest.param("analyze", ["--input", "latin1.csv"], 3, "ingest", id="analyze-not-utf-8"),
    pytest.param("analyze", ["--input", "bad.csv"], 3, "ingest", id="analyze-bad-rows"),
] + [
    # the input is decoded as it is read, so a fault before an undecodable
    # byte is found first
    pytest.param(
        command, ["--input", "header-then-bad-byte.csv"], 3,
        {
            "stage": "ingest",
            "error": "header-then-bad-byte.csv: expected header time,a,b[,weight], got ['time', 'a']",
        },
        id=f"{command}-bad-header-before-bad-byte",
    )
    for command in ("analyze", "fit")
] + [
    pytest.param(
        command, ["--input", f"header-then-bad-byte-{name}.csv"], 3,
        {
            "stage": "ingest",
            "error": f"header-then-bad-byte-{name}.csv: expected header time,a,b[,weight], got ['x', 'A', 'B']",
        },
        id=f"{command}-bad-header-before-bad-byte-{name}",
    )
    for name, _ in _LINE_ENDS
    for command in ("analyze", "fit")
] + [
    pytest.param("analyze", ["--input", "mixed.csv"], 3, "ingest", id="analyze-mixed-times"),
    pytest.param(
        "analyze", ["--input", DISASTER, "--breakpoints", "5,2009-01-01"], 2, "config",
        id="analyze-mixed-breakpoints",
    ),
    pytest.param(
        "analyze", ["--input", DISASTER, "--breakpoints", "1,2", "--labels", "A"], 2, "config",
        id="analyze-label-count",
    ),
    pytest.param(
        "analyze", ["--input", DISASTER, "--breakpoints", ""], 2, "config",
        id="analyze-empty-breakpoints",
    ),
    pytest.param(
        "analyze", ["--input", DISASTER, "--rel-tolerance", "0"], 2, "config",
        id="analyze-tolerance-zero",
    ),
    pytest.param(
        "analyze", ["--input", "pair.csv", "--yearly"], 2, "ingest", id="analyze-yearly-numeric"
    ),
    pytest.param(
        "analyze", ["--input", DISASTER, "--breakpoints", "5"], 2, "ingest",
        id="analyze-breakpoints-of-another-kind",
    ),
] + [
    pytest.param(
        command, ["--input", source, "--kind", "publications", "--yearly"], 2, "ingest",
        id=f"{command}-yearly-{source.removesuffix('.jsonl')}",
    )
    for source in ("utc-year-0.jsonl", "utc-year-10000.jsonl")
    for command in ("analyze", "fit")
] + [
    pytest.param(
        "analyze", ["--input", "solo.jsonl", "--kind", "publications"], 4, "metrics",
        id="analyze-single-author",
    ),
    pytest.param(
        "analyze", ["--input", DISASTER, "--out", "missing/report.csv"], 3, "io",
        id="analyze-unwritable-out",
    ),
    pytest.param("fit", ["--input", "pair.csv"], 4, "analysis", id="fit-one-point"),
    pytest.param(
        "fit", ["--input", "triangle.csv", "--breakpoints", "2,3"], 4, "analysis",
        id="fit-later-period-one-point",
    ),
    pytest.param(
        "fit",
        ["--input", DISASTER, "--breakpoints", "2009-02-08T00:00", "--labels", "a/b"],
        2,
        "config",
        id="fit-label-separator",
    ),
    pytest.param(
        "analyze", ["--input", DISASTER, "--breakpoints", "1,2", "--labels", "a\tb,c"], 2, "config",
        id="analyze-label-tab",
    ),
    pytest.param(
        "fit", ["--input", DISASTER, "--breakpoints", "1,2", "--labels", "a\rb,c"], 2, "config",
        id="fit-label-carriage-return",
    ),
    pytest.param("fit", ["--input", "missing.csv"], 3, "io", id="fit-missing"),
    pytest.param("fit", ["--input", "latin1.csv"], 3, "ingest", id="fit-not-utf-8"),
    pytest.param("report", ["--bundle", "object.json"], 3, "parse", id="report-empty-object"),
    pytest.param("report", ["--bundle", "list.json"], 3, "parse", id="report-list"),
    pytest.param("report", ["--bundle", "text.json"], 3, "parse", id="report-not-json"),
    pytest.param("report", ["--bundle", "latin1.json"], 3, "parse", id="report-not-utf-8"),
    pytest.param("report", ["--bundle", "missing.json"], 3, "io", id="report-missing"),
    pytest.param("report", ["--bundle", "tab-label.json"], 3, "parse", id="report-label-tab"),
    pytest.param("report", ["--bundle", "numeric-label.json"], 3, "parse", id="report-numeric-label"),
    pytest.param("generate", ["--model", "er", "-n", "5"], 2, "config", id="generate-er-no-p"),
    pytest.param(
        "generate", ["--model", "ws", "-n", "3", "--k", "4"], 2, "config", id="generate-ws-k-too-big"
    ),
    pytest.param("generate", ["--model", "ws", "-n", "10"], 2, "config", id="generate-ws-no-k"),
    pytest.param("generate", ["--model", "ba", "-n", "10"], 2, "config", id="generate-ba-no-m"),
] + [
    # an input with no interactions fails before slicing, whatever the mode
    pytest.param(
        command, ["--input", source, *kind, *mode], 4, "ingest",
        id=f"{command}-no-interactions-{source}{''.join(mode)}",
    )
    for source, kind in [
        ("header.csv", []),
        ("loops.csv", []),
        ("empty.csv", []),
        ("empty.jsonl", ["--kind", "publications"]),
    ]
    for command in ("analyze", "fit")
    for mode in ([], ["--yearly"], ["--breakpoints", "5"])
]


class TestExitCodes:
    TWO_PERIODS = "2009-02-07T13:05,2009-02-08T00:00"

    @pytest.mark.parametrize("command, args, code, stage", FAULT_CONTRACT)
    def test_fault_contract(self, tmp_path, monkeypatch, capsys, command, args, code, stage):
        """Each fault exits with its documented code and stage, or the whole
        error where a row pins its message, and writes nothing: no output
        file and nothing on stdout."""
        for name, data in FAULT_INPUTS.items():
            (tmp_path / name).write_bytes(data)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        out = ["--out-prefix" if command == "fit" else "--out", "out"]
        assert main([command, *out, *args]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert (error if isinstance(stage, dict) else error["stage"]) == stage
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["analyze", "fit"])
    @pytest.mark.parametrize(
        "data",
        [
            "time,a,b\n1,A,Bj\xf6rk\n".encode("latin-1"),
            b"time,a,b\n" + b"".join(b"%d,A,B\n" % i for i in range(10_000)) + b"x,A,\xe2\x82B\n",
            b"\xef\xbb\xbftime,a,b\n1,A,\xffB\n",
            "time,a,b\n1,A,B\n2,B,C\u20ac".encode()[:-1],
            b"\xef\xbb",
            b'time,a,b\r1,"A\xff',
        ],
        ids=[
            "first-block", "past-64-KiB", "after-byte-order-mark", "truncated-at-end", "cut-byte-order-mark",
            "in-a-quoted-field-after-a-cr",
        ],
    )
    def test_decode_faults_keep_their_message(self, tmp_path, capsys, command, data):
        """An input read in blocks names its first undecodable bytes as
        decoding the whole input names them."""
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8-sig")
        source = tmp_path / "in.csv"
        source.write_bytes(data)
        out = ["--out-prefix" if command == "fit" else "--out", str(tmp_path / "out")]
        assert main([command, "--input", str(source), *out]) == 3
        assert json.loads(capsys.readouterr().err) == {"stage": "ingest", "error": str(whole.value)}

    @pytest.mark.parametrize("command", ["analyze", "fit"])
    def test_read_error_partway_is_an_ingest_fault(self, tmp_path, monkeypatch, capsys, command):
        class Stream:
            blocks = [b"time,a,b\n1,A,B\n"]

            def read(self, size):
                if not self.blocks:
                    raise OSError(errno.EIO, "Input/output error")
                return self.blocks.pop()

        monkeypatch.setattr("netevolve.cli._open_input", lambda path: nullcontext(Stream()))
        out = ["--out-prefix" if command == "fit" else "--out", str(tmp_path / "out")]
        assert main([command, "--input", "in.csv", *out]) == 3
        error = {"stage": "ingest", "error": "[Errno 5] Input/output error"}
        assert json.loads(capsys.readouterr().err) == error
        assert list(tmp_path.iterdir()) == []

    def test_unlisted_faults(self, monkeypatch, capsys):
        """A stage failure whose cause has no fault row exits 4 at that stage;
        an exception with no row raised outside a stage propagates."""

        def fail(error):
            def raiser(*args):
                raise error

            return raiser

        for target, stage in [("metrics_row", "metrics"), ("correlate_attachment", "evolution")]:
            with monkeypatch.context() as patch:
                patch.setattr(f"netevolve.pipeline.{target}", fail(RuntimeError("boom")))
                assert main(["analyze", "--input", DISASTER]) == 4
            assert json.loads(capsys.readouterr().err) == {"stage": stage, "error": "boom"}
        monkeypatch.setattr("netevolve.cli.erdos_renyi", fail(TypeError("stray")))
        with pytest.raises(TypeError, match="stray"):
            main(["generate", "--model", "er", "-n", "5", "--p", "0.5"])

    def test_missing_file_is_parse_error(self, capsys):
        assert main(["analyze", "--input", "/nonexistent/x.csv"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["stage"]

    def test_bad_breakpoints_is_config_error(self):
        assert (
            main(
                [
                    "analyze",
                    "--input", DISASTER,
                    "--breakpoints", "2009-02-08T00:00,2009-02-07T00:00",
                ]
            )
            == 2
        )

    @pytest.mark.parametrize(
        "args, error",
        [
            (
                ["--input", DISASTER, "--breakpoints", "5"],
                "event times and breakpoints mix naive date and numeric times",
            ),
            (["--input", "pair.csv", "--yearly"], "--yearly requires date-typed event times"),
            (
                ["--input", "utc-year-10000.jsonl", "--kind", "publications", "--yearly"],
                "--yearly requires dates within UTC years 1 to 9999",
            ),
        ],
        ids=["breakpoints-of-another-kind", "yearly-numeric", "yearly-utc-year-10000"],
    )
    def test_slicing_faults_name_the_times(self, tmp_path, monkeypatch, capsys, args, error):
        """Periods that the event times cannot be sliced into are found once
        the input is read, and the error says why."""
        for name, data in FAULT_INPUTS.items():
            (tmp_path / name).write_bytes(data)
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", *args]) == 2
        assert json.loads(capsys.readouterr().err) == {"stage": "ingest", "error": error}

    def test_degenerate_snapshot_is_analysis_error(self, tmp_path, capsys):
        source = tmp_path / "tiny.csv"
        source.write_text("time,a,b\n5,A,B\n")
        # breakpoint before any event -> empty first snapshot -> metrics error
        code = main(
            ["analyze", "--input", str(source), "--breakpoints", "1,5", "--labels", "a,b"]
        )
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "metrics"

    @pytest.mark.parametrize("command", ["analyze", "fit"])
    @pytest.mark.parametrize(
        "source, extra, code, stage",
        [
            ("latin-1", [], 3, "ingest"),
            (DISASTER, ["--breakpoints", TWO_PERIODS, "--labels", "A"], 2, "config"),
            (DISASTER, ["--breakpoints", "2009-02-08T00:00,2009-02-07T13:05"], 2, "config"),
            (DISASTER, ["--breakpoints", "5,2009-02-08T00:00"], 2, "config"),
            (DISASTER, ["--breakpoints", TWO_PERIODS, "--labels", "A,A"], 2, "config"),
        ],
        ids=["not-utf-8", "too-few-labels", "out-of-order", "mixed-kinds", "repeated-label"],
    )
    def test_analyze_and_fit_report_faults_alike(
        self, tmp_path, capsys, command, source, extra, code, stage
    ):
        """A configuration fault exits 2 at stage config before the input is
        read, an undecodable input exits 3 at stage ingest, and neither
        command writes a file."""
        if source == "latin-1":
            source = tmp_path / "latin1.csv"
            source.write_bytes("time,a,b\n1,A,Bj\xf6rk\n".encode("latin-1"))
        before = sorted(tmp_path.rglob("*"))
        out = ["--out-prefix" if command == "fit" else "--out", str(tmp_path / "out")]
        assert main([command, "--input", str(source), *extra, *out]) == code
        assert json.loads(capsys.readouterr().err)["stage"] == stage
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "extra",
        [
            ["--rel-tolerance", "0"],
            ["--rel-tolerance", "-1"],
            ["--rel-tolerance", "1.5"],
            ["--rel-tolerance", "nan"],
            ["--breakpoints", TWO_PERIODS, "--rel-tolerance", "0"],
            ["--sw-density-max", "nan"],
            ["--sw-clustering-min", "inf"],
            ["--sw-r2-min=-inf"],
            ["--sw-exponent-min", "nan"],
        ],
        ids=[
            "tolerance-zero", "tolerance-negative", "tolerance-above-one", "tolerance-nan",
            "tolerance-zero-two-periods", "density-nan", "clustering-inf", "r2-minus-inf",
            "exponent-nan",
        ],
    )
    def test_bad_analysis_value_is_config_error(self, tmp_path, capsys, extra):
        out = tmp_path / "report.csv"
        assert main(["analyze", "--input", DISASTER, *extra, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["stage"] == "config"
        assert not out.exists()

    @pytest.mark.parametrize(
        "options, match",
        [
            ({"rel_tolerance": 0.0}, r"rel_tolerance must be in \(0, 1\], got 0.0"),
            ({"rel_tolerance": float("nan")}, "rel_tolerance must be in"),
            ({"rel_tolerance": 1.01}, "rel_tolerance must be in"),
            (
                {"thresholds": SmallWorldThresholds(density_max=float("nan"))},
                "small-world threshold density_max must be finite, got nan",
            ),
            (
                {"thresholds": SmallWorldThresholds(diameter_log_factor=float("inf"))},
                "diameter_log_factor must be finite",
            ),
        ],
        ids=["tolerance-zero", "tolerance-nan", "tolerance-above-one", "density-nan", "diameter-inf"],
    )
    def test_library_config_checks_analysis_values(self, options, match):
        with pytest.raises(ValueError, match=match):
            AnalysisConfig(input_path=DISASTER, **options)
        AnalysisConfig(input_path=DISASTER, rel_tolerance=1.0)

    def test_unknown_subcommand_exits_two(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2

    def test_corrupt_csv_is_parse_error(self, tmp_path):
        source = tmp_path / "bad.csv"
        source.write_text("time,a,b\nbad,A,B\nworse,B,C\n")
        assert main(["analyze", "--input", str(source)]) == 3


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        a, b = sample_bundle("disaster"), sample_bundle("disaster")
        assert bundle_to_csv(a) == bundle_to_csv(b)
        assert bundle_to_json(a) == bundle_to_json(b)

    @pytest.mark.parametrize("sample", SAMPLES)
    def test_bytes_identical_across_hash_seeds(self, sample):
        outputs = []
        for seed in ("0", "1"):
            result = run_cli(
                "analyze", *sample_argv(sample), "--format", "json",
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


class TestIngestEdgeCases:
    ROWS = "time,a,b\n" + "".join(f"{t},A{t % 4},B{t % 5}\n" for t in range(1, 21))

    def _analyze(self, tmp_path, text, *extra, encoding="utf-8"):
        source = tmp_path / "events.csv"
        source.write_text(text, encoding=encoding)
        out = tmp_path / "report.json"
        args = ["analyze", "--input", str(source), "--format", "json", "--out", str(out)]
        code = main([*args, *extra])
        return code, (json.loads(out.read_text()) if code == 0 else None)

    def test_byte_order_mark_is_accepted(self, tmp_path):
        code, bundle = self._analyze(tmp_path, self.ROWS, encoding="utf-8-sig")
        assert code == 0
        _, plain = self._analyze(tmp_path, self.ROWS)
        assert bundle["rows"] == plain["rows"]

    def test_byte_order_mark_accepted_by_fit(self, tmp_path):
        source = tmp_path / "events.csv"
        source.write_text(self.ROWS, encoding="utf-8-sig")
        code = main(["fit", "--input", str(source), "--out-prefix", str(tmp_path / "deg")])
        assert code == 0
        assert (tmp_path / "deg_all_points.csv").exists()

    def test_byte_order_mark_in_publications(self, tmp_path):
        source = tmp_path / "pubs.jsonl"
        source.write_text(
            '{"pub_id": "p1", "date": "2001-03-01", "authors": ["A", "B", "C"]}\n'
            '{"pub_id": "p2", "date": "2002-03-01", "authors": ["B", "D"]}\n',
            encoding="utf-8-sig",
        )
        out = tmp_path / "report.json"
        args = ["analyze", "--input", str(source), "--kind", "publications", "--yearly"]
        assert main([*args, "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["provenance"]["ingest_warnings"] == []

    def test_csv_reader_error_is_parse_error(self, tmp_path, capsys):
        code, _ = self._analyze(tmp_path, self.ROWS + "21,A1," + "B" * 200_000 + "\n")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "ingest"
        assert "field larger than field limit" in err["error"]

    def test_mixed_naive_and_aware_times_are_parse_error(self, tmp_path, capsys):
        text = "time,a,b\n2009-02-07T10:00,A,B\n2009-02-07T11:00+01:00,B,C\n"
        code, _ = self._analyze(tmp_path, text)
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "ingest"
        assert "naive date and offset-aware date" in err["error"]

    def test_mixed_naive_and_aware_publication_dates_are_parse_error(self, tmp_path):
        source = tmp_path / "pubs.jsonl"
        source.write_text(
            '{"pub_id": "p1", "date": "2001-03-01", "authors": ["A", "B"]}\n'
            '{"pub_id": "p2", "date": "2002-03-01T00:00+02:00", "authors": ["B", "C"]}\n'
        )
        assert main(["analyze", "--input", str(source), "--kind", "publications"]) == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_time_is_a_malformed_row(self, tmp_path, bad):
        text = self.ROWS + f"{bad},A0,Z9\n"
        code, bundle = self._analyze(tmp_path, text)
        assert code == 0
        warnings = bundle["provenance"]["ingest_warnings"]
        assert len(warnings) == 1 and "non-finite time" in warnings[0]
        assert bundle["rows"][0]["n_actors"] == 9

    @pytest.mark.parametrize("good, code", [(30, 0), (4, 3)])
    def test_deeply_nested_record_is_malformed(self, tmp_path, capsys, good, code):
        # json raises RecursionError, not ValueError, on the nested array
        records = [
            json.dumps({"pub_id": f"p{i}", "date": f"{2001 + i % 3}-03-01", "authors": ["A", i]})
            for i in range(good)
        ]
        source = tmp_path / "pubs.jsonl"
        source.write_text("\n".join([*records[:2], "[" * 100_000 + "]" * 100_000, *records[2:]]))
        out = tmp_path / "report.json"
        args = ["analyze", "--input", str(source), "--kind", "publications", "--yearly"]
        assert main([*args, "--format", "json", "--out", str(out)]) == code
        if code == 0:
            (warning,) = json.loads(out.read_text())["provenance"]["ingest_warnings"]
            assert warning.startswith(f"{source}:3: maximum recursion depth exceeded")
            assert warning.endswith(", record skipped")
        else:
            assert json.loads(capsys.readouterr().err) == {
                "stage": "ingest",
                "error": f"{source}: 1 of 5 records malformed (> 10%)",
            }

    def test_non_finite_times_count_toward_the_budget(self, tmp_path):
        text = self.ROWS + "nan,A0,Z9\ninf,A1,Z8\nnan,A2,Z7\n"
        code, _ = self._analyze(tmp_path, text)
        assert code == 3


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("exported, threads", [(None, 1), ("2", 2)], ids=["default", "exported"])
def test_analyze_starts_no_blas_threads(tmp_path, exported, threads):
    """numpy's bundled OpenBLAS starts its worker threads when numpy is first
    imported. `main` sets OPENBLAS_NUM_THREADS to 1 before that, unless the
    user exported a value; importing the CLI sets nothing. BA(300, 3) takes
    the numpy kernel."""
    if len(os.sched_getaffinity(0)) < threads:
        pytest.skip(f"OpenBLAS starts at most one thread per CPU, and {threads} are needed")
    data = tmp_path / "ba.csv"
    assert main(["generate", "--model", "ba", "-n", "300", "-m", "3", "--seed", "2", "--out", str(data)]) == 0
    argv = ["analyze", "--input", str(data), "--out", str(tmp_path / "out.csv")]
    code = (
        "import os, sys\n"
        "from netevolve import cli\n"
        "before = os.environ.get('OPENBLAS_NUM_THREADS')\n"
        f"status = cli.main({argv!r})\n"
        "with open('/proc/self/status') as status_file:\n"
        "    count = [line.split()[1] for line in status_file if line.startswith('Threads:')]\n"
        "print(status, before, 'numpy' in sys.modules, *count)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if exported is not None:
        env["OPENBLAS_NUM_THREADS"] = exported
    result = run_python(code, env)
    assert result.stdout == f"0 {exported} True {threads}\n", result.stderr
