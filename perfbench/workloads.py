"""Seeded inputs for the three benchmark workloads.

Each builder writes its input files into a work directory and returns a
manifest: the CLI calls to make, and for every call the expected per-period
actor, link and interaction counts (N, L, W), the event count, the input
size and the input SHA-256.  The program under test only ever sees the
generated files.

The Barabasi-Albert graph comes from the frozen seed copy of the package in
``seedref/``, so inputs stay the same when the program's own generators
change.  N, L and W are counted here with plain set arithmetic, independently
of the program, and checked against every output bundle.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
from datetime import datetime
from itertools import combinations
from pathlib import Path

from seedref.netevolve.generators import barabasi_albert
from seedref.netevolve.rng import SplitMix64

WORKLOADS = ("ba_growth", "pubs_yearly", "samples_cli")

BA_N, BA_M, BA_PERIODS = 800, 3, 8
PUBS_RECORDS, PUBS_TEAMS, PUBS_TEAM_SIZE, PUBS_YEARS = 40_000, 60, 6, 24
SMOKE_BA_N, SMOKE_PUBS_RECORDS = 160, 2000
PUBS_FIRST_YEAR = 2000
PUBS_CROSS_TEAM = 0.01

DISASTER_BREAKPOINTS = "2009-02-07T11:50,2009-02-07T13:05,2009-02-07T16:00,2009-02-08T00:00"
DISASTER_LABELS = "T1,T1-T2,T1-T3,T1-T4"


def _cumulative_counts(timed_pairs, arrivals, breakpoints):
    """Per breakpoint: actors, distinct links and total weight up to it.

    ``timed_pairs`` holds (time, a, b, weight); ``arrivals`` holds
    (time, actor) for actors that may appear without a link.
    """
    timed_pairs = sorted(timed_pairs, key=lambda e: e[0])
    arrivals = sorted(arrivals, key=lambda e: e[0])
    links: set = set()
    actors: set = set()
    weight = i = j = 0
    out = []
    for bp in breakpoints:
        while i < len(timed_pairs) and timed_pairs[i][0] <= bp:
            _, a, b, w = timed_pairs[i]
            links.add((a, b) if a <= b else (b, a))
            actors.update((a, b))
            weight += w
            i += 1
        while j < len(arrivals) and arrivals[j][0] <= bp:
            actors.add(arrivals[j][1])
            j += 1
        out.append({"N": len(actors), "L": len(links), "W": weight})
    return out


def _call(name, path: Path, args, periods, events):
    data = path.read_bytes()
    return {
        "name": name,
        "input": str(path),
        "args": ["analyze", "--input", str(path), *args],
        "periods": periods,
        "events": events,
        "input_bytes": len(data),
        "input_sha256": hashlib.sha256(data).hexdigest(),
    }


def ba_growth(workdir: Path, seed: int, n: int = BA_N, m: int = BA_M) -> list[dict]:
    """BA(n, m) with each edge timed by the arrival index of its newer
    endpoint, cut into BA_PERIODS cumulative periods of equal node steps."""
    graph = barabasi_albert(n, m, seed)
    index = {label: i for i, label in enumerate(sorted(graph.actors))}
    timed = sorted(
        (max(index[a], index[b]), a, b, 1) for (a, b) in graph.edges
    )
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("time", "a", "b", "weight"))
    writer.writerows(timed)
    path = workdir / f"ba_n{n}_m{m}_s{seed}.csv"
    path.write_text(buffer.getvalue(), encoding="utf-8")
    breakpoints = [n * k // BA_PERIODS - 1 for k in range(1, BA_PERIODS + 1)]
    periods = _cumulative_counts(timed, [], breakpoints)
    args = ["--breakpoints", ",".join(map(str, breakpoints)), "--format", "json"]
    return [_call("ba", path, args, periods, len(timed))]


def pubs_yearly(workdir: Path, seed: int, records: int = PUBS_RECORDS) -> list[dict]:
    """Stable teams publishing over PUBS_YEARS years.

    Team j becomes active in year j * 20 // PUBS_TEAMS, so N grows over the
    first twenty years.  Each paper picks 1..PUBS_TEAM_SIZE members of one
    active team; with probability PUBS_CROSS_TEAM it adds the lead author of
    a neighbouring team, so the teams form one connected chain through a few
    repeated collaborations.  Papers spread evenly over active team-years.
    """
    rng = SplitMix64(seed)
    teams = [
        [f"A{j:02d}-{k}" for k in range(PUBS_TEAM_SIZE)] for j in range(PUBS_TEAMS)
    ]
    start = [j * 20 // PUBS_TEAMS for j in range(PUBS_TEAMS)]
    team_years = sum(PUBS_YEARS - s for s in start)
    per_team_year, extra = divmod(records, team_years)
    slot = 0
    lines = []
    timed = []
    arrivals = []
    for year_offset in range(PUBS_YEARS):
        year = PUBS_FIRST_YEAR + year_offset
        active = [j for j in range(PUBS_TEAMS) if start[j] <= year_offset]
        for j in active:
            count = per_team_year + (1 if slot < extra else 0)
            slot += 1
            for _ in range(count):
                date = f"{year}-{1 + rng.randrange(12):02d}-{1 + rng.randrange(28):02d}"
                size = 1 + rng.randrange(PUBS_TEAM_SIZE)
                members = list(teams[j])
                authors = []
                for _ in range(size):
                    authors.append(members.pop(rng.randrange(len(members))))
                if len(active) > 1 and rng.random() < PUBS_CROSS_TEAM:
                    partner = j + 1 if j + 1 < len(active) else j - 1
                    authors.append(teams[partner][0])
                pub_id = f"P{len(lines) + 1:06d}"
                lines.append(json.dumps({"pub_id": pub_id, "date": date, "authors": authors}))
                arrivals.extend((year, a) for a in authors)
                timed.extend((year, a, b, 1) for a, b in combinations(authors, 2))
    path = workdir / f"pubs_r{records}_s{seed}.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    periods = _cumulative_counts(timed, arrivals, range(PUBS_FIRST_YEAR, PUBS_FIRST_YEAR + PUBS_YEARS))
    args = ["--kind", "publications", "--yearly", "--format", "json"]
    return [_call("pubs", path, args, periods, len(timed))]


def samples_cli(workdir: Path, seed: int, data_dir: Path) -> list[dict]:
    """The two bundled samples with the README's analyze commands.

    The inputs are fixed; the seed only picks which call runs first.
    """
    disaster = workdir / "disaster_events.csv"
    coauthors = workdir / "coauthorship_sample.jsonl"
    shutil.copyfile(data_dir / disaster.name, disaster)
    shutil.copyfile(data_dir / coauthors.name, coauthors)

    with disaster.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    timed = [
        (datetime.fromisoformat(r["time"]), r["a"], r["b"], int(r["weight"] or 1))
        for r in rows
        if r["a"] != r["b"]
    ]
    breakpoints = [datetime.fromisoformat(t) for t in DISASTER_BREAKPOINTS.split(",")]
    disaster_call = _call(
        "disaster",
        disaster,
        ["--breakpoints", DISASTER_BREAKPOINTS, "--labels", DISASTER_LABELS, "--format", "json"],
        _cumulative_counts(timed, [], breakpoints),
        len(timed),
    )

    pubs = [json.loads(line) for line in coauthors.read_text(encoding="utf-8").splitlines() if line.strip()]
    timed, arrivals = [], []
    for pub in pubs:
        year = int(pub["date"][:4])
        authors = list(dict.fromkeys(a.strip() for a in pub["authors"] if a.strip()))
        arrivals.extend((year, a) for a in authors)
        timed.extend((year, a, b, 1) for a, b in combinations(authors, 2))
    years = range(min(y for y, _ in arrivals), max(y for y, _ in arrivals) + 1)
    coauthor_call = _call(
        "coauthorship",
        coauthors,
        ["--kind", "publications", "--yearly", "--format", "json"],
        _cumulative_counts(timed, arrivals, years),
        len(timed),
    )
    calls = [disaster_call, coauthor_call]
    return calls if seed % 2 == 0 else calls[::-1]


def build(workload: str, workdir: Path, seed: int, data_dir: Path, smoke: bool) -> list[dict]:
    """Write the workload's inputs for ``seed`` and return its call manifest."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "ba_growth":
        return ba_growth(workdir, seed, n=SMOKE_BA_N if smoke else BA_N)
    if workload == "pubs_yearly":
        return pubs_yearly(workdir, seed, records=SMOKE_PUBS_RECORDS if smoke else PUBS_RECORDS)
    if workload == "samples_cli":
        return samples_cli(workdir, seed, data_dir)
    raise ValueError(f"unknown workload {workload!r}")

