"""Correctness gate: an output bundle against the seed code's reference.

Labels, integers, booleans, strings and list order (so also the order of
``ranked_drivers``) must match exactly; floats must agree within a relative
1e-9, with a 1e-12 absolute floor for values that are zero up to rounding.
The input path is left out of the comparison because it depends on where
the benchmark runs; warnings are compared with that path replaced.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9
ABS_TOL = 1e-12


def _normalize(bundle: dict) -> dict:
    provenance = dict(bundle.get("provenance", {}))
    path = provenance.pop("input_path", None)
    if path:
        provenance["ingest_warnings"] = [
            w.replace(path, "<input>") for w in provenance.get("ingest_warnings", [])
        ]
    return {**bundle, "provenance": provenance}


def _diff(got, want, where: str, out: list[str]) -> None:
    if isinstance(want, float) and isinstance(got, float):
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            out.append(f"{where}: {got!r} != {want!r}")
    elif type(got) is not type(want):
        out.append(f"{where}: type {type(got).__name__} != {type(want).__name__}")
    elif isinstance(want, dict):
        if got.keys() != want.keys():
            out.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
        for key in want.keys() & got.keys():
            _diff(got[key], want[key], f"{where}.{key}", out)
    elif isinstance(want, list):
        if len(got) != len(want):
            out.append(f"{where}: length {len(got)} != {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(g, w, f"{where}[{i}]", out)
    elif got != want:
        out.append(f"{where}: {got!r} != {want!r}")


def mismatches(bundle: dict, reference: dict, periods: list[dict]) -> list[str]:
    """Every difference from the reference bundle, plus any period whose
    N, L or W differs from the counts the workload generator recorded."""
    out: list[str] = []
    _diff(_normalize(bundle), _normalize(reference), "bundle", out)
    rows = bundle.get("rows", [])
    if len(rows) != len(periods):
        out.append(f"rows: {len(rows)} periods, expected {len(periods)}")
    for row, want in zip(rows, periods):
        got = {"N": row.get("n_actors"), "L": row.get("n_links"), "W": row.get("sum_links")}
        if got != want:
            out.append(f"rows[{row.get('label')}]: N/L/W {got} != {want}")
    return out
