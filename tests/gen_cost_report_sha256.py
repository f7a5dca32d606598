"""Write tests/data/cost_report_sha256.json: digests of 120 cost reports
and of one sweep grid.

Each report case is the SHA-256 of json.dumps(cost_report(...).to_dict()) at
one point: the three builtin catalogs x five archs (given as their fields
that differ from ArchConfig()) x both topologies x both conventions x memory
excluded and included.  Every float of a report goes into its digest, so a
change to any formula, or to the order of its operations, moves some case.
The last case is one SHA-256 over the JSON of every report of a sweep grid:
for each catalog, topology, convention and memory setting, a K sweep over
GRID_K at each T in GRID_T and a T sweep over GRID_T at each K, on
ArchConfig(), so the way sweep builds its points is pinned too.

Run from the repository root after a change that is meant to move them:

    PYTHONPATH=src python tests/gen_cost_report_sha256.py

tests/test_costs.py::TestCostReport compares the current reports and sweep
grid with the file, names every report case that moved, and checks that
this script reproduces the file byte for byte.
"""

import hashlib
import json
from pathlib import Path

from ptcsim import CONVENTIONS, TOPOLOGIES, ArchConfig, cost_report, load_builtin_catalog, sweep

PINNED = Path(__file__).parent / "data" / "cost_report_sha256.json"
VARIANTS = ("foundry", "foundry_sl", "custom_sl")
ARCHS = (
    {"k": 2, "t_int": 1},
    {"k": 7, "t_int": 10},
    {},
    {"k": 64, "t_int": 120},
    {"r_tiles": 2, "c_cores": 3, "k": 8, "clock_hz": 3e9, "t_int": 30, "t_rst": 1, "bits_in": 5, "bits_out": 7},
)
GRID_K = tuple(range(1, 65))
GRID_T = (1, 60, 120)


def digests() -> list[dict]:
    """Every case: the report cases, with the digest of each report's JSON,
    then the sweep grid's."""
    cases = []
    for variant in VARIANTS:
        cat = load_builtin_catalog(variant)
        for arch in ARCHS:
            for topology in TOPOLOGIES:
                for convention in CONVENTIONS:
                    for include_memory in (False, True):
                        report = cost_report(ArchConfig(**arch), cat, include_memory, convention, topology)
                        cases.append({
                            "variant": variant, "arch": arch, "topology": topology, "convention": convention,
                            "include_memory": include_memory,
                            "sha256": hashlib.sha256(json.dumps(report.to_dict()).encode()).hexdigest(),
                        })
    return cases + [sweep_grid()]


def sweep_grid() -> dict:
    """The sweep-grid case: one digest over the JSON of its reports, one line each."""
    digest = hashlib.sha256()
    n_reports = 0
    for variant in VARIANTS:
        cats = {variant: load_builtin_catalog(variant)}
        for topology in TOPOLOGIES:
            for convention in CONVENTIONS:
                for include_memory in (False, True):
                    kwargs = {"include_memory": include_memory, "convention": convention, "topology": topology}
                    runs = [sweep(ArchConfig(t_int=t), cats, "K", GRID_K, **kwargs) for t in GRID_T]
                    runs += [sweep(ArchConfig(k=k), cats, "T", GRID_T, **kwargs) for k in GRID_K]
                    for report in (r for reports in runs for r in reports):
                        digest.update(json.dumps(report.to_dict()).encode() + b"\n")
                        n_reports += 1
    return {
        "sweep_grid": f"variants {list(VARIANTS)}; K {GRID_K[0]}..{GRID_K[-1]} at T {list(GRID_T)} and T "
                      f"{list(GRID_T)} at each K, on ArchConfig(); both topologies, conventions and memory settings",
        "reports": n_reports,
        "sha256": digest.hexdigest(),
    }


def render(cases: list[dict]) -> str:
    """The file's text: a JSON list with one case per line."""
    return "[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n"


if __name__ == "__main__":
    entries = digests()
    PINNED.write_text(render(entries))
    print(f"wrote {len(entries)} digests to {PINNED}")
