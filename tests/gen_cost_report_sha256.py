"""Write tests/data/cost_report_sha256.json: digests of 120 cost reports.

Each case is the SHA-256 of json.dumps(cost_report(...).to_dict()) at one
point: the three builtin catalogs x five archs (given as their fields that
differ from ArchConfig()) x both topologies x both conventions x memory
excluded and included.  Every float of a report goes into its digest, so a
change to any formula, or to the order of its operations, moves some case.

Run from the repository root after a change that is meant to move them:

    PYTHONPATH=src python tests/gen_cost_report_sha256.py

tests/test_costs.py::TestCostReport compares the current reports with the
file, names every case that moved, and checks that this script reproduces
the file byte for byte.
"""

import hashlib
import json
from pathlib import Path

from ptcsim import CONVENTIONS, TOPOLOGIES, ArchConfig, cost_report, load_builtin_catalog

PINNED = Path(__file__).parent / "data" / "cost_report_sha256.json"
VARIANTS = ("foundry", "foundry_sl", "custom_sl")
ARCHS = (
    {"k": 2, "t_int": 1},
    {"k": 7, "t_int": 10},
    {},
    {"k": 64, "t_int": 120},
    {"r_tiles": 2, "c_cores": 3, "k": 8, "clock_hz": 3e9, "t_int": 30, "t_rst": 1, "bits_in": 5, "bits_out": 7},
)


def digests() -> list[dict]:
    """Every case, with the digest of its report's JSON."""
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
    return cases


def render(cases: list[dict]) -> str:
    """The file's text: a JSON list with one case per line."""
    return "[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n"


if __name__ == "__main__":
    entries = digests()
    PINNED.write_text(render(entries))
    print(f"wrote {len(entries)} digests to {PINNED}")
