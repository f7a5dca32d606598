"""Command-line front end: simulate, cost, sweep, robustness, catalog-validate.

Each command runs in two steps.  The resolve step turns every input into the
object that checks it (ArchConfig, the device catalog, GemmWorkload,
NoiseModel, MlpConfig, every sweep point, the simulator's EngineConfig)
before any work; the run step does the work and writes the reports.  Exit
codes: 0 success, 1 an error while running, 2 bad input: any error of the
resolve step, reported on one `error:` line before anything is written.
Every report embeds the resolved configuration and a schema version; file
outputs land in the directory named by --out (timestamp-free, so CI runs
diff cleanly).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import zipfile
from pathlib import Path

import numpy as np

from .catalog import _VARIANT_NAMES, load_builtin_catalog, load_catalog, variant_name
from .costs import (
    CONVENTIONS,
    TOPOLOGIES,
    cost_report,
    pareto_csv,
    report_to_text,
    sweep,
    sweep_points,
    sweep_to_csv,
)
from .mlp import MlpConfig, TinyMlp, make_blobs, robustness_table, train
from .quantize import NoiseModel
from .scheduler import MODES, ArchConfig, GemmWorkload, _check_widths, engine_config_for, simulate_gemm

_SCHEMA_VERSION = 1
_VARIANTS = tuple(name.replace("_", "-") for name in _VARIANT_NAMES)
#: Experiment-config keys; "sigma_train" is MlpConfig's train_sigma.
_EXPERIMENT_KEYS = frozenset(("arch", "catalog", "bits", "sigma_train", "trials", "epochs", "seed", "sigmas_eval"))
_WORKLOAD_RE = re.compile(
    r"^rand:(\d+)x(\d+)x(\d+)(?::seed(\d+))?(?::(uniform|normal))?$"
)


def _add_arch_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--arch", help="JSON file with architecture fields (overrides flags)")
    p.add_argument("--tiles", type=int, default=6, help="tile count R")
    p.add_argument("--cores", type=int, default=6, help="cores per tile C")
    p.add_argument("-k", "--size", type=int, default=32, help="core size K")
    p.add_argument("--clock-ghz", type=float, default=5.0, help="clock rate (GHz)")
    p.add_argument("--t-int", type=int, default=60, help="integration window T")
    p.add_argument("--t-rst", type=int, default=2, help="reset cycles")
    p.add_argument("--bits-in", type=int, default=6, help="input bit width")
    p.add_argument("--bits-out", type=int, default=6, help="output bit width")
    p.add_argument(
        "--variant",
        choices=_VARIANTS,
        default="custom-sl",
        help="built-in device catalog variant",
    )
    p.add_argument("--catalog", help="path to a catalog JSON file (overrides --variant)")


def _load_json(path: str, what: str):
    path = Path(path)
    if not path.exists():
        raise ValueError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"bad {what} {path}: {e}") from e


def _arch_from_dict(d, source) -> ArchConfig:
    try:
        return ArchConfig(**d)
    except (TypeError, ValueError) as e:  # TypeError: not a mapping, or an unknown field
        raise ValueError(f"bad arch config {source}: {e}") from e


def _arch_from_args(args) -> ArchConfig:
    if args.arch:
        return _arch_from_dict(_load_json(args.arch, "arch config"), args.arch)
    return ArchConfig(
        r_tiles=args.tiles, c_cores=args.cores, k=args.size, clock_hz=args.clock_ghz * 1e9,
        t_int=args.t_int, t_rst=args.t_rst, bits_in=args.bits_in, bits_out=args.bits_out,
    )


def _catalog_from_args(args):
    return load_catalog(args.catalog) if args.catalog else load_builtin_catalog(args.variant)


def _parse_workload(spec: str) -> GemmWorkload:
    """A workload is rand:MxNxQ[:seedS][:uniform|normal] or a matrix file.

    File workloads: .npz with arrays 'x' and 'y', or a pair of CSV matrices
    given as 'x.csv,y.csv'.
    """
    m = _WORKLOAD_RE.match(spec)
    if m:
        return GemmWorkload.random(
            int(m.group(1)),
            int(m.group(2)),
            int(m.group(3)),
            seed=int(m.group(4) or 0),
            distribution=m.group(5) or "uniform",
        )
    if spec.endswith(".npz"):
        path = Path(spec)
        if not path.exists():
            raise ValueError(f"workload file not found: {path}")
        if not zipfile.is_zipfile(path):
            raise ValueError(f"workload {path} is not an .npz archive")
        with np.load(path) as data:
            if "x" not in data or "y" not in data:
                raise ValueError(f"workload {path} must contain arrays 'x' and 'y'")
            return GemmWorkload(data["x"], data["y"])
    if "," in spec:
        x_path, y_path = (Path(p.strip()) for p in spec.split(",", 1))
        for p in (x_path, y_path):
            if not p.exists():
                raise ValueError(f"workload file not found: {p}")
        return GemmWorkload(
            np.loadtxt(x_path, delimiter=",", ndmin=2),
            np.loadtxt(y_path, delimiter=",", ndmin=2),
        )
    raise ValueError(
        f"bad workload spec {spec!r}; expected rand:MxNxQ[:seedS][:uniform|normal], "
        "an .npz file, or 'x.csv,y.csv'"
    )


def _parse_sweep_values(axis: str, text: str) -> list:
    """Comma lists ('8,16,32') or doubling ranges ('2..64')."""
    if axis == "variant":
        return text.split(",") if text else list(_VARIANTS)
    if not text:
        raise ValueError(f"--values is required for axis {axis}")
    range_m = re.match(r"^(\d+)\.\.(\d+)$", text)
    if range_m:
        lo, hi = int(range_m.group(1)), int(range_m.group(2))
        if lo < 1 or hi < lo:
            raise ValueError(f"bad range {text!r}")
        values, v = [], lo
        while v <= hi:
            values.append(v)
            v *= 2
        return values
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as e:
        raise ValueError(f"bad values {text!r}: {e}") from e


def _noise_levels(sigmas, source: str) -> list:
    """sigmas, a list of noise intensities, once each has built the NoiseModel that checks it."""
    try:
        if isinstance(sigmas, list):
            for s in sigmas:
                NoiseModel(sigma=s)
            return sigmas
    except ValueError:
        pass
    raise ValueError(f"{source} must be a list of finite numbers >= 0, got {sigmas!r}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": _SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _cmd_simulate(args):
    arch = _arch_from_args(args)
    cat = _catalog_from_args(args)
    work = _parse_workload(args.workload)
    nm = NoiseModel(sigma=args.sigma, seed=args.seed)
    _check_widths(arch, args.mode)
    engine_config_for(arch, cat)

    def run() -> int:
        z_hat, stats = simulate_gemm(work, arch, cat, nm=nm, mode=args.mode)
        exact = work.x @ work.y
        rel_err = float(
            np.linalg.norm(z_hat - exact) / max(np.linalg.norm(exact), 1e-30)
        )
        out = _out_dir(args)
        np.savetxt(out / "z_hat.csv", z_hat, delimiter=",")
        _write_json(
            out / "simulate.json",
            {
                "workload": args.workload,
                "arch": arch.to_dict(),
                "variant": cat.name,
                "mode": args.mode,
                "sigma": args.sigma,
                "seed": args.seed,
                "relative_error_frobenius": rel_err,
                "stats": stats.to_dict(),
            },
        )
        print(f"mode={stats.mode}  relative error (Frobenius): {rel_err:.3e}")
        print(
            f"compute cycles: {stats.compute_cycles}  reset cycles: {stats.reset_cycles}  "
            f"readouts: {stats.readouts}  saturation events: {stats.saturation_events}"
        )
        print(f"wrote {out / 'simulate.json'} and {out / 'z_hat.csv'}")
        return 0

    return run


def _cmd_cost(args):
    arch = _arch_from_args(args)
    cat = _catalog_from_args(args)

    def run() -> int:
        report = cost_report(
            arch, cat, include_memory=args.include_memory, convention=args.convention, topology=args.topology
        )
        out = _out_dir(args)
        _write_json(out / "cost.json", report.to_dict())
        text = report_to_text(report)
        (out / "cost.txt").write_text(text)
        (out / "pareto.csv").write_text(pareto_csv([report]))
        print(text, end="")
        print(f"wrote {out / 'cost.json'}, {out / 'cost.txt'}, {out / 'pareto.csv'}")
        return 0

    return run


def _cmd_sweep(args):
    arch = _arch_from_args(args)
    values = _parse_sweep_values(args.axis, args.values)
    if args.axis == "variant":
        catalogs = {variant_name(v): load_builtin_catalog(v) for v in values}
    else:
        cat = _catalog_from_args(args)
        catalogs = {cat.name: cat}
    sweep_points(arch, catalogs, args.axis, values)  # builds, and so checks, every point

    def run() -> int:
        reports = sweep(
            arch, catalogs, args.axis, values,
            include_memory=args.include_memory, convention=args.convention, topology=args.topology,
        )
        out = _out_dir(args)
        csv_text = sweep_to_csv(reports)
        (out / "sweep.csv").write_text(csv_text)
        _write_json(
            out / "sweep.json",
            {
                "axis": args.axis,
                "values": [str(v) for v in values],
                "arch": arch.to_dict(),
                "points": [r.to_dict() for r in reports],
            },
        )
        print(csv_text, end="")
        if args.axis == "variant" and len(reports) > 1:
            ref = reports[-1]
            for r in reports[:-1]:
                print(
                    f"{r.variant} vs {ref.variant}: "
                    f"{r.total_area_mm2 / ref.total_area_mm2:.2f}x area, "
                    f"{r.total_power_w / ref.total_power_w:.2f}x power"
                )
        print(f"wrote {out / 'sweep.csv'} and {out / 'sweep.json'}")
        return 0

    return run


def _cmd_robustness(args):
    arch = _arch_from_args(args)
    cat = _catalog_from_args(args)
    cfg_file = _load_json(args.config, "experiment config") if args.config else {}
    if not isinstance(cfg_file, dict):
        raise ValueError(f"bad experiment config {args.config}: expected a JSON object")
    unknown = sorted(set(cfg_file) - _EXPERIMENT_KEYS)
    if unknown:
        raise ValueError(
            f"bad experiment config {args.config}: unknown keys {unknown}; "
            f"options: {sorted(_EXPERIMENT_KEYS)}"
        )
    if "arch" in cfg_file:
        arch = _arch_from_dict(cfg_file["arch"], args.config)
    if "catalog" in cfg_file:
        cat = load_builtin_catalog(cfg_file["catalog"])
    trials = cfg_file.get("trials", args.trials)
    if type(trials) is not int:
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    cfg = MlpConfig(
        bits=cfg_file.get("bits", args.bits_in),
        train_sigma=cfg_file.get("sigma_train", args.train_sigma),
        epochs=cfg_file.get("epochs", 40),
        seed=cfg_file.get("seed", args.seed),
    )
    _check_widths(arch, "quantized+noise")  # the core's mode
    engine_config_for(arch, cat)
    if "sigmas_eval" in cfg_file:
        sigmas = _noise_levels(cfg_file["sigmas_eval"], "sigmas_eval")
    else:
        sigmas = _noise_levels([float(s) for s in args.sigmas.split(",")], "--sigmas")

    def run() -> int:
        sizes = cfg.layer_sizes
        train_x, train_y = make_blobs(512, sizes[0], sizes[-1], seed=cfg.seed)
        model = TinyMlp(cfg)
        train(model, train_x, train_y)
        test_x, test_y = make_blobs(256, sizes[0], sizes[-1], seed=cfg.seed + 100)
        rows = robustness_table(model, test_x, test_y, arch, cat, sigmas, n_seeds=trials)

        out = _out_dir(args)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["sigma", "mean_accuracy", "std_accuracy"])
        for row in rows:
            writer.writerow(
                [row["sigma"], f"{row['mean_accuracy']:.6f}", f"{row['std_accuracy']:.6f}"]
            )
        (out / "robustness.csv").write_text(buf.getvalue())
        _write_json(
            out / "robustness.json",
            {
                "arch": arch.to_dict(),
                "variant": cat.name,
                "bits": cfg.bits,
                "epochs": cfg.epochs,
                "train_sigma": cfg.train_sigma,
                "trials": trials,
                "seed": cfg.seed,
                "rows": rows,
            },
        )
        print(f"{'sigma':>10}{'mean acc':>12}{'std':>10}")
        for row in rows:
            print(
                f"{row['sigma']:>10.4f}{row['mean_accuracy']:>12.4f}"
                f"{row['std_accuracy']:>10.4f}"
            )
        print(f"wrote {out / 'robustness.json'} and {out / 'robustness.csv'}")
        return 0

    return run


def _cmd_catalog_validate(args):
    cat = load_catalog(args.path)

    def run() -> int:
        print(f"OK: {args.path} (variant {cat.name}, {len(cat.devices)} devices)")
        return 0

    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptcsim",
        description=(
            "Behavioral simulator and cost model for a time-multiplexed "
            "photonic tensor-core accelerator"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one GEMM on the analog core")
    _add_arch_args(p)
    p.add_argument(
        "--workload",
        required=True,
        help="rand:MxNxQ[:seedS][:uniform|normal], an .npz file, or 'x.csv,y.csv'",
    )
    p.add_argument("--mode", choices=MODES, default="ideal")
    p.add_argument("--sigma", type=float, default=0.0031, help="noise intensity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("cost", help="area/power/speed report for one configuration")
    _add_arch_args(p)
    p.add_argument("--convention", choices=CONVENTIONS, default="peak")
    p.add_argument("--topology", choices=TOPOLOGIES, default="embedded_uneven")
    p.add_argument("--include-memory", action="store_true")
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("sweep", help="cost-model sweep along K, T, or variant")
    _add_arch_args(p)
    p.add_argument("--axis", choices=("K", "T", "variant"), required=True)
    p.add_argument(
        "--values",
        help="comma list ('8,16,32'), doubling range ('2..64'), or catalog names",
    )
    p.add_argument("--convention", choices=CONVENTIONS, default="peak")
    p.add_argument("--topology", choices=TOPOLOGIES, default="embedded_uneven")
    p.add_argument("--include-memory", action="store_true")
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "robustness", help="noise-aware MLP accuracy versus noise intensity"
    )
    _add_arch_args(p)
    p.add_argument("--config", help="experiment config JSON (overrides flags)")
    p.add_argument(
        "--sigmas", default="0,0.0031,0.02,0.04,0.08", help="comma-separated noise levels"
    )
    p.add_argument("--train-sigma", type=float, default=0.0031)
    p.add_argument("--trials", type=int, default=5, help="evaluation seeds per sigma")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser("catalog-validate", help="validate a device catalog JSON file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_catalog_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = args.func(args)  # the resolve step: every input, before any work
    except (ValueError, LookupError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        return run()
    except (ValueError, LookupError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
