"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed in ``setup``, runs
one op in ``op`` and checks that op's output in ``check``.  Every call into
the package goes through a module attribute (``scheduler.simulate_gemm``,
not a name imported from it), so the traced run's wrappers see it.
See README.md for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from ptcsim import catalog, costs, mlp, scheduler
from ptcsim.quantize import NoiseModel
from ptcsim.scheduler import MODES, ArchConfig, GemmWorkload


@dataclass
class Metric:
    """One printed end-to-end figure; ``kind`` is "host" or "simulated"."""

    name: str
    value: float | None
    unit: str
    kind: str
    note: str = ""


def rel_err(z: np.ndarray, exact: np.ndarray) -> float:
    """Relative Frobenius error of z against exact."""
    return float(np.linalg.norm(z - exact) / max(np.linalg.norm(exact), 1e-30))


class Workload:
    """Defaults shared by the workloads."""

    #: Input index of the warm-up op in set-up repetition 0 (then +1, +2).
    warmup_first = 0
    #: Input index of the op measured by the tracemalloc pass.
    peak_op = 0
    #: Ops per full pass over the inputs; a timed loop ends on a whole pass.
    cycle = 1

    def between_ops(self, st) -> None:
        """Runs after each op, outside its timing; nothing by default."""


class GemmDeep(Workload):
    """512x2048x512 GEMMs on the default 6x6x(32x32) machine, all four modes."""

    name = "gemm-deep"
    sigma = 0.0031
    #: The warm-up op of set-up repetition r runs mode (3 + r) % 4, so the
    #: first one is the ADC mode that the memory pass also uses.
    warmup_first = 3
    peak_op = 3
    cycle = len(MODES)

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.shape = (32, 512, 32) if tiny else (512, 2048, 512)
        self.refs: dict[str, tuple[str, str]] = {}
        self.rel_err_adc: float | None = None
        self.floor_s: list[float] = []
        self._ref_in = np.random.default_rng(0).uniform(size=(512, 4096))
        self._ref_out = np.empty_like(self._ref_in)

    @property
    def macs_per_op(self) -> int:
        return math.prod(self.shape)

    def setup(self):
        cat = catalog.load_builtin_catalog("custom-sl")
        m, n, q = self.shape
        rng = np.random.default_rng(self.seed)
        work = GemmWorkload(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, (n, q)))
        nm = NoiseModel(sigma=self.sigma, seed=self.seed)
        return {"cat": cat, "work": work, "arch": ArchConfig(), "nm": nm, "exact": work.x @ work.y}

    def op(self, st, j: int):
        mode = MODES[j % len(MODES)]
        return mode, scheduler.simulate_gemm(st["work"], st["arch"], st["cat"], nm=st["nm"], mode=mode)

    def check(self, st, out) -> list[str]:
        mode, (z_hat, stats) = out
        problems = []
        err = rel_err(z_hat, st["exact"])
        if mode == "ideal" and not err < 1e-6:
            problems.append(f"ideal-mode relative error {err:.3e} >= 1e-6")
        if mode == "quantized+noise+adc":
            self.rel_err_adc = err
        digest = (hashlib.sha256(np.ascontiguousarray(z_hat).tobytes()).hexdigest(), repr(stats))
        if self.refs.setdefault(mode, digest) != digest:
            problems.append(f"{mode}: repeated run is not bit-identical")
        cycles = scheduler.cycle_count(st["work"], st["arch"])
        if (stats.compute_cycles, stats.reset_cycles, stats.readouts) != cycles:
            problems.append(f"{mode}: SimStats cycles differ from cycle_count {cycles}")
        return problems

    reference_note = "4 row cumsums of a 16 MiB array"

    def reference(self) -> None:
        for _ in range(4):
            np.cumsum(self._ref_in, axis=1, out=self._ref_out)

    def between_ops(self, st) -> None:
        """The numpy floor, timed between simulator ops."""
        x, y = st["work"].x, st["work"].y
        for _ in range(3):
            t = time.perf_counter()
            x @ y
            self.floor_s.append(time.perf_counter() - t)

    def metrics(self, p50: float) -> list[Metric]:
        floor = statistics.median(self.floor_s)
        return [
            Metric("gmac_per_s", self.macs_per_op / p50 / 1e9, "GMAC/s", "host"),
            Metric("x_numpy", p50 / floor, "x", "host",
                   f"numpy x @ y median {floor * 1e3:.2f} ms over {len(self.floor_s)} runs"),
            Metric("rel_err_adc", self.rel_err_adc, "1", "simulated",
                   "quantized+noise+adc against exact x @ y"),
        ]


class MlpRobustness(Workload):
    """The `ptcsim robustness` default study, called as library functions."""

    name = "mlp-robustness"
    sigmas = (0.0, 0.0031, 0.02, 0.04, 0.08)
    n_seeds = 5
    n_test = 256

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n_seeds = 1 if tiny else self.n_seeds
        self.acc_rows: list[float] | None = None
        self._ref_in = np.random.default_rng(0).uniform(-1.0, 1.0, (256, 32))

    def setup(self):
        cat = catalog.load_builtin_catalog("custom-sl")
        cfg = mlp.MlpConfig()
        sizes = cfg.layer_sizes
        train_x, train_y = mlp.make_blobs(512, sizes[0], sizes[-1], seed=self.seed)
        model = mlp.TinyMlp(cfg)
        mlp.train(model, train_x, train_y)
        test_x, test_y = mlp.make_blobs(self.n_test, sizes[0], sizes[-1], seed=self.seed + 100)
        arch = ArchConfig(r_tiles=2, c_cores=3, k=8)
        return {"cat": cat, "model": model, "x": test_x, "y": test_y, "arch": arch}

    @property
    def macs_per_op(self) -> int:
        sizes = mlp.MlpConfig().layer_sizes
        per_pass = sum(self.n_test * a * b for a, b in zip(sizes[:-1], sizes[1:]))
        return len(self.sigmas) * self.n_seeds * per_pass

    def op(self, st, j: int):
        return mlp.robustness_table(
            st["model"], st["x"], st["y"], st["arch"], st["cat"], list(self.sigmas), n_seeds=self.n_seeds
        )

    def check(self, st, rows) -> list[str]:
        acc = {r["sigma"]: r["mean_accuracy"] for r in rows}
        problems = []
        # Criterion 12's accuracy drops.
        for sigma, bound in ((0.0031, 0.005), (0.08, 0.03)):
            if not acc[0.0] - acc[sigma] <= bound:
                problems.append(f"accuracy drop at sigma={sigma} is {acc[0.0] - acc[sigma]:.4f} > {bound}")
        means = [r["mean_accuracy"] for r in rows]
        if self.acc_rows is None:
            self.acc_rows = means
        elif means != self.acc_rows:
            problems.append("repeated robustness table differs")
        return problems

    reference_note = "600 small-array numpy calls"

    def reference(self) -> None:
        a = self._ref_in
        for _ in range(150):
            np.clip(a * 1.5 - 0.25, -1.0, 1.0).sum()
            np.abs(a).max()

    def metrics(self, p50: float) -> list[Metric]:
        return [
            Metric("gmac_per_s", self.macs_per_op / p50 / 1e9, "GMAC/s", "host"),
            Metric("acc_mean", statistics.fmean(self.acc_rows), "1", "simulated",
                   f"mean accuracy over sigma in {list(self.sigmas)}"),
        ]


class DseSweep(Workload):
    """Cost-model rows: catalog load, then a K sweep, per (variant, T)."""

    name = "dse-sweep"
    variants = ("foundry", "foundry-sl", "custom-sl")
    t_values = (10, 30, 60, 120)
    #: Every integer K in 2..64, so one row prices 63 cost_report points.
    k_values = tuple(range(2, 65))
    _positive = ("total_area_mm2", "total_power_w", "wall_power_w",
                 "laser_power_required_w", "tops", "tops_per_w", "tops_per_mm2")

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        grid = [(v, t) for v in self.variants for t in self.t_values]
        order = np.random.default_rng(seed).permutation(len(grid))
        self.rows = [grid[i] for i in order]
        self.cycle = len(self.rows)

    @property
    def points_per_op(self) -> int:
        return len(self.k_values)

    def setup(self):
        refs = {}
        for v in self.variants:
            cat = catalog.load_builtin_catalog(v)
            refs[v] = costs.cost_report(ArchConfig(), cat, include_memory=True).to_dict()
        return {"refs": refs}

    def op(self, st, j: int):
        variant, t_int = self.rows[j % len(self.rows)]
        cat = catalog.load_builtin_catalog(variant)
        reports = costs.sweep(ArchConfig(t_int=t_int), {cat.name: cat}, "K", self.k_values, include_memory=True)
        return variant, t_int, reports

    def check(self, st, out) -> list[str]:
        variant, t_int, reports = out
        problems = []
        for k, r in zip(self.k_values, reports):
            values = [getattr(r, a) for a in self._positive] + [r.loss.total_db]
            parts = list(r.area_by_component.values()) + list(r.power_by_component.values())
            if not all(math.isfinite(v) and v > 0 for v in values) or not all(
                math.isfinite(v) and v >= 0 for v in parts
            ):
                problems.append(f"{variant} T={t_int} K={k}: non-finite or non-positive report")
        if t_int == 60 and reports[self.k_values.index(32)].to_dict() != st["refs"][variant]:
            problems.append(f"{variant}: K=32 T=60 point differs from a direct cost_report")
        return problems

    reference_note = "a 5000-step pure-Python dict and float loop"

    def reference(self) -> None:
        d = {}
        acc = 0.0
        for i in range(5000):
            d[i & 255] = acc
            acc += math.sqrt(i) * 1.0001

    def metrics(self, p50: float) -> list[Metric]:
        return [Metric("points_per_s", self.points_per_op / p50, "1/s", "host",
                       f"{self.points_per_op} cost_report points per op")]


WORKLOADS = {w.name: w for w in (GemmDeep, MlpRobustness, DseSweep)}
