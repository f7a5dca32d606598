"""Reference simulator: the per-cycle einsum/cumsum algorithm.

It materializes the full (block_rows, block_cols, K, K, P) photocurrent
tensor and integrates it with a running sum, cycle by cycle, exactly as the
machine does, and raises if any partial voltage passes the rail.  Tests
compare the epoch-streamed ``simulate_gemm`` against it; it is far too slow
and memory-hungry for anything but small shapes.

``oracle_engine_operands`` is the simulator's earlier operand front end:
fake quantization, noise, and on the lattice (params, no noise) the
integer codes re-derived from the dequantized operands, all on whole
operands.  ``oracle_cycle_major`` scatters them into the cycle-major layout
by fancy indexing, and ``oracle_front_end`` chains the two.
"""

import numpy as np

from ptcsim import scheduler
from ptcsim.quantize import NoiseModel, adc_sample, adc_value, fake_quantize, inject_noise, minmax_params


def oracle_cycle_major(x, y, c_cores, p_cycles):
    """(xs, ys) of shapes (M, P, C) and (P, C, Q): reduction index n = c*P + p lands at [.., p, c]."""
    cores, cycles = np.divmod(np.arange(x.shape[1]), max(p_cycles, 1))
    xs = np.zeros((x.shape[0], p_cycles, c_cores))
    ys = np.zeros((p_cycles, c_cores, y.shape[1]))
    xs[:, cycles, cores] = x
    ys[cycles, cores] = y
    return xs, ys


def oracle_front_end(x, y, px, py, noise, c_cores, p_cycles):
    """(xs, ys); same contract as scheduler._engine_operands."""
    return oracle_cycle_major(*oracle_engine_operands(x, y, px, py, noise), c_cores, p_cycles)


def oracle_engine_operands(x, y, px, py, noise):
    """(x, y) as the engine multiplies them, as (M, N) and (N, Q) matrices."""
    if px is None:
        return x, y
    x, y = fake_quantize(x, px), fake_quantize(y, py)
    if noise is None:
        return np.rint(x / px.alpha), np.rint(y / py.alpha)
    return np.clip(inject_noise(x, noise, stream=0), -1.0, 1.0), np.clip(inject_noise(y, noise, stream=1), -1.0, 1.0)


def oracle_simulate_gemm(work, arch, cat, nm=None, mode="ideal"):
    """(z_hat, SimStats) of the reference algorithm; same contract as simulate_gemm."""
    sched = scheduler.plan(work, arch)
    cfg = scheduler.engine_config_for(arch, cat)
    k, c, t_int = arch.k, arch.c_cores, arch.t_int
    x, y = work.x, work.y
    alpha_x = alpha_y = float("nan")
    if mode != "ideal":
        px, py = minmax_params(x, arch.bits_in), minmax_params(y, arch.bits_in)
        alpha_x, alpha_y = px.alpha, py.alpha
        x, y = fake_quantize(x, px), fake_quantize(y, py)
    if mode in ("quantized+noise", "quantized+noise+adc"):
        nm = NoiseModel() if nm is None else nm
        x = np.clip(inject_noise(x, nm, stream=0), -1.0, 1.0)
        y = np.clip(inject_noise(y, nm, stream=1), -1.0, 1.0)

    xp = np.zeros((sched.block_rows * k, sched.n_padded))
    yp = np.zeros((sched.n_padded, sched.block_cols * k))
    xp[: work.m, : work.n] = x
    yp[: work.n, : work.q] = y
    xr = xp.reshape(sched.block_rows, k, c, sched.p_cycles)
    yr = yp.reshape(c, sched.p_cycles, sched.block_cols, k)

    scale = cfg.current_scale()
    currents = np.moveaxis(scale * np.einsum("akcp,cpbl->abpkl", xr, yr), 2, -1)
    volt_scale = cfg.dt / cfg.c_int
    tol = cfg.v_dd * (1.0 + 1e-12)
    z_accum = np.zeros((sched.block_rows, sched.block_cols, k, k))
    for e in range(sched.readouts_per_block):
        chunk = currents[..., e * t_int : (e + 1) * t_int]
        cum = np.cumsum(chunk, axis=-1) * volt_scale
        if np.abs(cum).max(initial=0.0) > tol:
            raise RuntimeError("a partial integrator voltage passes the rail")
        v = cum[..., -1]
        if mode == "quantized+noise+adc":
            v = adc_value(adc_sample(v, cfg.v_dd, arch.bits_out), cfg.v_dd, arch.bits_out)
        z_accum += v

    norm = cfg.normalization()
    z_full = z_accum.transpose(0, 2, 1, 3).reshape(sched.block_rows * k, sched.block_cols * k)
    compute, reset_cycles, readouts = scheduler.cycle_count(work, arch)
    stats = scheduler.SimStats(
        mode=mode,
        compute_cycles=compute,
        reset_cycles=reset_cycles,
        readouts=readouts,
        saturation_events=0,
        normalization_v=norm,
        alpha_x=alpha_x,
        alpha_y=alpha_y,
        schedule=sched,
    )
    return (z_full / norm)[: work.m, : work.q], stats
