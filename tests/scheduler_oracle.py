"""Reference simulator: the per-cycle einsum/cumsum algorithm.

It materializes the full (block_rows, block_cols, K, K, P) photocurrent
tensor and integrates it with a running sum, cycle by cycle, exactly as the
machine does.  Tests compare the epoch-streamed ``simulate_gemm`` against
it; it is far too slow and memory-hungry for anything but small shapes.

``oracle_engine_operands`` is the simulator's earlier operand front end:
fake quantization, noise, and on the lattice the integer codes re-derived
from the dequantized operands.
"""

import numpy as np

from ptcsim import scheduler
from ptcsim.quantize import NoiseModel, adc_sample, adc_value, fake_quantize, inject_noise, minmax_params


def _sequential_clamp(currents, scale, v_dd):
    """Clamped integration of a (..., P) current stack; returns (final v, events)."""
    v = np.zeros(currents.shape[:-1])
    events = 0
    for p in range(currents.shape[-1]):
        v = v + currents[..., p] * scale
        events += int((v > v_dd).sum() + (v < -v_dd).sum())
        v = np.clip(v, -v_dd, v_dd)
    return v, events


def oracle_engine_operands(work, arch, nm, mode):
    """(x, y, alpha_x, alpha_y, on_lattice); same contract as scheduler._engine_operands."""
    x, y = work.x, work.y
    alpha_x = alpha_y = float("nan")
    on_lattice = False
    if mode != "ideal":
        px = minmax_params(x, arch.bits_in)
        py = minmax_params(y, arch.bits_in)
        alpha_x, alpha_y = float(px.alpha[0]), float(py.alpha[0])
        x = fake_quantize(x, px)
        y = fake_quantize(y, py)
        on_lattice = mode == "quantized"
        if not on_lattice:
            if nm is None:
                nm = NoiseModel()
            on_lattice = not nm.enabled or nm.sigma == 0.0
            x = np.clip(inject_noise(x, nm, stream=0), -1.0, 1.0)
            y = np.clip(inject_noise(y, nm, stream=1), -1.0, 1.0)
        if on_lattice:
            x, y = np.rint(x / alpha_x), np.rint(y / alpha_y)
    return x, y, alpha_x, alpha_y, on_lattice


def oracle_simulate_gemm(work, arch, cat, nm=None, mode="ideal"):
    """(z_hat, SimStats) of the reference algorithm; same contract as simulate_gemm."""
    sched = scheduler.plan(work, arch)
    cfg = scheduler.engine_config_for(arch, cat)
    k, c, t_int = arch.k, arch.c_cores, arch.t_int
    x, y = work.x, work.y
    alpha_x = alpha_y = float("nan")
    if mode != "ideal":
        px, py = minmax_params(x, arch.bits_in), minmax_params(y, arch.bits_in)
        alpha_x, alpha_y = float(px.alpha[0]), float(py.alpha[0])
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
    saturation_events = 0
    for e in range(sched.readouts_per_block):
        chunk = currents[..., e * t_int : (e + 1) * t_int]
        cum = np.cumsum(chunk, axis=-1) * volt_scale
        if np.abs(cum).max(initial=0.0) > tol:
            v, events = _sequential_clamp(chunk, volt_scale, cfg.v_dd)
            saturation_events += events
        else:
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
        saturation_events=saturation_events,
        max_abs_current_a=float(np.abs(currents).max(initial=0.0)),
        normalization_v=norm,
        alpha_x=alpha_x,
        alpha_y=alpha_y,
        schedule=sched,
    )
    return (z_full / norm)[: work.m, : work.q], stats
