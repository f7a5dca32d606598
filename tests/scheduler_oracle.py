"""Reference simulator: the per-cycle einsum/cumsum algorithm.

It materializes the full (block_rows, block_cols, K, K, P) photocurrent
tensor and integrates it with a running sum, cycle by cycle, exactly as the
machine does, and raises if any partial voltage passes the rail.  Tests
compare the epoch-streamed ``simulate_gemm`` against it; it is far too slow
and memory-hungry for anything but small shapes.

Reduction index n = p*C + c is driven by core c in cycle p, as in the
simulator.

``oracle_engine_rows`` is the simulator's earlier operand front end:
fake quantization, noise, and on the lattice (params, no noise) the
integer codes re-derived from the dequantized operand, all on the whole
operand.  It stands in at the simulator's front-end seam,
``scheduler._engine_rows``, and ``record_engine_rows`` records what the
real front end yields there.

The ADC mode here keeps the machine's per-cycle arithmetic in volts, with
the catalog's engine constants, as the independent reference for the
simulator's readout in units of the product.
"""

import copy

import numpy as np

from ptcsim import scheduler
from ptcsim.quantize import NoiseModel, adc_sample, adc_value, fake_quantize, inject_noise, minmax_params


def oracle_engine_rows(a, params, sigma, rng, rows, dtype):
    """scheduler._engine_rows from the oracle: operand a, with noise of intensity sigma drawn from rng,
    or taken from a's standard normals when rng is an array, unless rng is None, rows at a time.

    The slices are cast to dtype, which is exact for the integer codes the
    simulator takes in float32.  int8 codes, which a chain caches, stand for
    the operand codes * alpha: on a scaled operand, whose peak is 1, alpha is
    a power of two, so that product is exact and quantizes to the same codes.
    """
    if a.dtype == np.int8:
        a = a * params.alpha
    a = fake_quantize(a, params)
    if rng is None:
        whole = np.rint(a / params.alpha)
    else:  # inject_noise's arithmetic, on one whole-operand draw from rng
        draws = rng if isinstance(rng, np.ndarray) else rng.standard_normal(a.shape)
        whole = np.clip(a + draws * (np.abs(a) * sigma), -1.0, 1.0)
    whole = whole.astype(dtype)
    return (whole[r0 : r0 + rows] for r0 in range(0, len(a), rows))


def record_engine_rows(calls):
    """A stand-in for scheduler._engine_rows that runs it and appends (args, [copy of each slice]) to calls.

    The recorded noise source, a generator or drawn normals, is a copy taken
    at the call: a generator starts where the real one did, though the real
    one draws on, and normals hold what the call was given, so a call that
    wrote into normals it shares shows in the copies of the calls after it.
    """
    real = scheduler._engine_rows

    def spy(*args):
        calls.append(((*args[:3], copy.deepcopy(args[3]), *args[4:]), []))
        for rows in real(*args):
            calls[-1][1].append(rows.copy())
            yield rows

    return spy


def assert_engine_rows_match_oracle(calls):
    """Every recorded slice equals oracle_engine_rows' bit for bit, and there are as many.

    The oracle draws from a copy of each recorded generator, so calls can be checked again.
    """
    for args, got in calls:
        want = list(oracle_engine_rows(*args[:3], copy.deepcopy(args[3]), *args[4:]))
        assert len(got) == len(want)
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
    xr = xp.reshape(sched.block_rows, k, sched.p_cycles, c)
    yr = yp.reshape(sched.p_cycles, c, sched.block_cols, k)

    scale = cfg.current_scale()
    currents = np.moveaxis(scale * np.einsum("akpc,pcbl->abpkl", xr, yr), 2, -1)
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
        alpha_x=alpha_x,
        alpha_y=alpha_y,
        schedule=sched,
    )
    return (z_full / norm)[: work.m, : work.q], stats
