"""The one number rule: every numeric field of every config type, and every
raw numeric argument of a public function, rejects the same bad values with a
ValueError that names the field or argument, never a TypeError."""

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest

import ptcsim
from ptcsim import (
    ArchConfig,
    CatalogError,
    DeviceKind,
    DeviceSpec,
    MlpConfig,
    NoiseModel,
    QuantizerParams,
    adc_readout,
    adc_sample,
    catalog,
    load_builtin_catalog,
    min_laser_power,
    size_capacitor,
    sweep,
)

#: Values no numeric field takes, except those a field lists as accepted.
BAD = [True, "1", math.nan, math.inf, -math.inf, 10**400, 2.5]
#: A float field takes 2.5; an int field with no upper bound takes 10**400.
FLOAT, UNBOUNDED_INT = (2.5,), (10**400,)


def arch(field, v):
    return ArchConfig(**{field: v})


def mlp_config(field, v):
    return MlpConfig(**{field: v})


def noise(field, v):
    return NoiseModel(**{field: v})


def quantizer(field, v):
    return QuantizerParams(**{"bits": 6, "alpha": 0.1, "zero_point": 0.0, field: v})


def laser(field, v):
    return min_laser_power(20.0, load_builtin_catalog("custom-sl").device(DeviceKind.PHOTODETECTOR), 10.0, **{field: v})


def capacitor(field, v):
    return size_capacitor(**{"i_pd_max": 110e-6, "t_steps": 60, "clock_hz": 5e9, "v_dd": 0.24, field: v})


def adc_sampler(field, v):
    return adc_sample(np.zeros(3), **{"full_scale": 1.0, "bits": 6, field: v})


def adc_reader(field, v):
    return adc_readout(np.zeros(3), **{"full_scale": 1.0, "bits": 6, field: v})


#: (build, field, a value out of its range, the values of BAD it takes)
CONFIG_FIELDS = [
    (arch, "r_tiles", 2**31, ()),
    (arch, "c_cores", 0, ()),
    (arch, "k", -1, ()),
    (arch, "clock_hz", 2e15, FLOAT),
    (arch, "t_int", 0, ()),
    (arch, "t_rst", -1, ()),
    (arch, "bits_in", 17, ()),
    (arch, "bits_out", 0, ()),
    (mlp_config, "bits", 1, UNBOUNDED_INT),  # bits >= 16 is full precision
    (mlp_config, "train_sigma", -0.1, FLOAT),
    (mlp_config, "epochs", 0, UNBOUNDED_INT),
    (mlp_config, "seed", -1, UNBOUNDED_INT),
    (noise, "sigma", -0.1, FLOAT),
    (noise, "seed", -1, UNBOUNDED_INT),
    (quantizer, "bits", 9, ()),
    (quantizer, "alpha", 0.0, FLOAT),
    (quantizer, "zero_point", None, FLOAT),  # every finite zero point is in range
]

#: The same for the raw numeric arguments of the public functions that take
#: numbers no config type brings checked.
ARGUMENTS = [
    (laser, "bits_out", 0, ()),
    (capacitor, "i_pd_max", 0.0, FLOAT),
    (capacitor, "t_steps", 2**31, ()),  # ArchConfig's bound for t_int
    (capacitor, "clock_hz", -1.0, FLOAT),
    (capacitor, "v_dd", 0.0, FLOAT),
    (adc_sampler, "bits", 13, ()),
    (adc_sampler, "full_scale", 0.0, FLOAT),
    (adc_reader, "bits", 1, ()),
    (adc_reader, "full_scale", -1.0, FLOAT),
]

#: Each numeric field of a device with a value out of its range (None: every
#: finite number is in range) and the values of BAD it takes.
DEVICE_FIELDS = {
    "power_w": (-1.0, FLOAT),
    "rated_frequency_hz": (0.0, FLOAT),
    "rated_bits": (17, ()),
    "area_um2": (-1.0, FLOAT),
    "length_um": (0.0, FLOAT),
    "width_um": (0.0, FLOAT),
    "insertion_loss_db": (-1.0, FLOAT),
    "extinction_ratio_db": (0.0, (*FLOAT, math.inf)),  # +inf is the ideal modulator
    "responsivity_a_per_w": (0.0, FLOAT),
    "sensitivity_dbm": (None, FLOAT),
    "dark_current_a": (-1.0, FLOAT),
    "energy_per_bit_j": (-1.0, FLOAT),
    "fanout_n": (1, UNBOUNDED_INT),
}


def bad_values(out_of_range, accepted):
    return [v for v in [*BAD, out_of_range] if v is not None and not any(v is a or v == a for a in accepted)]


def device(kind, field, v):
    return dataclasses.replace(load_builtin_catalog("custom-sl").device(kind), **{field: v})


CASES = [
    pytest.param(build, field, v, id=f"{build.__name__}-{field}-{v!r:.12}")
    for build, field, out_of_range, accepted in CONFIG_FIELDS + ARGUMENTS
    for v in bad_values(out_of_range, accepted)
] + [
    pytest.param(lambda field, v, kind=kind: device(kind, field, v), field, v, id=f"{kind}-{field}-{v!r:.12}")
    for kind, spec in load_builtin_catalog("custom-sl").devices.items()
    for field, (out_of_range, accepted) in DEVICE_FIELDS.items()
    if getattr(spec, field) is not None
    for v in bad_values(out_of_range, accepted)
]


def test_every_numeric_device_field_is_covered():
    numeric = [f.name for f in dataclasses.fields(DeviceSpec) if f.name not in ("kind", "name")]
    assert sorted(DEVICE_FIELDS) == sorted(numeric)


@pytest.mark.parametrize("build, field, value", CASES)
def test_bad_number_is_a_value_error_naming_its_field(build, field, value):
    with pytest.raises(ValueError) as info:
        build(field, value)
    message = str(info.value)
    if isinstance(info.value, CatalogError):
        assert message.startswith("device ")
        message = message.split(": ", 1)[1]
    assert message.startswith(f"{field} must be "), message


def test_a_sweep_point_checks_its_numbers_once(monkeypatch):
    """A 63-point K sweep makes one _check_numbers call per point, its ArchConfig's.

    The rule is wrapped in every module that holds it, so a check any
    pricing function made would be counted too.
    """
    cat, template = load_builtin_catalog("custom-sl"), ArchConfig()
    modules = [importlib.import_module(f"ptcsim.{m.name}") for m in pkgutil.iter_modules(ptcsim.__path__)]
    holders = [m for m in modules if getattr(m, "_check_numbers", None) is catalog._check_numbers]
    assert {m.__name__ for m in holders} >= {"ptcsim.catalog", "ptcsim.costs", "ptcsim.scheduler"}
    checked = []

    def counted(obj, *args, _rule=catalog._check_numbers, **kwargs):
        checked.append(obj)
        return _rule(obj, *args, **kwargs)

    for module in holders:
        monkeypatch.setattr(module, "_check_numbers", counted)
    reports = sweep(template, {cat.name: cat}, "K", range(1, 64))
    assert [r.arch for r in reports] == checked
    assert len(checked) == 63
