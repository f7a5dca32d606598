"""The one number rule: every numeric field of every config type rejects the
same bad values with a ValueError that names the field, never a TypeError."""

import dataclasses
import math

import pytest

from ptcsim import ArchConfig, CatalogError, DeviceSpec, MlpConfig, NoiseModel, QuantizerParams, load_builtin_catalog

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
    for build, field, out_of_range, accepted in CONFIG_FIELDS
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
