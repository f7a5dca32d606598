"""Behavioral simulator and analytical cost model for a time-multiplexed
multi-tile photonic tensor-core accelerator."""

from .catalog import (
    CatalogError,
    CatalogVariant,
    DeviceKind,
    DeviceSpec,
    builtin_catalog_path,
    dump_catalog,
    load_builtin_catalog,
    load_catalog,
    variant_name,
)
from .costs import (
    CONVENTIONS,
    TOPOLOGIES,
    CostReport,
    LossBudget,
    area_estimate,
    comparison_points,
    cost_report,
    dac_power_scale,
    pareto_csv,
    insertion_loss,
    laser_power_required,
    metrics,
    min_laser_power,
    power_estimate,
    report_to_text,
    sweep,
    sweep_to_csv,
)
from .engine import (
    EngineConfig,
    EngineOutput,
    FieldPair,
    balanced_detect,
    engine_transfer,
    er_amplitude_factor,
    mzm_encode,
    size_capacitor,
)
from .mlp import (
    MlpConfig,
    TinyMlp,
    evaluate,
    forward_via_core,
    make_blobs,
    robustness_table,
    train,
)
from .quantize import (
    NoiseModel,
    QuantizerParams,
    adc_readout,
    adc_sample,
    adc_value,
    apply_noise,
    fake_quantize,
    inject_noise,
    minmax_params,
    quantize_codes,
    quantize_grad_ste,
)
from .scheduler import (
    MODES,
    ArchConfig,
    GemmWorkload,
    Schedule,
    SimStats,
    cycle_count,
    engine_config_for,
    plan,
    simulate_gemm,
)

__version__ = "0.1.0"
