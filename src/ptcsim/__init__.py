"""Behavioral simulator and analytical cost model for a time-multiplexed
multi-tile photonic tensor-core accelerator."""

from .catalog import (
    COUPLING_LENGTH_TABLE_UM,
    CatalogError,
    CatalogVariant,
    DeviceKind,
    DeviceSpec,
    MmiDesign,
    beating_length,
    beta_for_width,
    builtin_catalog_path,
    coupling_length_for_ratio,
    dump_catalog,
    load_builtin_catalog,
    load_catalog,
    mmi_length_center_fed,
    mmi_length_general,
    mmi_length_paired,
    phase_shifter_delta,
    scale_1x2k_mmi,
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
    evaluate_via_core,
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
    round_half_away,
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
