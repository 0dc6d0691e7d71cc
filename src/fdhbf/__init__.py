"""fdhbf: link-level simulator for a full-duplex massive-MIMO node with
partially-connected hybrid beamforming and multi-tap analog SI cancellation."""

from .beamforming import (
    AnalogBeamformer,
    NodeConfig,
    assemble_block_diagonal,
    best_rx_beams,
    best_tx_beams,
    capacity_precoder,
    design_dl_precoder,
    design_ul_combiner,
    design_ul_precoder,
    select_analog_beams,
)
from .canceller import (
    CancellerConfig,
    TapImpairments,
    TapRouting,
    assemble_canceller,
    effective_si,
    enumerate_routings,
    set_tap_values,
)
from .channel import (
    ArrayGeometry,
    ChannelRealization,
    ClusteredChannelParams,
    SiChannelParams,
    clustered_channel,
    rician_si_channel,
    steering_vector,
)
from .codebook import BeamCodebook, dft_codebook
from .config import ConfigError, SweepConfig, load_config
from .numerics import log2det_hpd, svd, waterfill
from .rates import (
    dl_rate,
    residual_si_profile,
    signal_sample_stats,
    ul_ipn_covariance,
    ul_rate,
)
from .sweep import draw_channels, emit_csv, run_sweep, trial_rng
from .trial import TrialResult, hd_baseline_rate, solve_trial

__version__ = "0.1.0"

__all__ = [
    "AnalogBeamformer", "ArrayGeometry", "BeamCodebook", "CancellerConfig",
    "ChannelRealization", "ClusteredChannelParams", "ConfigError",
    "NodeConfig", "SiChannelParams",
    "SweepConfig", "TapImpairments", "TapRouting", "TrialResult",
    "assemble_block_diagonal", "assemble_canceller", "best_rx_beams",
    "best_tx_beams", "capacity_precoder", "clustered_channel",
    "design_dl_precoder", "design_ul_combiner", "design_ul_precoder",
    "dft_codebook", "dl_rate", "draw_channels", "effective_si", "emit_csv",
    "enumerate_routings", "hd_baseline_rate", "load_config", "log2det_hpd",
    "residual_si_profile", "rician_si_channel",
    "run_sweep", "select_analog_beams", "set_tap_values",
    "signal_sample_stats", "solve_trial", "steering_vector", "svd",
    "trial_rng", "ul_ipn_covariance", "ul_rate", "waterfill",
]
