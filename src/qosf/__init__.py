"""Space-frequency block codes for MIMO-OFDM with reconfigurable antennas.

Encodes symbol groups across antenna radiation states, subcarriers and
transmit antennas, simulates frequency-selective Rayleigh fading, decodes by
per-group maximum likelihood, and sweeps BER against baselines written as
configurations of the same code.
"""

from .channel import (
    ChannelFrequencyGrid,
    ReceivedBlock,
    apply,
    draw_channel,
    frequency_response,
)
from .codec import SfCodeword, build_theta, encode, write_codeword
from .config import ConfigError, SystemConfig, config_from_dict, config_to_dict, load_config
from .core import BPSK, QPSK, CapExceededError, hadamard, modulate
from .decoder import DECOUPLED, EXHAUSTIVE, decode
from .angleopt import AngleSearchReport, coding_gain_metric, optimize_angles
from .harness import (
    BerPoint,
    SweepResult,
    SweepSpec,
    emit_plot_data,
    estimate_diversity_order,
    read_results,
    run_point,
    run_sweep,
    scenario_spec,
    snr_at_ber,
    write_results,
)
from .schemes import QosfScheme, alamouti_variant, p1_variant
from .version import __version__

__all__ = [
    "AngleSearchReport",
    "BPSK",
    "BerPoint",
    "CapExceededError",
    "ChannelFrequencyGrid",
    "ConfigError",
    "DECOUPLED",
    "EXHAUSTIVE",
    "QPSK",
    "QosfScheme",
    "ReceivedBlock",
    "SfCodeword",
    "SweepResult",
    "SweepSpec",
    "SystemConfig",
    "alamouti_variant",
    "apply",
    "build_theta",
    "coding_gain_metric",
    "config_from_dict",
    "config_to_dict",
    "decode",
    "draw_channel",
    "emit_plot_data",
    "encode",
    "estimate_diversity_order",
    "frequency_response",
    "hadamard",
    "load_config",
    "modulate",
    "optimize_angles",
    "p1_variant",
    "read_results",
    "run_point",
    "run_sweep",
    "scenario_spec",
    "snr_at_ber",
    "write_codeword",
    "write_results",
    "__version__",
]
