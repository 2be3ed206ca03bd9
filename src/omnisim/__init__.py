"""Simulator and optimizer for omni-surface (reflect + refract) wireless links."""

from .analysis import (CoverageGrid, CoverageMap, PatternSweep, coverage_map,
                       radiation_pattern, snr_at)
from .beamforming import (BeamformerResult, OptimizationOutcome, RateResult,
                          evaluate_rates, exhaustive_optimize, greedy_optimize,
                          random_baseline, relaxed_upper_bound,
                          statistical_optimize, sum_rate, zf_precoder)
from .channel import (ChannelGeometry, FadingModel, LinkBudgetChain, Scene,
                      assemble_channel, channel_geometry, friis_gain,
                      link_budget, noise_power)
from .elements import (CoefficientPair, Configuration, Granularity, StateTable,
                       quantize_phase, validate_table)
from .errors import (InvalidSceneError, NumericalError, OmnisimError,
                     RankDeficientChannelError, SearchSpaceError,
                     SideUndefinedError, TooManyUsersError, ValidationError)
from .geometry import ElementLayout, PanelSpec, Side, build_layout, side_of
from .scene_io import (ParsedScene, load_prototype, parse_scene,
                       parse_scene_dict, prototype_scene_path)

__version__ = "0.1.0"

__all__ = [
    "BeamformerResult", "ChannelGeometry", "CoefficientPair",
    "Configuration", "CoverageGrid", "CoverageMap", "ElementLayout",
    "FadingModel", "Granularity", "InvalidSceneError", "LinkBudgetChain",
    "NumericalError", "OmnisimError", "OptimizationOutcome", "PanelSpec",
    "ParsedScene", "PatternSweep", "RankDeficientChannelError", "RateResult",
    "Scene", "SearchSpaceError", "Side", "SideUndefinedError", "StateTable",
    "TooManyUsersError", "ValidationError", "assemble_channel",
    "build_layout", "channel_geometry", "coverage_map", "evaluate_rates",
    "exhaustive_optimize", "friis_gain", "greedy_optimize", "link_budget",
    "load_prototype", "noise_power", "parse_scene", "parse_scene_dict",
    "prototype_scene_path", "quantize_phase", "radiation_pattern",
    "random_baseline", "relaxed_upper_bound", "side_of", "snr_at",
    "statistical_optimize", "sum_rate", "validate_table", "zf_precoder",
]
