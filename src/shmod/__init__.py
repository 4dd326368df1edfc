"""Pseudospectral laboratory for the stochastic Swift-Hohenberg equation and
its Ginzburg-Landau amplitude reduction."""

__version__ = "0.14.0"

from .grid import ComplexField, Grid, RealField, read_field, write_field
from .operators import symbol_L_eps
from .bands import band_symbols, demodulate, make_kernel, modulate, project
from .noise import (NoiseConfig, ou_increment_variance, spectral_variance_rate,
                    stochastic_convolution_sample)
from .sh import ModelParams, integrate, modulated_carrier_ic, simulate
from .reduced import (GLCoefficients, gl_coefficients, simulate_gl,
                      simulate_paired)
from .analysis import (LandauFit, estimate_landau_coefficient,
                       fit_scaling_exponent)
from .studies import (ConfigError, ReplayError, StudyConfig, StudyRecord,
                      emit_plotdata, parse_config_file, replay, run_study)
