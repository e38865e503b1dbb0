"""Numerical laboratory for chaotic eigenstate codes.

Builds or synthesizes chaotic spectra, extracts the statistics of operator
matrix elements in the energy eigenbasis, evaluates Knill-Laflamme residuals
of eigenstate codes, and checks the inequalities tying the code error to
scrambling rates, fluctuations and the fluctuation-dissipation relation.
"""

from .aqec import (BoundReport, CodeSpec, KlResidualReport, check_bounds,
                   code_error_bound, kl_residuals, lyapunov_lower_bound,
                   resolve_lambda, select_code_states, static_fluct_integral)
from .dynamics import (CorrelatorSeries, FdtDeviation, LyapunovFit,
                       PairMeasure, SpectralDensity, dissipation_time,
                       dynamical_fluctuation, fdt_check, fit_lyapunov,
                       gaussian_wavepacket, gibbs_weights, measure_width,
                       otoc, pair_measure, static_fluctuation)
from .errors import (CostGuardError, DivergentIntegralError, EmptyWindowError,
                     EthLabError, FitRejectedError, NumericError, SizeError,
                     ValidationError)
from .extract import (BinningSpec, DiagonalProfile, EnvelopeModel,
                      GaussianityStats, diagonal_profile, envelope_estimate,
                      gaussianity_stats)
from .models import (LocalObservableSpec, SpinChainParams, reflection_blocks,
                     reflection_permutation, to_eigenbasis)
from .spectral import (EnergySpectrum, EntropyModel, MicrocanonicalWindow,
                       OperatorEigenbasis, eigendecompose_blocks, entropy_model,
                       mean_level_spacing, microcanonical_window,
                       spacing_ratio_mean)
from .synth import (EnvelopeSpec, SynthSpectrumParams, synth_eth_operator,
                    synth_spectrum)

__version__ = "0.1.0"
