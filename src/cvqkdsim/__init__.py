"""CV-QKD transceiver chain simulation with gradient-free optimization."""

from .dsp import (FirFilter, convolve, decimate, downsample,
                  generate_symbols, rrc_filter, super_gaussian_lpf,
                  truncated_rrc, upsample)
from .experiments import (BudgetError, RunRecord, SweepSpec, photon_scan,
                          report, run_sweep)
from .keyrate import (DEFAULT_BETA, SkrInputs, TwoModeCovariance,
                      build_covariance, devetak_winter_rate, holevo_bound,
                      mutual_information, secure_key_rate,
                      symplectic_eigenvalues)
from .link import (ChainResult, IsiProfile, LinkConfig, NoiseBudget,
                   ParameterEstimate, assemble_budget, baseline_filters,
                   effective_response, estimate_parameters, run_chain)
from .quantization import QuantizerSpec, measure_noise, quantize
from .reinforce import (Episode, GroupRates, GroupSigmas, OptimizeResult,
                        OptimizerConfig, PolicyState, TransceiverParams,
                        chain_reward, optimize, reinforce_search,
                        reinforce_update, sample_episode)

__version__ = "0.1.0"
