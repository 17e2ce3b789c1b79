"""Cell-free massive MIMO downlink with rate splitting: channel statistics,
closed-form and Monte Carlo spectral efficiency, and power-allocation
optimizers (heuristic, genetic, and a conditional diffusion policy)."""

from .allocation import (GAConfig, GAResult, ga_optimize, heuristic_control,
                         heuristic_split, optimize_eta, optimize_joint,
                         optimize_rho)
from .closed_form import (PowerAllocation, SECache, SEReport, build_cache,
                          evaluate_cache, normalization_coeffs, sum_se_batch,
                          upsilon_moments)
from .config import SystemConfig, db_to_linear, dbm_to_mw
from .diffusion import (Environment, EpsNetwork, ExpertDataset, Schedule,
                        forward_diffuse, load_checkpoint, make_schedule,
                        reverse_sample, save_checkpoint)
from .estimation import (EstimationStatistics, PilotAssignment, assign_pilots,
                         estimation_statistics, perfect_csi_statistics)
from .experiments import (DIFFUSION_SYSTEM, EXPERIMENT_IDS, FIGURE_PRESETS,
                          ConfigError, ExperimentSpec, held_out_envs,
                          parse_config, parse_config_text, run_experiment,
                          training_envs)
from .geometry import (Geometry, LinkStatistics, draw_geometry, link_statistics,
                       path_loss, rician_split)
from .monte_carlo import (AchievableReport, ChannelSampler, achievable_sum_se,
                          instantaneous_sinrs, sample_moments)
from .rng import substream
from .scenario import EnvScenario, build_expert_dataset, train_policy

__version__ = "0.1.0"
