"""Stochastic Allen-Cahn dynamics on (-L, L) with ramp Dirichlet data:
stationary profile, energy functional, gradient flow, controlled skeleton
dynamics, multiplicative-noise sampling, action functional, quasi-potential
estimation, and small-noise tail diagnostics.  Stochastic chains run through
`ensemble_run` (chains from a given state) and `sample_invariant` (invariant
measure), both returning the chains of an eps level as one `EnsembleResult`;
`record_replay` keeps one chain's path and noise for the replay diagnostics;
`tail_report` turns sampled measures into the one tail record, `TailReport`."""

__version__ = "0.1.0"

from .action import ActionResult, action, action_gradient, mam_minimize
from .diagnostics import (Replay, check_factorization_params, damped_remainder_path,
                          decomposition_residual, factorization_constant,
                          factorization_identity_error, record_replay,
                          stochastic_convolution)
from .energy import (EnergyReport, energy, energy_fd, energy_gradient,
                     energy_report, energy_star, proximity_check)
from .errors import ConfigurationError, InstabilityError, NumericalError
from .flow import FlowResult, Path, gradient_flow, relaxation_time, skeleton_solve
from .grid import (Boundary, Domain, Field, basis_eval, build_domain,
                   h1_distance, l2_inner, lp_norm, sobolev_norm)
from .ldp import (TailReport, delta_scaling, tail_report, tightness_monotone,
                  wilson_interval)
from .noise import NoiseModel
from .profile import (Profile, compute_profile, energy_formula, solve_e_L,
                      solve_profile, transit_integral)
from .spde import EnsembleResult, SdeParams, ensemble_run, sample_invariant
