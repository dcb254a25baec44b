"""Stochastic Allen-Cahn dynamics on (-L, L) with ramp Dirichlet data:
stationary profile, energy functional, gradient flow, controlled skeleton
dynamics, multiplicative-noise sampling, action functional, quasi-potential
estimation, and small-noise tail diagnostics.  Stochastic chains run through
`ensemble_run` (chains from a given state) and `sample_invariant` (invariant
measure), both returning the chains of an eps level as one `EnsembleResult`;
`tail_report` turns sampled measures into the one tail record, `TailReport`.
The profile depends on the domain alone: every reader takes it from the
memoized `compute_profile(d)`, and no function takes it as an argument."""

__version__ = "0.1.0"

from .action import ActionResult, action, action_gradient, mam_minimize
from .energy import (EnergyReport, energy, energy_fd, energy_gradient,
                     energy_report, energy_star, proximity_check)
from .errors import ConfigurationError, InstabilityError, NumericalError
from .flow import FlowResult, Path, gradient_flow, relaxation_time, skeleton_solve
from .grid import Boundary, Domain, Field, build_domain, sobolev_norm
from .ldp import (TailReport, delta_scaling, tail_report, tightness_monotone,
                  wilson_interval)
from .noise import NoiseModel
from .profile import (Profile, compute_profile, energy_formula, solve_e_L,
                      solve_profile, transit_integral)
from .spde import EnsembleResult, SdeParams, ensemble_run, sample_invariant
