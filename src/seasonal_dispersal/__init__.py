"""Nonlocal dispersal logistic model with seasonal succession.

Simulation, spectral persistence thresholds, critical habitat lengths,
periodic attractors certified by an ordered one-period sandwich, and the
scalar ODE reference.
"""

from .errors import (BracketError, ConfigError, EigenConvergenceError,
                     IterationBudgetError, PositivityError, SolverError,
                     ValidationError)
from .evolution import StepControl, Trajectory, evolve, period_map
from .model import (BoundaryCondition, Grid, KernelSpec, LaplaceKernel,
                    SeasonParams, StateVector, TabulatedKernel)
from .operator import DispersalOperator, assemble
from .periodic import (DynamicsClassification, Extinction,
                       MonotoneIterationTrace, OdePeriodicSolution,
                       PeriodicSolution, ProfileEntry,
                       asymptotic_profile_study, classify,
                       find_periodic_solution, logistic_flow, ode_period_map,
                       ode_periodic_solution)
from .spectral import (CriticalLengthResult, EigenPair, Regime,
                       critical_length, principal_eigenpair)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCondition", "BracketError", "ConfigError", "CriticalLengthResult",
    "DispersalOperator", "DynamicsClassification", "EigenConvergenceError",
    "EigenPair", "Extinction", "Grid", "IterationBudgetError", "KernelSpec",
    "LaplaceKernel", "MonotoneIterationTrace", "OdePeriodicSolution",
    "PeriodicSolution", "PositivityError", "ProfileEntry", "Regime",
    "SeasonParams", "SolverError", "StateVector", "StepControl",
    "TabulatedKernel", "Trajectory", "ValidationError",
    "assemble", "asymptotic_profile_study", "classify", "critical_length",
    "evolve", "find_periodic_solution", "logistic_flow", "ode_period_map",
    "ode_periodic_solution", "period_map", "principal_eigenpair",
]
