"""Weighted Orlicz-Sobolev toolbox: Young-function calculus, discrete
modular norms, energy functionals, constrained eigen-minimization, and the
three-solution region calculator, with a batch CLI on top.

The import surface mirrors the layering: ``young`` holds the scalar
calculus, ``norms`` the grids and Luxemburg machinery, ``functionals`` the
energies I and J with their derivatives, ``eigensolver`` the projected
minimization and level sweeps, ``region`` the multiplier-window analysis.
"""

__version__ = "0.1.0"

from .errors import (OrliczLabError, DomainError, HorizonError,
                     ConditionFailure, ConfigError, NonConvergenceError)
from .young import (YoungFunction, Power, PowerSum, Plasticity, Elasticity,
                    Newtonian, ExpSquare, Tabulated, ConjugateFunction,
                    SobolevConjugate, Delta2Report, evaluate, derivative,
                    conjugate_at, conjugate_sup_estimate, simonenko_indices,
                    check_delta2, dominates_essentially, sobolev_conjugate,
                    sqrt_convexity_holds, catalog, from_config)
from .norms import (GridDomain, WeightField, GridFunction,
                    gradient_components, gradient_magnitude,
                    gradient_adjoint, modular, modular_values,
                    luxemburg_norm, luxemburg_values, gradient_norm,
                    sobolev_norm, holder_check, poincare_estimate,
                    smooth_candidates, save_values_csv, load_values_csv,
                    domain_from_config)
from .functionals import (EnergySetup, DualGridFunction, energy_I, energy_J,
                          gateaux_I, gateaux_J, project_to_level,
                          scale_to_energy_level, dual_norm)
from .eigensolver import (SolverOptions, EigenPair, LSLevel, SweepResult,
                          default_init, minimize_on_level,
                          rayleigh_multiplier, residual, ls_sequence,
                          spectrum_sweep)
from .region import (RegionReport, build_test_function, constant_norm,
                     energy_bounds_ine, gamma_d, w_tilde_r, lambda_interval,
                     r_condition_cap, admissible, count_critical_points,
                     region_report, grid_search, default_c1, format_report,
                     REPORT_COLUMNS, report_row)

__all__ = [
    "__version__",
    "OrliczLabError", "DomainError", "HorizonError", "ConditionFailure",
    "ConfigError", "NonConvergenceError",
    "YoungFunction", "Power", "PowerSum", "Plasticity", "Elasticity",
    "Newtonian", "ExpSquare", "Tabulated", "ConjugateFunction",
    "SobolevConjugate", "Delta2Report", "evaluate", "derivative",
    "conjugate_at", "conjugate_sup_estimate", "simonenko_indices",
    "check_delta2", "dominates_essentially", "sobolev_conjugate",
    "sqrt_convexity_holds", "catalog", "from_config",
    "GridDomain", "WeightField", "GridFunction", "gradient_components",
    "gradient_magnitude", "gradient_adjoint", "modular", "modular_values",
    "luxemburg_norm", "luxemburg_values", "gradient_norm", "sobolev_norm",
    "holder_check", "poincare_estimate", "smooth_candidates",
    "save_values_csv", "load_values_csv", "domain_from_config",
    "EnergySetup", "DualGridFunction", "energy_I", "energy_J", "gateaux_I",
    "gateaux_J", "project_to_level", "scale_to_energy_level", "dual_norm",
    "SolverOptions", "EigenPair", "LSLevel", "SweepResult", "default_init",
    "minimize_on_level", "rayleigh_multiplier", "residual", "ls_sequence",
    "spectrum_sweep",
    "RegionReport", "build_test_function", "constant_norm",
    "energy_bounds_ine", "gamma_d", "w_tilde_r", "lambda_interval",
    "r_condition_cap", "admissible", "count_critical_points",
    "region_report", "grid_search", "default_c1", "format_report",
    "REPORT_COLUMNS", "report_row",
]
