"""degenpde: reduction and solution of linear operator-differential systems
whose leading operator coefficient has a nontrivial null space.

The pipeline: build the generalized Jordan structure of the operator pair
(chains module), turn the singular system into a regular one plus a small
triangular system for the chain coefficients (reduction module), solve the
regular part with a family-specific back-end (solvers module), and drive
everything from JSON problem files, which also hold the closed-form
references a solve is checked against (problems module), or the command
line (cli module).
"""

from .chains import (CommutabilityResult, JordanStructure,
                     apply_schmidt_inverse, commutability_matrix,
                     complete_structure, structure_report)
from .errors import (CompatibilityError, ConfigurationError, DegenPDEError,
                     EvaluationError, ParseError, StructureError, UsageError)
from .expressions import evaluate, parse, variables_of
from .problems import (OracleOutcome, ProblemFile, bessel_like_sum,
                       evaluate_oracle, instantiate, load_problem,
                       oracle_first_order_evolution, oracle_goursat_constant,
                       oracle_second_order_evolution)
from .reduction import (FAMILIES, DegenerateSystemSpec, ReducedProblem,
                        apply_differential_operator, beta_tables,
                        compat_residual, describe_reduction,
                        reconstruct_solution, reduce, residual_check,
                        rhs_projection, solve_C_recurrence)
from .solvers import (SOLVERS, SolutionField, check_spectral_parameter,
                      solve_family, write_solution_csv)
from .spaces import (FiniteOperator, InnerProductSpace, euclidean_space,
                     grid_space, identity_operator, make_kernel_operator,
                     matrix_operator, mode_space)

__version__ = "0.1.0"

__all__ = [
    "CommutabilityResult", "JordanStructure", "apply_schmidt_inverse",
    "commutability_matrix", "complete_structure", "structure_report",
    "CompatibilityError", "ConfigurationError", "DegenPDEError",
    "EvaluationError", "ParseError", "StructureError", "UsageError",
    "evaluate", "parse", "variables_of",
    "OracleOutcome", "ProblemFile", "bessel_like_sum", "evaluate_oracle",
    "instantiate", "load_problem", "oracle_first_order_evolution",
    "oracle_goursat_constant", "oracle_second_order_evolution",
    "FAMILIES", "DegenerateSystemSpec", "ReducedProblem",
    "apply_differential_operator", "beta_tables", "compat_residual",
    "describe_reduction", "reconstruct_solution", "reduce", "residual_check",
    "rhs_projection", "solve_C_recurrence",
    "SOLVERS", "SolutionField", "check_spectral_parameter", "solve_family",
    "write_solution_csv",
    "FiniteOperator", "InnerProductSpace", "euclidean_space", "grid_space",
    "identity_operator", "make_kernel_operator", "matrix_operator",
    "mode_space",
    "__version__",
]
