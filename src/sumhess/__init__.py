"""Numerics for the sum operator S_k = sigma_k + alpha*sigma_{k-1} of
Hessian eigenvalues: exact symmetric-function calculus, admissible-cone
tests, inequality oracles, a cone-preserving Newton solver for the
Dirichlet problem on boxes, interior-estimate harnesses, and the
scaling/rigidity toolbox, with a CLI wrapping them as reproducible
experiments."""

from .cones import in_gamma_k, in_gamma_tilde_k
from .errors import DegenerateEigenvaluesError, DomainError, SolveFailure
from .fdgrid import Grid, GridField, laplacian_field
from .solver import ProblemSpec, SolveConfig, SolveReport, continuation_solve, initial_guess, solve
from .symfun import SumHessianOp, identity_residuals, sigma_all

__all__ = [
    "DegenerateEigenvaluesError",
    "DomainError",
    "Grid",
    "GridField",
    "ProblemSpec",
    "SolveConfig",
    "SolveFailure",
    "SolveReport",
    "SumHessianOp",
    "continuation_solve",
    "identity_residuals",
    "in_gamma_k",
    "in_gamma_tilde_k",
    "initial_guess",
    "laplacian_field",
    "sigma_all",
    "solve",
]
