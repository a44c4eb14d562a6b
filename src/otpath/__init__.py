"""Semi-discrete optimal transport along the entropic-regularization path.

The solver follows the curve of dual optimizers of a regularized
transport-plus-penalty problem from its closed-form start (full
regularization) to the unregularized optimum, by explicit third-order
Runge-Kutta integration of the governing ODE.  Laguerre-cell diagnostics and
a Newton baseline make the endpoint independently checkable.
"""

from .errors import ConfigError, NearSingularJacobianError, NonFiniteValueError, SolverError
from .homotopy import (
    RKTableau,
    TerminalReport,
    Trajectory,
    capture_snapshot,
    integrate_homotopy,
    rk3_tableau,
)
from .kernel import DualState, KernelEval, KernelEvaluator
from .laguerre import (
    CellField,
    cell_operands,
    power_cell_measures,
    triple_intersection_check,
    unregularized_residual,
)
from .model import (
    CostSpec,
    DensitySpec,
    Domain,
    ProblemSpec,
    TargetSet,
    build_problem,
    density_eval,
    gaussian_bump_density,
    parabola_targets,
    sample_targets,
    uniform_density,
    unit_domain,
)
from .newton import NewtonReport, fixed_t_oracle, newton_1d, solve_xi_star
from .quadrature import QuadratureGrid, build_grid, refine_grid
from .residuals import InitialData, ResidualEval, ResidualSystem

__version__ = "0.1.0"

__all__ = [
    "CellField",
    "ConfigError",
    "CostSpec",
    "DensitySpec",
    "Domain",
    "DualState",
    "InitialData",
    "KernelEval",
    "KernelEvaluator",
    "NearSingularJacobianError",
    "NewtonReport",
    "NonFiniteValueError",
    "ProblemSpec",
    "QuadratureGrid",
    "ResidualEval",
    "ResidualSystem",
    "RKTableau",
    "SolverError",
    "TargetSet",
    "TerminalReport",
    "Trajectory",
    "build_grid",
    "build_problem",
    "capture_snapshot",
    "cell_operands",
    "density_eval",
    "fixed_t_oracle",
    "gaussian_bump_density",
    "integrate_homotopy",
    "newton_1d",
    "parabola_targets",
    "power_cell_measures",
    "refine_grid",
    "rk3_tableau",
    "sample_targets",
    "solve_xi_star",
    "triple_intersection_check",
    "uniform_density",
    "unit_domain",
]


def _keep_freed_arrays_in_heap():
    """Let freed numpy temporaries be reused from the heap (Linux).

    By default glibc serves every block above 128 KiB by its own mmap and
    gives free heap above 128 KiB back to the kernel, so each per-node array
    of a set-up and each (N, chunk) temporary of a sweep faults in fresh
    zeroed pages.  glibc's adaptive rule raises both thresholds once a large
    block has been freed; this sets them to that rule's ceiling (blocks up to
    32 MiB from the heap, up to 64 MiB of free heap kept) from the start.
    Where the C library has no mallopt, nothing changes.
    """
    import ctypes
    import sys

    if sys.platform != "linux":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


_keep_freed_arrays_in_heap()
