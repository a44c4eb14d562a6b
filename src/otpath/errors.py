"""Exception types shared across the solver."""


class ConfigError(ValueError):
    """Invalid problem or experiment configuration."""


class SolverError(RuntimeError):
    """Numerical failure inside a solver (integration, Newton, linear solve)."""


class NearSingularJacobianError(SolverError):
    """Stage Jacobian is singular, non-finite, or its condition number blew up."""

    def __init__(self, t, detail=""):
        self.t = t
        msg = f"near-singular Jacobian at t={t:.6g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NonFiniteValueError(SolverError):
    """An integrand, state, or penalty term produced a non-finite value."""
