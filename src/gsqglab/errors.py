"""Exception types shared across the package.

Scientific failures carry enough state to be reported by the CLI with
distinct exit codes; see gsqglab.harness.EXIT_CODES for the mapping.
"""


class GsqgError(Exception):
    """Base class for all package-specific failures."""


class OverflowGuardError(GsqgError):
    """A Gevrey weight would overflow double precision.

    Raised before any exp() is evaluated. ``shell`` is the offending
    wavenumber magnitude, ``exponent`` the value of lambda*|k|^alpha.
    """

    def __init__(self, shell: float, exponent: float, limit: float = 700.0):
        self.shell = shell
        self.exponent = exponent
        self.limit = limit
        super().__init__(
            f"gevrey weight overflow: lambda*|k|^alpha = {exponent:.6g} "
            f"exceeds {limit:g} at shell |k| = {shell:.6g}"
        )


class CourantError(GsqgError):
    """Advective CFL number exceeded the configured bound."""

    def __init__(self, courant: float, limit: float, t: float, step: int):
        self.courant = courant
        self.limit = limit
        self.t = t
        self.step = step
        super().__init__(
            f"CFL violation at t={t:.6g} (step {step}): "
            f"measured Courant number {courant:.6g} > limit {limit:.6g}"
        )


class BlowUpError(GsqgError):
    """Solution left the resolvable range (non-finite or runaway norms)."""

    def __init__(self, t: float, step: int, diagnostics: dict):
        self.t = t
        self.step = step
        self.diagnostics = dict(diagnostics)
        details = ", ".join(f"{k}={v:.6g}" for k, v in self.diagnostics.items())
        super().__init__(f"blow-up detected at t={t:.6g} (step {step}): {details}")


class ConfigError(GsqgError):
    """Invalid scenario configuration; collects every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations)
        )


class CheckpointError(GsqgError):
    """Checkpoint file is malformed, truncated, or inconsistent."""


class PicardConvergenceError(GsqgError):
    """Fixed-point iteration failed to reach tolerance within max_iter."""

    def __init__(self, iterations: int, residual: float, tol: float, history=None):
        self.iterations = iterations
        self.residual = residual
        self.tol = tol
        self.history = list(history or [])
        super().__init__(
            f"fixed-point iteration did not converge: residual {residual:.6g} "
            f"after {iterations} iterations (tol {tol:.6g})"
        )
