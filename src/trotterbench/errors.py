"""Exception types raised on contract violations across the library."""


class TrotterbenchError(Exception):
    """Base class for all library-specific errors."""


class NotSymmetricError(TrotterbenchError):
    """Matrix fails the symmetry tolerance."""


class NonFiniteError(TrotterbenchError):
    """Matrix contains NaN or infinite entries."""


class SpectrumBelowOneError(TrotterbenchError):
    """Generator-role operator has an eigenvalue below one."""


class NonPositiveSpectrumError(TrotterbenchError):
    """Fractional power requested for a spectrum that is not strictly positive."""


class NegativeTimeError(TrotterbenchError):
    """Semigroup evaluated at a negative time step."""


class TimeOutOfRangeError(TrotterbenchError):
    """Family sampled outside its time horizon."""


class NegativeCoefficientError(TrotterbenchError):
    """Scalar profile built with a negative amplitude."""


class NotPSDError(TrotterbenchError):
    """Matrix expected to be positive semidefinite is not."""


class NegativePotentialError(TrotterbenchError):
    """Spatial potential sampled below zero."""


class DegenerateGridError(TrotterbenchError):
    """Too few grid points for the requested estimate."""


class InvalidIntervalError(TrotterbenchError):
    """Time interval violates 0 <= s <= t <= T, or the step count is invalid."""


class NonCommutingFamilyError(TrotterbenchError):
    """Closed-form propagator requested for a family that is not scalar."""


class CapExceededError(TrotterbenchError):
    """Step-halving refinement hit the step cap before reaching tolerance."""


class IndivisibleGridError(TrotterbenchError):
    """Slot count is not a whole multiple of the product length."""


class GridMismatchError(TrotterbenchError):
    """Reference grid has a different number of intervals than the slotted space."""


class TooFewPointsError(TrotterbenchError):
    """Rate fit needs at least four points above the numerical floor."""


class AllBelowFloorError(TrotterbenchError):
    """Every error in the series sits at the numerical floor."""


class FeasibilityViolatedError(TrotterbenchError):
    """Fixed-point equation for the stability constant is infeasible at this n."""


class InfeasibleError(TrotterbenchError):
    """No stability constant found inside the search bracket."""


class ContractivityError(TrotterbenchError):
    """Propagator matrix has operator norm above one."""


class ConfigError(TrotterbenchError):
    """Experiment configuration is malformed."""


class ToleranceFloorError(TrotterbenchError, ValueError):
    """Requested oracle tolerance lies below the resolvable floor."""


class InvalidCountError(TrotterbenchError, ValueError):
    """Grid, slot, step or power count outside its allowed range."""


class BlockShiftError(TrotterbenchError, ValueError):
    """Block-shift operator malformed, or combined with one it does not fit."""


class ExponentRangeError(TrotterbenchError, ValueError):
    """Smoothing or Hoelder exponent outside the range its bound needs."""
