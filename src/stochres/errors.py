"""Exception types raised by the toolkit.

Every failure mode that callers are expected to catch has its own class so
that experiment drivers can map problems onto exit codes without string
matching.
"""


class StochresError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(StochresError, ValueError):
    """An input of a public function is non-finite or outside its domain."""


# --- reservoir construction / simulation -----------------------------------

class LocalityViolation(StochresError):
    """A gate touches more bits than the configured locality budget."""


class DepthViolation(StochresError):
    """A step uses more gates than the configured depth budget."""


class DriveDerivativeViolation(StochresError):
    """A gate's kernel entries change too fast with the drive."""


class StochasticityViolation(StochresError):
    """A kernel is not row-stochastic within tolerance."""


class NonfiniteDrive(StochresError):
    """A drive value is NaN or infinite."""


class DriveBoundViolation(StochresError):
    """A drive magnitude exceeds the configured bound."""


class EmptyAfterWashout(StochresError):
    """The input sequence is not longer than its washout."""


class InsufficientTrials(StochresError):
    """Too few Monte Carlo trials for a meaningful estimate."""


class ExactModeOverflow(StochresError):
    """Exact propagation requested for a state space that is too large."""


class InvalidSamples(StochresError, ValueError):
    """Sampled bitstrings are not a non-empty array of in-range integers."""


# --- signal handling --------------------------------------------------------

class MixedDimensions(StochresError):
    """Distributions with different bit counts were combined."""


class NegativeProbability(StochresError):
    """An inverse transform produced a significantly negative entry."""


class MissingShotMetadata(StochresError):
    """Empirical-frequency signals lack a shot count."""


# --- capacity engine --------------------------------------------------------

class ZeroTarget(StochresError):
    """A reconstruction target is identically zero."""


class DegenerateSignals(StochresError):
    """All signal columns are identically zero."""


class NotPSD(StochresError):
    """A matrix expected to be positive semidefinite is not."""


class EmptyRank(StochresError):
    """No signal directions survive the rank tolerance."""


class BasisNotOrthonormal(StochresError):
    """The target basis failed its orthonormality check."""


# --- experiments ------------------------------------------------------------

class NonpositiveSignal(StochresError):
    """Tail classification needs strictly positive samples."""


class ConditioningFailure(StochresError):
    """A Gram matrix is numerically rank deficient beyond tolerance."""


class SearchBudgetExceeded(StochresError):
    """The exhaustive shattering search exceeded its budget."""


# --- qubit embedding --------------------------------------------------------

class OutOfRange(StochresError):
    """A probability parameter is outside [0, 1]."""


class InvalidState(StochresError):
    """A matrix is not a valid density matrix."""


class SingularPath(StochresError):
    """A probability path touches zero where a square root is needed."""


# --- runner -----------------------------------------------------------------

class UnknownExperiment(StochresError):
    """The requested experiment name is not registered."""


class ConfigValidation(StochresError):
    """A run configuration failed validation."""


class NumericCheckFailure(StochresError):
    """A built-in numerical verification did not meet its tolerance."""


class IOFailure(StochresError):
    """Reading or writing a run artifact failed."""
