"""Exception types raised by the toolkit.

Every failure mode that callers are expected to catch has its own class so
that experiment drivers can map problems onto exit codes without string
matching. Scalar arguments are checked against an :class:`Interval`.
"""

import math
import numbers
from dataclasses import dataclass


class StochresError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(StochresError, ValueError):
    """An input of a public function is non-finite or outside its domain."""


def is_integer(value) -> bool:
    """An integer of any type, but not a bool, which ``int()`` would read as 0 or 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Interval:
    """Limit of a scalar: ``lo`` to ``hi``, each end closed unless marked open,
    or unbounded if None; an integer (not a bool) where ``integer`` is set."""

    lo: float = None
    hi: float = None
    open_lo: bool = False
    open_hi: bool = False
    integer: bool = False

    def check(self, name, value, error=InvalidInput):
        """``value`` if within the limit, which no bool, non-number, NaN or
        infinity is; else ``error``, an :class:`InvalidInput`, naming ``name``."""
        if not is_integer(value):
            if self.integer or isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise error(f"{name} must be {'an integer' if self.integer else 'a number'}, "
                            f"got {value!r}")
            if not math.isfinite(value):
                raise error(f"{name} must be finite, got {value!r}")
        if self.lo is not None and (value <= self.lo if self.open_lo else value < self.lo):
            bound = f"{'>' if self.open_lo else '>='} {self.lo}"
        elif self.hi is not None and (value >= self.hi if self.open_hi else value > self.hi):
            bound = f"{'<' if self.open_hi else '<='} {self.hi}"
        else:
            return value
        raise error(f"{name} must be {bound}, got {value!r}")


# --- reservoir construction / simulation -----------------------------------

class LocalityViolation(StochresError):
    """A gate touches more bits than the configured locality budget."""


class DepthViolation(StochresError):
    """A step uses more gates than the configured depth budget."""


class DriveDerivativeViolation(StochresError):
    """A gate's kernel entries change too fast with the drive."""


class StochasticityViolation(StochresError):
    """A kernel is not row-stochastic within tolerance."""


class NonfiniteDrive(InvalidInput):
    """A drive value is not a finite number."""


class DriveBoundViolation(InvalidInput):
    """A drive magnitude exceeds the configured bound."""


class EmptyAfterWashout(StochresError):
    """The input sequence is not longer than its washout."""


class InsufficientTrials(InvalidInput):
    """Too few Monte Carlo trials for a meaningful estimate."""


class ExactModeOverflow(InvalidInput):
    """A dense vector over all 2^n states is asked for past the exact-mode cap."""


class InvalidSamples(InvalidInput):
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

class OutOfRange(InvalidInput):
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
