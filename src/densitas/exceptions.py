"""Error types shared across the toolkit.

Every failure mode an operation can signal deliberately gets its own class so
callers (and the CLI exit-code mapping) can tell contract violations apart
from bad input.
"""


class DensitasError(Exception):
    """Base class for all deliberate errors raised by this package."""


class QueryBeyondHorizon(DensitasError):
    """A truncated bit-table set was asked about membership beyond its horizon."""


class IncompatibleBackends(DensitasError):
    """A set operation was requested on a backend pair it cannot represent."""


class ModulusBudgetExceeded(DensitasError):
    """An lcm materialization would exceed the configured modulus budget."""


class UnsupportedBackend(DensitasError):
    """The requested functional has no evaluator for this backend."""


class NotErdosUlam(DensitasError):
    """Weight sequence failed the divergent-sum / vanishing-ratio checks."""


class SampleNotExact(DensitasError):
    """A battery or probe demanding exact values got an observational sample."""


class InsufficientPrefix(DensitasError):
    """A sequence operation needs more members than the presentation holds."""


class NotMonotone(DensitasError):
    """A limit builder requiring an increasing sequence got a non-increasing one."""


class NonSummableIncrements(DensitasError):
    """Increment norms fail the summability requirement (or cannot be certified)."""


class NoExactNorm(DensitasError):
    """An exact exhaustive norm was required but only estimates are available."""


class NoValidCut(DensitasError):
    """No cut satisfies phi(B - cut) <= 2*norm(B) within the search bound."""


class NotCauchy(DensitasError):
    """No certified Cauchy modulus could be extracted from the sequence."""


class OracleContractViolated(DensitasError):
    """A limit oracle returned a set violating its vanishing-residual contract."""


class ScheduleTooShort(DensitasError):
    """Witness construction needs schedule entries beyond the provided prefix."""


class KappaMismatch(DensitasError):
    """A certificate requiring a specific kappa was asked of other parameters."""


class InvariantsFailed(DensitasError):
    """Structural invariants of a constructed object do not hold."""


class UnprintableValue(DensitasError):
    """A value has a numerator or denominator past Python's int-to-str digit limit."""


class ParseError(DensitasError):
    """Set-literal or descriptor parse failure, with caret position."""

    def __init__(self, message: str, text: str = "", position: int = 0):
        self.text = text
        self.position = position
        if text:
            caret = " " * position + "^"
            message = f"{message}\n  {text}\n  {caret}"
        super().__init__(message)
