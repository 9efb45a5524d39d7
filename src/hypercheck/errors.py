"""Error taxonomy shared by all modules.

Every condition the checker can hit on purpose gets its own class so
suites and the CLI can tell an engine bug (`InternalError`) from a
domain error (bad denominator, identity pole, budget) from an honest
congruence failure (which is a report, never an exception).  The series
F(x; N) has no domain error of its own beyond a denominator divisible by
p: for any other x every term is p-integral and no factor is a pole, so a
series sum outside Z_p is an `InternalError`.
"""


class VerifyError(Exception):
    """Base class for all anticipated checker errors."""


class NonUnit(VerifyError):
    """A quantity that must be coprime to p is divisible by p."""


class NonUnitDenominator(VerifyError):
    """A rational input has a denominator divisible by p."""


class IndexTooLarge(VerifyError):
    """A modular harmonic index reached p, where 1/p does not exist."""


class PDivisibleDenominator(VerifyError):
    """A Bernoulli number needed mod p has p in its denominator."""


class PoleInParameter(VerifyError):
    """A rational-function identity was evaluated at a pole."""


class BudgetExceeded(VerifyError):
    """A sweep asked for an instance beyond the configured size caps."""


class UsageError(VerifyError):
    """Bad command line or configuration."""


class InternalError(Exception):
    """Engine self-check failed (cross-engine disagreement or impossible state).

    Deliberately not a VerifyError: nothing should catch and continue
    past this short of the process exit path.
    """
