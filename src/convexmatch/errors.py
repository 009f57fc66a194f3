"""Exception types shared across the package.

Three severities matter to callers (and fix the command-line exit code).
Usage errors flag malformed or out-of-range input.  Domain negatives answer
a well-posed question with "no such object"; they are expected outcomes,
not bugs.  Falsification alarms fire on conditions that are mathematically
guaranteed never to occur on valid input, so raising one means either this
package or the underlying theory is broken.  Alarms must never be caught
and silenced.
"""

from math import log10


def brief(value: int) -> str:
    """``value`` as text, or its digit count once it has more than 20
    digits ("a 3000-digit number"), so that a message echoing an int a
    caller supplied stays short."""
    size = abs(value)
    if size < 10**20:
        return str(value)
    digits = int(log10(size)) + 1  # float log10 may be one off
    if 10 ** (digits - 1) > size:
        digits -= 1
    elif 10**digits <= size:
        digits += 1
    sign = "negative " if value < 0 else ""
    return f"a {digits}-digit {sign}number"


def brief_text(text: str) -> str:
    """``text`` quoted, or its length once it runs past 20 characters
    ("a 5000-character text"), so that a message echoing text a caller
    supplied stays short."""
    if len(text) <= 20:
        return repr(text)
    return f"a {len(text)}-character text"


class UsageError(ValueError):
    """Malformed, inconsistent, or out-of-range input."""


class ParseError(UsageError):
    """Unreadable text form of a coloring or matching."""


class UnbalancedColors(UsageError):
    """Coloring does not contain equally many red and blue points."""


class SharedEndpoint(UsageError):
    """Two edges share an endpoint where distinct endpoints are required."""


class InvalidMatching(UsageError):
    """Matching fails validation against its coloring."""


class OddN(UsageError):
    """Construction requires an even number of point pairs."""


class OutOfRange(UsageError):
    """Numeric parameter outside its documented range."""


class NotFourBlock(UsageError):
    """Coloring does not consist of exactly four blocks."""


class NotSixBlockPattern(UsageError):
    """Block sizes do not fit the six-block witness pattern."""


class TooSmall(UsageError):
    """Point set below the minimum size for this operation."""


class SizeLimitExceeded(UsageError):
    """Instance larger than the enforced search limit (override via budget
    or environment variable)."""


class CorruptJournal(UsageError):
    """Atlas journal has an unreadable line before its last one."""


class DomainNegative(Exception):
    """A well-posed question whose answer is that no such object exists."""


class Unachievable(DomainNegative):
    """Requested crossing number lies outside the achievable set."""


class BudgetExceeded(DomainNegative):
    """Search node budget exhausted before the answer was complete.

    ``partial`` carries whatever incomplete result was assembled, when the
    operation has something meaningful to hand back.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class FalsificationAlarm(Exception):
    """Impossible-by-theory condition observed.  Never silence this."""


class WitnessBelowBound(FalsificationAlarm):
    """Best witness matching has fewer crossings than the guaranteed bound."""


class MaximumMismatch(FalsificationAlarm):
    """No matching has the closed-form maximum crossing count."""


class SweepMismatch(FalsificationAlarm):
    """Exhaustive min-max sweep disagrees with the closed-form bound."""


class NoBalancedWindow(FalsificationAlarm):
    """No contiguous 14-point window of the residual sequence is balanced."""


class WindowSpectrumGap(FalsificationAlarm):
    """A 14-point window misses a crossing number it is guaranteed to have."""


class CrossWindowCrossing(FalsificationAlarm):
    """Composed matching's recount differs from the sum of window targets."""
