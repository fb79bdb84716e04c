"""Exception taxonomy shared across the toolkit.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps each one to a distinct exit code.
"""


def excerpt(value) -> str:
    """The repr of ``value``, a value read from an input file, cut to at
    most 60 characters for an error message, so that one long field cannot
    flood it; a cut string, list or object also shows its length."""
    import reprlib  # only on the error path, so start-up does not pay for it

    short = reprlib.Repr()
    short.maxlevel = 2  # bounds the work on nested lists, not only the text
    text = short.repr(value)
    if len(text) > 60:
        text = text[:57] + "..."
    if isinstance(value, (str, list, dict)) and "..." in text:
        text += f" (length {len(value)})"
    return text


class DkitError(Exception):
    """Base class for all toolkit errors."""


class ParseError(DkitError):
    """A system description file is malformed or dimensionally inconsistent."""


class IrregularPencil(DkitError):
    """det(sF - G) is identically zero, so no canonical form exists."""


class UnresolvableSpectrum(DkitError):
    """Exact mode hit an irrational or complex eigenvalue.

    Carries the coefficients of the leftover polynomial factor so the
    caller can report what could not be factored over the rationals.
    """

    def __init__(self, message, remaining=None):
        super().__init__(message)
        self.remaining = tuple(remaining) if remaining is not None else ()


class ChainConstructionFailure(DkitError):
    """Rank structure found during chain building contradicts the computed
    multiplicities; in float mode this signals numerical breakdown.

    Float mode also raises it when a numerically rank-deficient system
    stops the interpolation of the characteristic polynomial or the
    least-squares residual of an inconsistent initial state, and when the
    characteristic polynomial reads zero under its thresholds."""


class InputHorizonTooShort(DkitError):
    """An operation needed an input sample outside the supplied signal."""

    def __init__(self, needed, have_first, have_last):
        super().__init__(
            f"input sample at index {needed} required, but signal covers "
            f"[{have_first}, {have_last}]"
        )
        self.needed = needed
        self.have_first = have_first
        self.have_last = have_last


class InconsistentInitialCondition(DkitError):
    """The initial state lies outside the admissible affine set."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
