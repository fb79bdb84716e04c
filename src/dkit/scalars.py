"""Scalar arithmetic modes.

Two modes are supported and never mixed silently:

* ``Mode.EXACT``  -- arbitrary-precision rationals (``fractions.Fraction``).
  ``Fraction`` keeps values in lowest terms with a positive denominator,
  which is exactly the normal form the rest of the toolkit relies on.
* ``Mode.FLOAT``  -- double-precision complex numbers (``complex``).

A scalar is the pair (mode, value); in Python the value types themselves
carry the distinction, and :func:`ensure_scalar` is the single gatekeeper
that admits a raw value into a given mode.
"""

from __future__ import annotations

import enum
import math
import sys
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DkitError, excerpt

Scalar = Union[Fraction, complex]

# Python's int-to-str digit limit; 0 (no limit) where Python has none
max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


class Mode(enum.Enum):
    EXACT = "exact"
    FLOAT = "float"

    def __str__(self) -> str:
        return self.value


def clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Exact ``values`` times the lcm s of their denominators, and s.

    Integer arithmetic on the scaled values replaces a gcd per ``Fraction``
    operation; an empty sequence has s = 1.  The result is in lowest terms:
    no prime p divides s and every scaled value, as the value whose
    denominator carries the power of p in s has a numerator prime to p and
    is scaled by a factor prime to p.
    """
    s = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (s // x.denominator) for x in values], s


def ensure_scalar(value, mode: Mode) -> Scalar:
    """Admit ``value`` into ``mode``, rejecting cross-mode values.

    ``int`` is accepted by both modes (it is a literal, not a mode carrier);
    ``Fraction`` only in exact mode, ``float``/``complex`` only in float
    mode.  Anything else is a contract violation.
    """
    if isinstance(value, bool):
        raise TypeError(f"bool is not a scalar: {value!r}")
    if mode is Mode.EXACT:
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, Fraction):
            return value
        raise TypeError(f"exact mode cannot hold {type(value).__name__} value {value!r}")
    if isinstance(value, (int, float, complex)):
        return complex(value)
    raise TypeError(f"float mode cannot hold {type(value).__name__} value {value!r}")


def parse_scalar(raw, mode: Mode) -> Scalar:
    """Parse a scalar from its interchange form.

    Accepted forms: integers; strings ``"num/den"`` (exact rational),
    decimal strings such as ``"0.25"`` (read with decimal semantics), and
    in float mode complex strings such as ``"1+2j"`` or plain numbers;
    float mode rejects values that are not finite (nan, inf, overflow).
    Exact mode rejects non-integral JSON numbers: a binary float does not
    say which decimal it stood for, so the file must spell the value as a
    string.  It also rejects a value that :func:`format_scalar` could not
    print back, such as ``"1e5000"``.
    """
    if isinstance(raw, bool):
        raise ValueError(f"boolean is not a scalar: {raw!r}")
    if mode is Mode.EXACT:
        if isinstance(raw, int):
            value = Fraction(raw)
        elif isinstance(raw, float):
            if not raw.is_integer():
                raise ValueError(
                    f"exact mode needs integers or strings, got float {raw!r} "
                    f'(write it as a string, e.g. "1/4" or "0.25")'
                )
            value = Fraction(int(raw))
        elif isinstance(raw, str):
            try:
                value = Fraction(raw)
            except (ValueError, ZeroDivisionError) as exc:
                # Fraction's reason for a malformed raw repeats all of it: kept if short
                reason = f": {exc}" if len(str(exc)) <= 200 else ""
                raise ValueError(f"cannot parse {excerpt(raw)} as a rational{reason}") from None
        else:
            raise ValueError(f"cannot parse {type(raw).__name__} as an exact scalar")
        # an integer within 3 * limit bits is below 2^(3 limit) < 10^limit and
        # prints, so only a longer one is compared with 10^limit, whose
        # computation would cost more than a typical check
        limit, big = max_str_digits(), max(abs(value.numerator), value.denominator)
        if limit and big.bit_length() > 3 * limit and big >= 10**limit:
            raise ValueError(str(_over_digit_limit()))
        return value
    if not isinstance(raw, (int, float, str)):
        raise ValueError(f"cannot parse {type(raw).__name__} as a float scalar")
    try:
        if isinstance(raw, str):
            try:
                value = complex(Fraction(raw))
            except (ValueError, ZeroDivisionError):
                value = complex(raw.replace(" ", ""))
        else:
            value = complex(raw)
    except (ValueError, OverflowError):
        raise ValueError(f"cannot parse {excerpt(raw)} as a float scalar") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{excerpt(raw)} is not a finite float scalar")
    return value


def format_scalar(value: Scalar) -> str:
    """Render a scalar so that parse_scalar round-trips it losslessly.

    Raises ``DkitError`` for an exact value whose numerator or denominator
    has more decimal digits than Python's int-to-str limit
    (``sys.get_int_max_str_digits()``); the limit is left as it is.
    """
    if isinstance(value, Fraction):
        try:
            return str(value)
        except ValueError:
            raise _over_digit_limit() from None
    if isinstance(value, complex):
        if value.imag == 0.0:
            return repr(value.real)
        return repr(value).strip("()")
    if isinstance(value, (int, float)):  # e.g. a float-mode residual norm
        return repr(value)
    raise TypeError(f"not a scalar: {value!r}")


def format_ratios(rows: Iterable[tuple[Sequence[int], int]]) -> list[str]:
    """:func:`format_scalar` of ``Fraction(x, d)`` for each integer x of
    each row (nums, d) in lowest terms, in order, made from the integers
    without a ``Fraction``: a one-entry row in lowest terms is x/d itself."""
    out: list[str] = []
    try:
        for nums, d in rows:
            if d == 1:
                out += map(str, nums)
            elif len(nums) == 1:
                out.append(f"{nums[0]}/{d}")
            else:
                for x in nums:
                    g = math.gcd(x, d)
                    out.append(str(x // g) if g == d else f"{x // g}/{d // g}")
    except ValueError:
        raise _over_digit_limit() from None
    return out


def _over_digit_limit() -> DkitError:
    return DkitError(f"an exact value has more than {sys.get_int_max_str_digits()} "
                     f"decimal digits, Python's limit for printing an integer")
