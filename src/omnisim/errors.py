"""Exception hierarchy shared by all omnisim modules, the input checks and
the frozen record base.

The CLI maps these onto exit codes: validation failures exit 2,
numerical failures exit 3, guard refusals exit 4.
"""

import contextlib
import math
from dataclasses import FrozenInstanceError
from functools import cached_property

import numpy as np

FLOAT_MAX = float(np.finfo(float).max)


class OmnisimError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(OmnisimError):
    """Invalid input: bad scene data, malformed files, out-of-range values."""


class SideUndefinedError(ValidationError):
    """A point lies in the panel plane, so its side cannot be classified."""


class InvalidSceneError(ValidationError):
    """The scene itself is inconsistent (e.g. the BS sits in the panel plane)."""


class NumericalError(OmnisimError):
    """A computation cannot proceed for numerical reasons."""


class TooManyUsersError(NumericalError):
    """Zero-forcing requires no more users than BS antennas."""


class RankDeficientChannelError(NumericalError):
    """The channel Gram matrix is singular or too ill-conditioned to invert."""


class SearchSpaceError(OmnisimError):
    """Refused: the exhaustive search space exceeds the hard guard."""


def require_int(name: str, value, minimum: int) -> int:
    """``value`` as an int; ValidationError unless it is an integer (Python
    or numpy, not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValidationError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return int(value)


def require_real(name: str, value, low: float = -FLOAT_MAX, high: float = FLOAT_MAX,
                 *, positive: bool = False) -> float:
    """``value`` as a float; ValidationError unless it is a real number
    (Python or numpy, not a bool, not NaN) in [``low``, ``high``] and, if
    ``positive``, above 0.  The default bounds are the largest finite floats,
    so a bound of -inf or inf is what admits an infinity."""
    real = math.nan
    if type(value) is float:  # the common case, without the checks below
        real = value
    elif not isinstance(value, bool) and isinstance(value, (int, np.integer, np.floating)):
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            real = float(value)
    if low <= real <= high and (real > 0 or not positive):
        return real
    rules = ["positive"] * positive + [f"{word} {bound:g}" for word, bound in (
        ("at least", low), ("at most", high)) if abs(bound) < FLOAT_MAX]
    rules += ["finite"] * (FLOAT_MAX in (-low, high))  # a default bound
    that = f" that is {' and '.join(rules)}" if rules else ""
    raise ValidationError(f"{name} must be a real number{that}, got {value!r}")


def require_array(value, message: str, dtype=float) -> np.ndarray:
    """``value`` as a new array of ``dtype`` (int64, float or complex);
    ValidationError with ``message`` if it is ragged, holds a bool anywhere,
    or holds an entry that is not a number or that ``dtype`` would change
    (a float into an integer, a complex number into a real)."""
    with contextlib.suppress(TypeError, ValueError):  # ragged input, or a cast that changes entries
        array = np.asarray(value)
        if array.dtype.kind in "iufc" and (isinstance(value, np.ndarray) or not _holds_bool(value)):
            return array.astype(dtype, casting="same_kind")
    raise ValidationError(message)


def _holds_bool(value) -> bool:
    """Whether list input nests a bool anywhere: numpy reads a bool beside
    numbers as 0 or 1, so the array's dtype no longer shows it."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, bool) or getattr(value, "dtype", None) == bool


def require_choice(value, kind: type, message: str):
    """``value`` as a member of ``kind``, an Enum class or ``bool`` (a numpy
    bool reads as Python's); ValidationError "<message>, got <value>" for
    anything else, so 1 is not True and "group" is not Granularity.GROUP."""
    if kind is bool and isinstance(value, np.bool_):
        return bool(value)
    if not isinstance(value, kind):
        raise ValidationError(f"{message}, got {value!r}")
    return value


def require_ints(name: str, values, minimum: int) -> tuple[int, ...]:
    """``values`` as a tuple of ints, each checked by :func:`require_int`, with
    its message; values that are all Python ints are checked in one scan."""
    values = tuple(values)
    if set(map(type, values)) == {int} and min(values) >= minimum:
        return values
    return tuple(require_int(name, value, minimum) for value in values)


class Record:
    """Base of the frozen records.  A record's ``__init__`` stores its fields
    once, in order, with one ``vars(self).update(...)``; its repr lists them
    as a dataclass's does, and setting or deleting any attribute raises
    ``FrozenInstanceError``.  A record declared with ``eq=True`` compares
    (to records of its own class) and hashes by its fields, except those
    named in ``uncompared``; any other compares by identity.  A cached
    property is no field."""

    def __init_subclass__(cls, eq: bool = False, uncompared: tuple[str, ...] = ()):
        super().__init_subclass__()
        cls._not_fields = frozenset(name for name, member in vars(cls).items()
                                    if isinstance(member, cached_property))
        if eq:
            cls._uncompared = cls._not_fields.union(uncompared)
            cls.__eq__, cls.__hash__ = Record._equal, Record._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items()
                           if name not in self._not_fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _compared(self) -> tuple:
        return tuple(value for name, value in vars(self).items() if name not in self._uncompared)

    def _equal(self, other):
        if other.__class__ is self.__class__:
            return self._compared() == other._compared()
        return NotImplemented

    def _hash(self) -> int:
        return hash(self._compared())
