"""Exception types shared across the package, how a message shows a
value, and the base of the package's immutable records."""

from operator import attrgetter

# Longest repr that a message shows in full, and most names a list shows.
_SHOWN_LIMIT = 60
_LISTED_LIMIT = 5


def _shown(value) -> str:
    # repr, except for an int whose repr is longer than _SHOWN_LIMIT (or
    # past Python's 4300-digit limit, which repr refuses): then its size in
    # bits; and a non-int whose repr is longer shows its prefix and length
    if not isinstance(value, int):
        return _capped(repr(value))
    try:
        text = repr(value)
    except ValueError:
        text = None
    if text is not None and len(text) <= _SHOWN_LIMIT:
        return text
    article = "a negative" if value < 0 else "an"
    return f"{article} integer of {value.bit_length()} bits"


def _capped(text: str, limit: int = _SHOWN_LIMIT) -> str:
    # text, or when longer than limit its prefix and its length; an
    # unquoted name goes through this alone
    if len(text) > limit:
        return f"{text[:limit]}... ({len(text)} characters)"
    return text


def _listed(names) -> str:
    # the least _LISTED_LIMIT names, each capped, then how many more there are
    names = sorted(names)
    text = ", ".join(map(_capped, names[:_LISTED_LIMIT]))
    if len(names) > _LISTED_LIMIT:
        text += f" and {len(names) - _LISTED_LIMIT} more"
    return text


class _Record:
    """Base of a small immutable record.  A subclass names its fields in
    `__slots__`, which are also its `__match_args__`, and sets them in its
    own `__init__` through `object.__setattr__`.  A slot whose name starts
    with `_` is a cache, not a field: made empty by the constructor, filled
    by use, and read by nothing below.  Two records are equal when they are
    of one class with equal fields, never across classes or with a tuple; a
    record shows as `Name(field=value, ...)`, and pickles and copies by
    calling its constructor again, so a copy starts with empty caches."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._values = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)


class UAlgebraError(Exception):
    """Base class for every error this package raises deliberately."""


class SignatureError(UAlgebraError):
    """Malformed signature definition: empty or duplicate name, bad arity."""


class InvalidSymbolError(UAlgebraError):
    """A symbol index or name does not belong to the governing signature."""


class SignatureMismatchError(UAlgebraError):
    """Values built over different signatures were mixed in one operation."""


class ArityMismatchError(UAlgebraError):
    """A symbol was applied to the wrong number of arguments."""

    def __init__(self, name, expected, given, position=None):
        msg = f"{_capped(name)} expects {expected} argument(s), got {given}"
        if position is not None:
            msg += f" (at position {position})"
        super().__init__(msg)
        self.name = name
        self.expected = expected
        self.given = given
        self.position = position


class StatusMismatchError(UAlgebraError):
    """An oplist did not have the machine status an operation required."""


class InvalidTermError(UAlgebraError):
    """An oplist offered as a term does not have status ok(1)."""


class LimitExceededError(UAlgebraError):
    """A request went past a configured sanity limit."""


class CarrierMismatchError(UAlgebraError):
    """A carrier element, table, or mapping is out of range or incomplete."""


class BudgetExceededError(UAlgebraError):
    """A satisfaction check would need more evaluations than the budget."""


class TermSyntaxError(UAlgebraError):
    """The term parser rejected the input text."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(TermSyntaxError):
    """The input named a symbol the signature does not define."""

    def __init__(self, name, position):
        TermSyntaxError.__init__(self, f"unknown symbol {_shown(name)}", position)
        self.name = name


class FormatError(UAlgebraError):
    """A JSON input file does not match its documented schema."""
