"""Exception types shared across the package, and how a message shows a
value."""

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


def _capped(text: str) -> str:
    # text, or when longer than _SHOWN_LIMIT its prefix and its length; an
    # unquoted name goes through this alone
    if len(text) > _SHOWN_LIMIT:
        return f"{text[:_SHOWN_LIMIT]}... ({len(text)} characters)"
    return text


def _listed(names) -> str:
    # the least _LISTED_LIMIT names, each capped, then how many more there are
    names = sorted(names)
    text = ", ".join(map(_capped, names[:_LISTED_LIMIT]))
    if len(names) > _LISTED_LIMIT:
        text += f" and {len(names) - _LISTED_LIMIT} more"
    return text


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
