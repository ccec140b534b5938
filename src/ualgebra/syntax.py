"""Parser for the functional term notation `name(arg, ...)`.

Nullary symbols may be written with or without `()`; the printer
(`format_term`) always omits them.  Positions in errors are 0-based
character offsets into the input text.

Text in printed form, give or take whitespace, is read as its names
alone: in prefix notation the names already are the oplist, so one
lookup per name and a comparison with the printed form decide it.  The
printer's owed-separator pass is also the one-term check (it yields no
text unless the oplist is exactly one term), so no machine pass runs.
Any other text goes to the token reader, which walks plain string tokens
and is the only source of diagnostics; offsets are computed only on its
error paths, by scanning the text again.
"""

from __future__ import annotations

import re

from .errors import ArityMismatchError, TermSyntaxError, UnknownSymbolError
from .signature import Signature
from .terms import Term, _printed, format_term

__all__ = ["parse_term", "format_term"]

# a delimiter, or a maximal run of anything else that is not whitespace
_TOKEN = re.compile(r"[(),]|[^\s(),]+")
# the delimiters as spaces: splitting the text then yields the second kind
# of token alone, the names (regex \s and str.split's whitespace agree)
_SPACED = str.maketrans("(),", "   ")


def _offset(text: str, k: int) -> int:
    # character offset of token k; the end marker sits at len(text)
    for i, match in enumerate(_TOKEN.finditer(text)):
        if i == k:
            return match.start()
    return len(text)


def parse_term(signature: Signature, text: str) -> Term:
    """Parse functional notation into a Term over the signature.

    First the text is read as its names: they are looked up in one pass,
    and the names must form exactly one term whose printed form equals
    the text with its whitespace removed.  That check is sound: the
    printed form of one term has a delimiter between every two names and
    never contains `()`, so equality rules out merged names, stray `()`
    and arity errors, and the token reader would return the same oplist.
    On any other text the token reader runs; it is iterative, so input
    depth is unbounded.
    """
    try:
        ops = tuple(map(signature._by_name.__getitem__, text.translate(_SPACED).split()))
    except KeyError:
        pass
    else:
        if _printed(signature, ops) == "".join(text.split()):
            return Term._wrap(signature, ops)

    tokens = _TOKEN.findall(text)
    tokens.append("")  # end marker
    names = signature._by_name
    arities = signature._arities
    pos = 0
    ops: list[int] = []
    # open applications: [token index of the name, expected arity, children seen]
    frames: list[list] = []

    while True:
        at = pos
        name = tokens[at]
        # a delimiter or the end marker "", even where a symbol has that name
        if name in "(),":
            raise TermSyntaxError("expected a symbol name", _offset(text, at))
        try:
            op = names[name]
        except KeyError:
            raise UnknownSymbolError(name, _offset(text, at)) from None
        ops.append(op)
        arity = arities[op]
        pos += 1
        if tokens[pos] == "(":
            if tokens[pos + 1] != ")":
                frames.append([at, arity, 0])
                pos += 1
                continue
            pos += 2
        if arity != 0:
            raise ArityMismatchError(name, arity, 0, position=_offset(text, at))

        # a complete subterm just ended: attach it and close finished frames
        while True:
            token = tokens[pos]
            if not frames:
                if token:
                    raise TermSyntaxError("unexpected trailing input", _offset(text, pos))
                return Term._wrap(signature, tuple(ops))
            frames[-1][2] += 1
            if token == ",":
                pos += 1
                break
            if token == ")":
                pos += 1
                at, expected, got = frames.pop()
                if got != expected:
                    raise ArityMismatchError(
                        tokens[at], expected, got, position=_offset(text, at)
                    )
                continue
            raise TermSyntaxError("expected ',' or ')'", _offset(text, pos))
