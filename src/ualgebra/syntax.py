"""Parser for the functional term notation `name(arg, ...)`.

Nullary symbols may be written with or without `()`; the printer
(`format_term`) always omits them.  Positions in errors are 0-based
character offsets into the input text.  The parser walks plain string
tokens; offsets are computed only on the error path, by scanning the
text again.
"""

from __future__ import annotations

import re

from .errors import ArityMismatchError, TermSyntaxError, UnknownSymbolError
from .signature import OpSymbol, Signature
from .terms import Term, format_term

__all__ = ["parse_term", "format_term"]

# a delimiter, or a maximal run of anything else that is not whitespace
_TOKEN = re.compile(r"[(),]|[^\s(),]+")


def _offset(text: str, k: int) -> int:
    # character offset of token k; the end marker sits at len(text)
    for i, match in enumerate(_TOKEN.finditer(text)):
        if i == k:
            return match.start()
    return len(text)


def parse_term(
    signature: Signature, text: str, aliases: dict[str, OpSymbol] | None = None
) -> Term:
    """Parse functional notation into a Term over the signature.

    `aliases` may map extra surface names to symbols of the signature
    (used for equation variables); aliases win over signature names.
    The parse is iterative, so input depth is unbounded.
    """
    tokens = _TOKEN.findall(text)
    tokens.append("")  # end marker
    names = signature._by_name
    if aliases:
        names = {**names, **{name: sym.index for name, sym in aliases.items()}}
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
