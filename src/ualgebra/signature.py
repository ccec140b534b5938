"""Operation symbols, arities, and finite signatures.

A signature is an ordered, finite family of operation symbols, each with a
natural-number arity.  Symbols are identified by their position; display
names exist for parsing and printing only.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import FormatError, InvalidSymbolError, SignatureError, _Record, _shown

# Default cap on arity and symbol count when reading untrusted input files.
SANITY_LIMIT = 2 ** 16


class OpSymbol:
    """One operation symbol of a signature.

    Equality and hashing use the owning signature's identity plus the
    index, never the display name.  The fields are read-only by contract
    but not guarded as a signature's are: 2^16 symbols took 18-20 ms to
    construct plain, against 36-44 ms guarded (set through slot descriptors
    or `object.__setattr__`), and a whole signature of 2^16 symbols 44-48 ms
    (Python 3.11, best of 15, three rounds).
    """

    __slots__ = ("signature", "index", "name")

    def __init__(self, signature: "Signature", index: int, name: str):
        self.signature = signature
        self.index = index
        self.name = name

    @property
    def arity(self) -> int:
        return self.signature._arities[self.index]

    def __eq__(self, other):
        return (
            isinstance(other, OpSymbol)
            and self.signature is other.signature
            and self.index == other.index
        )

    def __hash__(self):
        return hash((id(self.signature), self.index))

    def __repr__(self):
        return f"OpSymbol({self.name!r}, arity={self.arity})"


class Signature:
    """An ordered sequence of (display name, arity) pairs.

    Two signatures compare equal iff their symbol sequences agree
    position-wise on names and arities.  Instances are immutable: as a
    record's, their slots refuse assignment and deletion.
    """

    __slots__ = ("_entries", "_arities", "symbols", "_by_name", "_hash", "_printer")

    def __init__(self, entries: Iterable[tuple[str, int]]):
        # every entry is unpacked, so a malformed one raises here; one that
        # is already a pair, such as another signature's entry, is kept
        entries = tuple(
            entry if type(entry) is tuple else (name, arity)
            for entry in entries
            for name, arity in (entry,)
        )
        by_name: dict[str, int] = {}
        for i, (name, arity) in enumerate(entries):
            if not isinstance(name, str):
                raise SignatureError(
                    f"symbol name at index {i} is not a string: {type(name).__name__}"
                )
            if not name:
                raise SignatureError(f"empty symbol name at index {i}")
            if name in by_name:
                raise SignatureError(f"duplicate symbol name: {_shown(name)}")
            if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
                raise SignatureError(f"bad arity for {_shown(name)}: {_shown(arity)}")
            by_name[name] = i
        put = object.__setattr__
        put(self, "_entries", entries)
        put(self, "_arities", tuple(arity for _, arity in entries))
        put(self, "symbols", tuple(OpSymbol(self, i, name) for i, (name, _) in enumerate(entries)))
        put(self, "_by_name", by_name)
        put(self, "_hash", hash(entries))
        put(self, "_printer", None)  # print tables, built by terms on first use

    __setattr__ = _Record.__setattr__
    __delattr__ = _Record.__delattr__

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> tuple[tuple[str, int], ...]:
        return self._entries

    def arity(self, ref) -> int:
        """Arity of a symbol given as an index or as one of this
        signature's own OpSymbol objects."""
        if isinstance(ref, OpSymbol):
            if ref.signature is not self:
                raise InvalidSymbolError(f"{_shown(ref)} belongs to a different signature")
            return self._arities[ref.index]
        if not isinstance(ref, int) or isinstance(ref, bool):
            raise InvalidSymbolError(f"not a symbol index: {_shown(ref)}")
        if not 0 <= ref < len(self._arities):
            raise InvalidSymbolError(
                f"symbol index {_shown(ref)} out of range for {len(self._arities)} symbols"
            )
        return self._arities[ref]

    def symbol(self, ref) -> OpSymbol:
        """Look a symbol up by index or by display name.  One of this
        signature's own OpSymbol objects is returned as it is; a foreign
        one raises InvalidSymbolError."""
        if isinstance(ref, str):
            try:
                return self.symbols[self._by_name[ref]]
            except KeyError:
                raise InvalidSymbolError(f"no symbol named {_shown(ref)}") from None
        self.arity(ref)  # range check, and a foreign OpSymbol raises
        return ref if isinstance(ref, OpSymbol) else self.symbols[ref]

    def extend_with_variables(self, n: int) -> "Signature":
        """Append n fresh arity-0 variable symbols named x0..x(n-1).

        Existing symbols keep their indices.  A fresh name that collides
        with an existing one gets the first free `_k` suffix.
        """
        if isinstance(n, bool) or not isinstance(n, int):
            raise SignatureError(f"not a variable count: {_shown(n)}")
        if n < 0:
            raise SignatureError(f"negative variable count: {_shown(n)}")
        if n == 0:
            return self
        used = set(self._by_name)
        fresh = []
        for i in range(n):
            name = f"x{i}"
            k = 1
            while name in used:
                name = f"x{i}_{k}"
                k += 1
            used.add(name)
            fresh.append((name, 0))
        return Signature(self._entries + tuple(fresh))

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Signature) and self._entries == other._entries
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Signature({list(self._entries)!r})"

    def __reduce__(self):
        # a copy or a pickle is built again from the entries: its own symbols,
        # this process's hash, and no printer
        return Signature, (self._entries,)

    def to_json(self) -> dict:
        return {
            "symbols": [
                {"name": name, "arity": arity} for name, arity in self._entries
            ]
        }

    @classmethod
    def from_json(cls, data, *, limit: int = SANITY_LIMIT) -> "Signature":
        """Read the JSON signature form, applying the sanity limit to the
        symbol count and to every arity."""
        if not isinstance(data, dict) or set(data) != {"symbols"}:
            raise FormatError('signature file must be {"symbols": [...]}')
        rows = data["symbols"]
        if not isinstance(rows, list):
            raise FormatError('"symbols" must be a list')
        if len(rows) > limit:
            raise FormatError(f"symbol count {len(rows)} exceeds limit {limit}")
        entries = []
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or set(row) != {"name", "arity"}:
                raise FormatError(
                    f'symbol {i} must be {{"name": ..., "arity": ...}}'
                )
            entries.append((row["name"], row["arity"]))
        try:
            signature = cls(entries)
        except SignatureError as exc:
            raise FormatError(str(exc)) from None
        for i, arity in enumerate(signature._arities):
            if arity > limit:
                raise FormatError(
                    f"symbol {i}: arity {_shown(arity)} exceeds limit {_shown(limit)}"
                )
        return signature
