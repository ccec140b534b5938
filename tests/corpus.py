"""Shared corpus: three signatures, a few finite algebras over them, and
a strategy for random small algebras."""

from hypothesis import strategies as st

from ualgebra.algebras import FiniteAlgebra
from ualgebra.signature import Signature

# natural numbers: a constant and a successor
NAT = Signature([("z", 0), ("s", 1)])
# one binary operation and two constants
BIN = Signature([("f", 2), ("a", 0), ("b", 0)])
# ternary mix: ternary, unary, and a constant
TERN = Signature([("g", 3), ("s", 1), ("a", 0)])

CORPUS = [NAT, BIN, TERN]

# cyclic counters over NAT
N4 = FiniteAlgebra(NAT, 4, [[0], [1, 2, 3, 0]])
N2 = FiniteAlgebra(NAT, 2, [[0], [1, 0]])
N8 = FiniteAlgebra(NAT, 8, [[0], [1, 2, 3, 4, 5, 6, 7, 0]])

# arbitrary fixed mod-3 algebras for the other signatures
BIN_MOD3 = FiniteAlgebra(
    BIN,
    3,
    [
        [(2 * x + y) % 3 for x in range(3) for y in range(3)],
        [1],
        [2],
    ],
)
TERN_MOD3 = FiniteAlgebra(
    TERN,
    3,
    [
        [(x + 2 * y + z) % 3 for x in range(3) for y in range(3) for z in range(3)],
        [(x + 1) % 3 for x in range(3)],
        [1],
    ],
)

ALGEBRAS = {id(NAT): N4, id(BIN): BIN_MOD3, id(TERN): TERN_MOD3}


def algebra_for(signature):
    return ALGEBRAS[id(signature)]


@st.composite
def small_algebras(draw):
    """A random algebra with carrier size 1-3 over a corpus signature."""
    sig = draw(st.sampled_from(CORPUS))
    size = draw(st.integers(1, 3))
    tables = [
        draw(st.lists(st.integers(0, size - 1), min_size=size ** a, max_size=size ** a))
        for _, a in sig.entries()
    ]
    return FiniteAlgebra(sig, size, tables)
