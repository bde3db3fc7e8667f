"""Dense truth tables: the brute-force semantics used to verify diagrams.

A table of arity ``n`` stores all ``2**n`` output bits in one integer
mask.  Bit ``i`` of the mask is the output for the valuation whose index
is ``i`` when ``x0`` is read as the *most significant* bit of the index
(``x0`` is always the variable a diagram consumes first).

Tables are deliberately capped at arity 24: this module is a desk-scale
oracle, not a representation meant to compete with the diagrams.

``letter_mask`` is the one definition of what each edge letter does to a
function (a canalizing one's through its ``branch`` and ``const``);
``graph.edge_mask`` reads every word through it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .letters import N, U, X, Letter

#: Largest arity the dense representation accepts.
ARITY_LIMIT = 24

#: Accepted combinator names: Shannon, positive Davio, negative Davio.
COMBINATORS = ("s", "d+", "d-")


class ArityError(ValueError):
    """Operands or valuations whose arities do not line up."""


class OracleLimitError(ValueError):
    """Requested arity exceeds the dense-table cap."""


def check_arity(n: int) -> int:
    """``n``, if a dense table may have arity ``n``; else raise."""
    if n < 0:
        raise ArityError(f"arity must be nonnegative, got {n}")
    if n > ARITY_LIMIT:
        raise OracleLimitError(
            f"arity {n} exceeds the truth-table limit of {ARITY_LIMIT}")
    return n


@dataclass(frozen=True)
class TruthTable:
    """A Boolean function of ``arity`` variables as a 2**arity-bit mask."""

    arity: int
    mask: int

    def __post_init__(self):
        check_arity(self.arity)
        if not 0 <= self.mask < (1 << self.size):
            raise ValueError(
                f"mask {self.mask:#x} out of range for arity {self.arity}")

    @property
    def size(self) -> int:
        """Number of valuations, ``2**arity``."""
        return 1 << self.arity

    @property
    def bits(self) -> tuple[int, ...]:
        """Output bits indexed by valuation, ``x0`` as index MSB."""
        return tuple((self.mask >> i) & 1 for i in range(self.size))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> TruthTable:
        bits = tuple(bits)
        n = max(len(bits).bit_length() - 1, 0)
        if len(bits) != 1 << n:
            raise ValueError(f"bit count {len(bits)} is not a power of two")
        mask = 0
        for i, b in enumerate(bits):
            if b:
                mask |= 1 << i
        return cls(n, mask)

    @classmethod
    def constant(cls, arity: int, value: int) -> TruthTable:
        check_arity(arity)
        return cls(arity, ((1 << (1 << arity)) - 1) if value else 0)

    @classmethod
    def projection(cls, arity: int, index: int) -> TruthTable:
        """The function returning variable ``x<index>`` unchanged."""
        check_arity(arity)
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range")
        mask = 0
        for i in range(1 << arity):
            if (i >> (arity - 1 - index)) & 1:
                mask |= 1 << i
        return cls(arity, mask)

    @classmethod
    def from_hex(cls, arity: int, digits: str) -> TruthTable:
        """Parse the external hex form: MSB-first over valuation indices."""
        check_arity(arity)
        size = 1 << arity
        expected = -(-size // 4)
        if len(digits) != expected:
            raise ValueError(
                f"arity {arity} needs {expected} hex digits, got {len(digits)}")
        # int() would also take "0x", "_", a sign, spaces or other digits
        if not re.fullmatch("[0-9A-Fa-f]*", digits):
            raise ValueError(f"a hex table takes only the digits 0-9 and "
                             f"A-F, got {digits[:16]!r}")
        value = int(digits, 16)
        if value >> size:
            raise ValueError(f"hex value {digits!r} too wide for arity {arity}")
        return cls(arity, _reverse_bits(value, size))

    def to_hex(self) -> str:
        width = -(-self.size // 4)
        return format(_reverse_bits(self.mask, self.size), f"0{width}X")

    def popcount(self) -> int:
        """Number of satisfying valuations."""
        return self.mask.bit_count()

    def __repr__(self):
        return f"TruthTable(arity={self.arity}, hex={self.to_hex()!r})"


def _reverse_bits(value: int, width: int) -> int:
    return int(format(value, f"0{width}b")[::-1], 2)


def tt_eval(f: TruthTable, valuation: Sequence[int]) -> int:
    """Evaluate ``f`` at a valuation ``(x0, ..., x_{n-1})``."""
    if len(valuation) != f.arity:
        raise ArityError(
            f"valuation length {len(valuation)} != arity {f.arity}")
    index = 0
    for v in valuation:
        index = index << 1 | (1 if v else 0)
    return (f.mask >> index) & 1


def tt_apply(op: str, f: TruthTable, g: TruthTable | None = None) -> TruthTable:
    """Pointwise connective over equal-arity tables.

    ``op`` is one of ``not``/``and``/``or``/``xor``; ``not`` is unary.
    """
    if op == "not":
        if g is not None:
            raise ValueError("'not' is unary")
        return TruthTable(f.arity, f.mask ^ (1 << f.size) - 1)
    if g is None:
        raise ValueError(f"{op!r} needs two operands")
    if f.arity != g.arity:
        raise ArityError(f"arity mismatch: {f.arity} vs {g.arity}")
    if op == "and":
        mask = f.mask & g.mask
    elif op == "or":
        mask = f.mask | g.mask
    elif op == "xor":
        mask = f.mask ^ g.mask
    else:
        raise ValueError(f"unknown operation {op!r}")
    return TruthTable(f.arity, mask)


def combine(comb: str, f: TruthTable, g: TruthTable) -> TruthTable:
    """Merge two n-ary functions into an (n+1)-ary one branching on a
    fresh leading variable.

    * ``s``  (Shannon):        x0=0 gives f, x0=1 gives g;
    * ``d+`` (positive Davio): f xor (x0 and g);
    * ``d-`` (negative Davio): f xor (not-x0 and g).
    """
    if f.arity != g.arity:
        raise ArityError(f"arity mismatch: {f.arity} vs {g.arity}")
    size = f.size
    comb = comb.lower()
    if comb == "s":
        mask = f.mask | g.mask << size
    elif comb == "d+":
        mask = f.mask | (f.mask ^ g.mask) << size
    elif comb == "d-":
        mask = (f.mask ^ g.mask) | f.mask << size
    else:
        raise ValueError(f"unknown combinator {comb!r}")
    return TruthTable(f.arity + 1, mask)


def letter_mask(letter: Letter, mask: int, arity: int) -> int:
    """The mask of ``letter`` applied to the arity-``arity`` function
    ``mask``: the one definition of every letter's functor.

    Elementary letters prepend a typed variable (arity grows by one);
    the complement mark ``N`` negates the output in place.
    """
    size = 1 << arity
    ones = (1 << size) - 1
    if letter is N:
        return mask ^ ones
    if letter is U:
        return mask | mask << size
    if letter is X:
        return mask | (mask ^ ones) << size
    # a canalizing letter: its branch's half is the constant it forces
    branch = getattr(letter, "branch", None)
    if branch is None:
        raise ValueError(f"unknown letter {letter!r}")
    forced = ones if letter.const else 0
    if branch:
        return mask | forced << size
    return forced | mask << size
