"""Words in the free product of two free abelian groups.

A word of reduced length 2n alternates n blocks of a-generators with n
blocks of b-generators, starting with a and ending with b.  It is stored
as a pair of exponent matrices: row i of `x` lists the exponents of the
i-th a-generator across the n blocks (and likewise `y` for b).

`ExponentMatrix` is the one type for integer rows on n blocks, and a word
side is also the flow cone it defines (the cone functions of `cones` take
it as is).  It is valid by construction: its constructor alone checks
that n is a positive int, every entry is an int, every row has n entries
and sums to zero (the word lies in the commutator subgroup), and no
column is all zero (every block is nonempty).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InputError, LimitExceeded, ParseError, as_int

# the exponent matrix has one row per generator index up to the largest
# subscript; `universal_word` at its cap of 100 blocks uses subscripts 1..99
GENERATOR_LIMIT = 100
_TOKEN_RE = re.compile(r"^([ab])([1-9][0-9]*)?(?:\^(-?[1-9][0-9]*))?$")


@dataclass(frozen=True)
class ExponentMatrix:
    """Integer rows on n >= 1 blocks (or on the n vertices of a flow cone):
    each row has n entries and sums to zero, and no column is all zero."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise InputError(f"block count must be a positive integer, got {self.n!r}")
        for row in self.rows:
            if any(type(v) is not int for v in row):
                raise InputError(f"row {row} must hold integers")
            if len(row) != self.n:
                raise InputError(f"row {row} does not have {self.n} entries")
            if sum(row):
                raise InputError(f"row {row} does not sum to zero")
        for j in range(self.n):
            if not any(row[j] for row in self.rows):
                raise InputError(f"column {j + 1} of the exponent matrix is all zero")


def matrix(n, rows) -> ExponentMatrix:
    """The matrix of `rows`, entries coerced with `as_int`, trailing zero
    rows dropped."""
    rows = [tuple(map(as_int, r)) for r in rows]
    while rows and not any(rows[-1]):
        rows.pop()
    return ExponentMatrix(as_int(n), tuple(rows))


@dataclass(frozen=True)
class Word:
    x: ExponentMatrix
    y: ExponentMatrix

    def __post_init__(self):
        if self.x.n != self.y.n:
            raise InputError("a-side and b-side block counts differ")

    @property
    def n(self) -> int:
        return self.x.n


def make_word(n, x_rows, y_rows) -> Word:
    return Word(matrix(n, x_rows), matrix(n, y_rows))


def reduced_length(w: Word) -> int:
    return 2 * w.n


def parse_word(text: str) -> Word:
    """Parse whitespace-separated generator tokens into a Word.

    Grammar per token: ("a"|"b") subscript? ("^" exponent)?, subscript a
    positive decimal defaulting to 1 and at most GENERATOR_LIMIT, exponent
    a nonzero integer defaulting to 1.  Blocks must alternate a, b, a, b,
    ... starting with a and ending with b; exponents of a repeated
    generator within a block are summed.
    """
    tokens = text.split()
    if not tokens:
        raise ParseError("empty word")
    blocks: list[tuple[str, dict[int, int]]] = []  # (alphabet, {gen: exp})
    for tok in tokens:
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ParseError(f"malformed token {tok!r}")
        alpha, sub, exp = m.group(1), m.group(2), m.group(3)
        # the digit count is tested first: Python refuses to convert
        # strings of more than 4300 digits
        if sub and (len(sub) > len(str(GENERATOR_LIMIT)) or int(sub) > GENERATOR_LIMIT):
            raise LimitExceeded(
                f"generator subscripts limited to {GENERATOR_LIMIT}, got {tok!r}")
        gen = int(sub) if sub else 1
        try:
            e = int(exp) if exp else 1
        except ValueError:  # the regex admits digits only: too many of them
            raise LimitExceeded(
                f"exponent of {len(exp.lstrip('-'))} digits is longer than "
                "Python converts to an int") from None
        if blocks and blocks[-1][0] == alpha:
            acc = blocks[-1][1]
            acc[gen] = acc.get(gen, 0) + e
        else:
            blocks.append((alpha, {gen: e}))
    if blocks[0][0] != "a":
        raise ParseError(f"word must start with an a-block, got {tokens[0]!r}")
    if blocks[-1][0] != "b":
        raise ParseError(f"word must end with a b-block, got {tokens[-1]!r}")
    # a token of the previous block's letter joins that block, so the
    # blocks alternate; from a to b their count is even
    n = len(blocks) // 2
    for k, (_alpha, acc) in enumerate(blocks):
        if all(v == 0 for v in acc.values()):
            raise ParseError(f"block {k + 1} is empty after combining exponents")
    a_blocks = [acc for alpha, acc in blocks if alpha == "a"]
    b_blocks = [acc for alpha, acc in blocks if alpha == "b"]

    def to_rows(side_blocks, letter):
        ngen = max((g for acc in side_blocks for g, v in acc.items() if v != 0),
                   default=0)
        rows = [[0] * n for _ in range(ngen)]
        for j, acc in enumerate(side_blocks):
            for g, v in acc.items():
                if v != 0:
                    rows[g - 1][j] = v
        for i, row in enumerate(rows):
            if sum(row) != 0:
                raise ParseError(
                    f"generator {letter}{i + 1} totals {sum(row):+d} != 0 "
                    "(word lies outside the commutator subgroup)")
        return rows

    return make_word(n, to_rows(a_blocks, "a"), to_rows(b_blocks, "b"))


def render_word(w: Word) -> str:
    """Canonical text: generators ascending within blocks, exponent 1 elided.

    Bare "a"/"b" shorthand is used exactly when only the first generator of
    each alphabet occurs, so rendering round-trips through parse_word.
    """
    bare = len(w.x.rows) <= 1 and len(w.y.rows) <= 1
    toks = []
    for j in range(w.n):
        for letter, mat in (("a", w.x), ("b", w.y)):
            for i, row in enumerate(mat.rows):
                e = row[j]
                if e == 0:
                    continue
                name = letter if bare else f"{letter}{i + 1}"
                toks.append(name if e == 1 else f"{name}^{e}")
    return " ".join(toks)


def word_to_json(w: Word) -> dict:
    return {"n": w.n, "x": [list(r) for r in w.x.rows], "y": [list(r) for r in w.y.rows]}
