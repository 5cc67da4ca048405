"""Words in the free product of two free abelian groups.

A word of reduced length 2n alternates n blocks of a-generators with n
blocks of b-generators, starting with a and ending with b.  It is stored
as a pair of exponent matrices: row i of `x` lists the exponents of the
i-th a-generator across the n blocks (and likewise `y` for b).  Rows sum
to zero (the word lies in the commutator subgroup) and every block is
nonempty (every column has a nonzero entry somewhere).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InputError, ParseError, as_int

_TOKEN_RE = re.compile(r"^([ab])([1-9][0-9]*)?(?:\^(-?[1-9][0-9]*))?$")


@dataclass(frozen=True)
class ExponentMatrix:
    """Rows of block exponents for one alphabet; trailing zero rows omitted."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.n:
                raise InputError(f"row {row} does not have {self.n} entries")

    def trimmed(self) -> "ExponentMatrix":
        rows = list(self.rows)
        while rows and all(v == 0 for v in rows[-1]):
            rows.pop()
        return ExponentMatrix(self.n, tuple(tuple(r) for r in rows))


def matrix(n, rows) -> ExponentMatrix:
    rows = tuple(tuple(map(as_int, r)) for r in rows)
    return ExponentMatrix(as_int(n), rows).trimmed()


def validate_Mn(x: ExponentMatrix) -> bool:
    """Both membership conditions: rows sum to zero, no all-zero column."""
    for row in x.rows:
        if sum(row) != 0:
            return False
    for j in range(x.n):
        if not any(row[j] != 0 for row in x.rows):
            return False
    return True


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
    w = Word(matrix(n, x_rows), matrix(n, y_rows))
    if not validate_Mn(w.x):
        raise InputError("a-side exponent matrix violates a membership condition")
    if not validate_Mn(w.y):
        raise InputError("b-side exponent matrix violates a membership condition")
    return w


def reduced_length(w: Word) -> int:
    return 2 * w.n


def parse_word(text: str) -> Word:
    """Parse whitespace-separated generator tokens into a Word.

    Grammar per token: ("a"|"b") subscript? ("^" exponent)?, subscript a
    positive decimal defaulting to 1, exponent a nonzero integer defaulting
    to 1.  Blocks must alternate a, b, a, b, ... starting with a and ending
    with b; exponents of a repeated generator within a block are summed.
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
        gen = int(sub) if sub else 1
        e = int(exp) if exp else 1
        if blocks and blocks[-1][0] == alpha:
            acc = blocks[-1][1]
            acc[gen] = acc.get(gen, 0) + e
        else:
            blocks.append((alpha, {gen: e}))
    if blocks[0][0] != "a":
        raise ParseError(f"word must start with an a-block, got {tokens[0]!r}")
    if blocks[-1][0] != "b":
        raise ParseError(f"word must end with a b-block, got {tokens[-1]!r}")
    if len(blocks) % 2 != 0:
        raise ParseError("blocks do not alternate a, b, ..., a, b")
    n = len(blocks) // 2
    for k, (alpha, acc) in enumerate(blocks):
        if alpha != ("a" if k % 2 == 0 else "b"):
            raise ParseError("blocks do not alternate a, b, ..., a, b")
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
