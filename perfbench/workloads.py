"""Seeded inputs and the timed operation of each workload.

Inputs are plain data (exponent rows, value lists, cone rows) made from the
workload seed by this file alone; `build` turns them into program objects.
The checkers in `checks.py` read the same plain data, so they never depend
on how the program parsed its input.

Where a random corpus would make the run length depend on the seed (one
4-block word costs 0.07 s, another 6 s), the seed instead draws an image of
a fixed corpus under maps that leave the answer and the work unchanged:
for words a sign per generator and the order of the generators, which keep
the row space of each side and so every cone and linear program; for cones
a relabelling of the vertices and the sign of the row.  A rotation of the
blocks would keep the answer but not the work: it reorders the LP columns,
and one 4-block word took 0.81 s in one rotation and 1.17 s in another.
Classes whose cost does not depend on the draw (3-block words and generic
5-block words) are drawn fresh from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product
from typing import Callable

from checks import least_weight

WORKLOADS = ("scl-words", "scl-sweep", "reduction", "geometry")

# The fixed 4-block corpus of scl-words: the first WORDS_N4 words that the
# word generator draws from this seed.
CORPUS_SEED = 4513
WORDS_N3 = 3
WORDS_N4 = 2
WORDS_N5 = 8

# Acceptance criterion 11's twenty single-row cones (n = 2..4) fall into
# nine classes under relabelling the vertices and negating the row, since
# two cones of a class make the same computation.  A run takes one seeded
# image of the first seven classes; the last two n = 4 classes,
# (2, 2, -3, -1) and (4, -2, -1, -1), would add 6 s to every pass.
GEOMETRY_ROWS = (
    (1, -1),
    (2, -1, -1), (1, 2, -3), (4, -1, -3),
    (1, 1, -1, -1), (1, -1, 2, -2), (3, -1, -1, -1),
)


@dataclass(frozen=True)
class WordInput:
    """A word as n blocks per side and the exponent rows of each side."""

    n: int
    x: tuple[tuple[int, ...], ...]
    y: tuple[tuple[int, ...], ...]
    kind: str  # "commutator" | "universal" | "random" | "sweep"


@dataclass
class Workload:
    name: str
    inputs: list            # plain data, read by the checkers
    items: list             # program objects handed to `op`
    op: Callable            # op(pkg, item) -> output; one user-level call
    clear_per_op: bool      # clear the memo caches before every operation
    min_passes: int = 2     # fewest passes a run makes


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

def _random_side(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """1-3 rows with entries in [-2, 2] that sum to zero; no zero row and no
    all-zero block."""
    while True:
        rows = []
        for _ in range(rng.randint(1, 3)):
            row = [rng.randint(-2, 2) for _ in range(n - 1)]
            row.append(-sum(row))
            if any(row):
                rows.append(tuple(row))
        if rows and all(any(r[j] for r in rows) for j in range(n)):
            return tuple(rows)


def _image(rng: random.Random, x, y) -> tuple:
    """A sign per generator and an order of the generators on each side;
    the row spaces, hence the cones and every linear program, stay the
    same."""
    def side(rows):
        out = []
        for row in rows:
            s = rng.choice((1, -1))
            out.append(tuple(s * v for v in row))
        rng.shuffle(out)
        return tuple(out)

    return side(x), side(y)


def _universal_rows(n: int):
    return tuple(tuple(1 if j == 0 else (-1 if j == i else 0) for j in range(n))
                 for i in range(1, n))


def words_inputs(seed: int) -> list[WordInput]:
    rng = random.Random(seed)
    out = [WordInput(2, ((1, -1),), ((1, -1),), "commutator")]
    for n in (3, 4, 5):
        x, y = _image(rng, _universal_rows(n), _universal_rows(n))
        out.append(WordInput(n, x, y, "universal"))
    for _ in range(WORDS_N3):
        out.append(WordInput(3, _random_side(rng, 3), _random_side(rng, 3), "random"))
    base = random.Random(CORPUS_SEED)
    for _ in range(WORDS_N4):
        x, y = _random_side(base, 4), _random_side(base, 4)
        x, y = _image(rng, x, y)
        out.append(WordInput(4, x, y, "random"))
    # 5-block words that are generic on both sides; a 5-block word that is
    # not can run for minutes (see README), longer than a run may take
    got = 0
    while got < WORDS_N5:
        x, y = _random_side(rng, 5), _random_side(rng, 5)
        if least_weight(x, 5) == 5 and least_weight(y, 5) == 5:
            out.append(WordInput(5, x, y, "random"))
            got += 1
    return out


def sweep_inputs(seed: int) -> list[WordInput]:
    """a-exponents (-(p+q+r), p, q, r), b-exponents (-1, 1, -1, 1) for
    (p, q, r) in {1, 2}^3, in that order, with one seeded sign per side."""
    rng = random.Random(seed)
    sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
    return [WordInput(4, ((-sx * (p + q + r), sx * p, sx * q, sx * r),),
                      ((-sy, sy, -sy, sy),), "sweep")
            for p, q, r in product((1, 2), repeat=3)]


# ---------------------------------------------------------------------------
# Reduction chain
# ---------------------------------------------------------------------------

def _classes(m: int, distinct: bool):
    """Multisets of m nonzero values in [-3, 3], one per pair {M, -M}."""
    pool = combinations_with_replacement((-3, -2, -1, 1, 2, 3), m)
    seen, out = set(), []
    for c in pool:
        if distinct and len(set(c)) < m:
            continue
        if tuple(sorted(-v for v in c)) not in seen:
            seen.add(c)
            out.append(c)
    return out


def reduction_inputs(seed: int) -> list[tuple[int, ...]]:
    """Every 3-entry multiset (28) and every 4-entry set of distinct values
    (9) of nonzero values in [-3, 3], up to sign, each in a seeded order and
    with a seeded sign."""
    rng = random.Random(seed)
    out = []
    for m, distinct in ((3, False), (4, True)):
        for c in _classes(m, distinct):
            perms = sorted(set(permutations(c)))
            s = rng.choice((1, -1))
            out.append(tuple(s * v for v in rng.choice(perms)))
    return out


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

def geometry_inputs(seed: int) -> list[tuple[int, tuple[int, ...]]]:
    """Each cone of the corpus under a seeded vertex relabelling and sign."""
    rng = random.Random(seed)
    out = []
    for row in GEOMETRY_ROWS:
        n = len(row)
        perm = list(range(n))
        rng.shuffle(perm)
        s = rng.choice((1, -1))
        out.append((n, tuple(s * row[perm[j]] for j in range(n))))
    return out


def _geometry_op(pkg, spec):
    discs = pkg.enumerate_disc_vectors(spec, 2)
    verdicts = [(pkg.is_essential(spec, d), pkg.is_extremal(spec, d, n_max=2).is_extremal)
                for d in discs]
    return discs, verdicts, pkg.extremal_rays(spec)


def build(name: str, seed: int, pkg) -> Workload:
    """Inputs from the seed, as plain data and as program objects."""
    if name == "scl-words":
        inputs = words_inputs(seed)
        return Workload(name, inputs, [pkg.make_word(w.n, w.x, w.y) for w in inputs],
                        lambda p, w: p.scl(w), True)
    if name == "scl-sweep":
        inputs = sweep_inputs(seed)
        return Workload(name, inputs, [pkg.make_word(w.n, w.x, w.y) for w in inputs],
                        lambda p, w: p.scl(w, bound=3, stabilize=False), False,
                        min_passes=1)
    if name == "reduction":
        inputs = reduction_inputs(seed)
        return Workload(name, inputs, [list(v) for v in inputs],
                        lambda p, vals: p.reduce_ss_to_smallscl(vals), True)
    if name == "geometry":
        inputs = geometry_inputs(seed)
        return Workload(name, inputs, [pkg.cone_spec(n, [row]) for n, row in inputs],
                        _geometry_op, True)
    raise ValueError(f"unknown workload {name!r}")
