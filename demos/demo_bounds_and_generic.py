#!/usr/bin/env python3
"""Bounds on scl and the generic picture.

The lower bound counts how many block exponents are needed to combine to
zero; the upper bound comes from the word whose cone every same-length cone
contains.  Between them, a randomly sampled word of 2n blocks lands at
n/2 - 1 almost surely.
"""

from sclflow import (
    lower_bound,
    min_vanishing,
    sample_generic_word,
    scl,
    universal_word,
    upper_bound_C,
    render_word,
)

print(__doc__)

print("The maximizing words and their exact values:")
for n in (3, 4, 5, 6):
    w = universal_word(n)
    result = scl(w)
    print(f"  n={n}: scl = {result.value}  (closed-form cap {upper_bound_C(2 * n)})")
print()

print("Vanishing-combination lower bounds:")
for n in (3, 4, 5):
    w = universal_word(n)
    p, lam = min_vanishing(w.x)
    print(f"  n={n}: least vanishing weight p = {p} with witness {lam}; "
          f"lower bound {lower_bound(w)}")
print()

print("Five sampled generic words with 12 blocks (values are all exactly 2):")
for seed in range(5):
    w = sample_generic_word(6, seed)
    result = scl(w)
    print(f"  seed {seed}: scl = {result.value} [{result.status}] "
          f"{render_word(w)[:60]}...")
