#!/usr/bin/env python3
"""Computing stable commutator length, exactly.

A word alternating blocks of commuting a-generators and b-generators is
parsed into a pair of exponent matrices, and its scl comes out of one
exact rational linear program over paired unit-outflow flows.  Everything
below is exact arithmetic: 1/2 means 1/2, not 0.4999....
"""

from sclflow import parse_word, reduced_length, render_word, scl

print(__doc__)

for text in [
    "a b a^-1 b^-1",                       # the simplest commutator
    "a1 b1 b2 a1^-1 b1^-1 b2^-1",          # one a-generator, two b-generators
    "a^2 b a^-1 b a^-1 b^-2",              # three blocks per side
]:
    w = parse_word(text)
    result = scl(w)
    lo, hi = result.lower, result.value
    print(f"word: {render_word(w)}")
    print(f"  reduced length: {reduced_length(w)}")
    print(f"  scl = {result.value}  [{result.status}, disc bound {result.bound_used}]")
    print(f"  bracket: lower {lo}, upper {hi}"
          + ("  -- certified exact" if lo == hi else ""))
    cert = result.certificate
    print(f"  certificate: {len(cert.side_a.parts)} + {len(cert.side_b.parts)} "
          f"disc vectors with total weight {cert.kappa_sum()}")
    print()

print("The LP value is always an upper bound for scl; `stabilized` means two")
print("consecutive truncation bounds agreed or the value met the lower bound.")
