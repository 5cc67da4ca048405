"""Reference scl certificate checker, kept for tests only.

This is the checker that `sclflow.engine.verify_certificate` replaced, as
it was: it takes an scl result, not a certificate and a value, and runs
every check on Fractions.  The engine's checker scales v_A, v_B and the
weights by one common denominator and runs the same checks on ints, so
the two must give the same verdict on every certificate.
"""

from __future__ import annotations

from fractions import Fraction

from sclflow.cones import in_cone, is_disc_vector
from sclflow.engine import is_paired


def verify_certificate(result, w) -> bool:
    """Re-derive the reported value from the certificate by exact arithmetic."""
    cert = result.certificate
    n = w.n
    v_a, v_b = cert.v_a, cert.v_b
    if v_a.n != n or v_b.n != n or not is_paired(v_a, v_b):
        return False
    for i in range(n):
        if v_a.outflow(i) != 1 or v_a.inflow(i) != 1:
            return False
        if v_b.outflow(i) != 1 or v_b.inflow(i) != 1:
            return False
    if not in_cone(w.x, v_a) or not in_cone(w.y, v_b):
        return False
    for side, v, spec in ((cert.side_a, v_a, w.x), (cert.side_b, v_b, w.y)):
        total = [[Fraction(0)] * n for _ in range(n)]
        for t, d in zip(side.weights, side.parts):
            if t < 0 or not is_disc_vector(spec, d):
                return False
            for i in range(n):
                for j in range(n):
                    total[i][j] += t * d.entries[i][j]
        for i in range(n):
            for j in range(n):
                if total[i][j] > v.entries[i][j]:
                    return False
    return result.value == (Fraction(n) - cert.kappa_sum()) / 2
