"""Checks of the program's outputs, written apart from the program.

Nothing here imports `sclflow`: every fact is re-derived from the plain
inputs in `workloads.py` with this file's own enumeration, connectivity
test, rank computation and brute-force searches.  The one floating-point
step, the truncated scl linear program, is solved with scipy's HiGHS over
disc vectors that this file enumerates itself.  numpy and scipy are
imported only when that step runs, after the measured process has read
its peak memory.

Each checker takes plain data and returns a list of error strings, empty
when the output is right; `to_plain_*` turn program objects into that data.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd

LP_TOLERANCE = 1e-6


# ---------------------------------------------------------------------------
# Flows as n x n tuples of numbers
# ---------------------------------------------------------------------------

def _outflows(mat):
    return [sum(row) for row in mat]


def _inflows(mat):
    return [sum(col) for col in zip(*mat)]


def _conserved(mat) -> bool:
    return _outflows(mat) == _inflows(mat)


def _weight_zero(rows, mat) -> bool:
    o = _outflows(mat)
    return all(sum(z * oj for z, oj in zip(row, o)) == 0 for row in rows)


def _integral(mat) -> bool:
    return all(Fraction(v).denominator == 1 for row in mat for v in row)


def strongly_connected(mat) -> bool:
    """Support digraph strongly connected on the vertices it touches, by
    Warshall's transitive closure."""
    n = len(mat)
    touched = [i for i in range(n) if any(mat[i]) or any(r[i] for r in mat)]
    if not touched:
        return False
    reach = [[i == j or bool(mat[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return all(reach[u][v] for u in touched for v in touched)


def disc_errors(rows, mat, bound=None) -> list[str]:
    """Why `mat` is not a disc vector of the cone of `rows`, if it is not."""
    errs = []
    if any(v < 0 for row in mat for v in row):
        errs.append("negative entry")
    if not any(v for row in mat for v in row):
        errs.append("zero flow")
    if not _integral(mat):
        errs.append("not integral")
    if not _conserved(mat):
        errs.append("not conserved")
    if not _weight_zero(rows, mat):
        errs.append("nonzero weight")
    if not strongly_connected(mat):
        errs.append("support not strongly connected")
    if bound is not None and max(_outflows(mat)) > bound:
        errs.append(f"outflow above {bound}")
    return errs


def _compositions(total: int, parts: int):
    """Nonnegative integer tuples of length `parts` summing to `total`."""
    for cuts in combinations(range(total + parts - 1), parts - 1):
        prev, out = -1, []
        for c in cuts:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield tuple(out)


_DISC_MEMO: dict = {}


def disc_vectors(n: int, rows, bound: int) -> frozenset:
    """Every disc vector with outflows <= bound: for each weight-zero
    outflow vector o, every matrix whose rows and columns both sum to o,
    with the last row fixed by the column sums."""
    key = (n, tuple(map(tuple, rows)), bound)
    if key in _DISC_MEMO:
        return _DISC_MEMO[key]
    found = set()
    for o in product(range(bound + 1), repeat=n):
        if not any(o) or any(sum(z * v for z, v in zip(row, o)) for row in rows):
            continue

        def fill(i, col_left, acc):
            if i == n - 1:
                if sum(col_left) == o[i]:
                    yield acc + (tuple(col_left),)
                return
            for row in _compositions(o[i], n):
                left = [c - v for c, v in zip(col_left, row)]
                if min(left) >= 0:
                    yield from fill(i + 1, left, acc + (row,))

        for mat in fill(0, list(o), ()):
            if strongly_connected(mat):
                found.add(mat)
    result = frozenset(found)
    _DISC_MEMO[key] = result
    return result


def _matrix_rank(mat) -> int:
    m = [[Fraction(v) for v in row] for row in mat]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# scl: certificates, lower bound, truncated LP, closed forms
# ---------------------------------------------------------------------------

def to_plain_scl(result) -> dict:
    cert = result.certificate

    def mat(flow):
        return tuple(tuple(row) for row in flow.entries)

    return {
        "value": result.value,
        "bound_used": result.bound_used,
        "v_a": mat(cert.v_a),
        "v_b": mat(cert.v_b),
        "side_a": [(t, mat(d)) for t, d in zip(cert.side_a.weights, cert.side_a.parts)],
        "side_b": [(t, mat(d)) for t, d in zip(cert.side_b.weights, cert.side_b.parts)],
    }


def least_weight(rows, n: int) -> int:
    """Least total weight of a nonzero lam >= 0 annihilating every row, over
    every composition of each weight 1..n."""
    for w in range(1, n + 1):
        for lam in _compositions(w, n):
            if all(sum(l * z for l, z in zip(lam, row)) == 0 for row in rows):
                return w
    raise ValueError(f"no annihilating combination for {rows}")


def lower_bound(word) -> Fraction:
    p, q = least_weight(word.x, word.n), least_weight(word.y, word.n)
    return max(Fraction(0), Fraction(word.n, 2) * (1 - Fraction(1, p) - Fraction(1, q)))


def closed_form_C(m: int) -> Fraction:
    """The paper's largest scl at even reduced length m = 2n > 4, attained by
    the universal word: n/2 - 1 for odd n, and
    n/2 - ((n-1)! - 1) / (n (n-2)! - 2) for even n."""
    n = m // 2
    if n % 2:
        return Fraction(n, 2) - 1
    return Fraction(n, 2) - Fraction(factorial(n - 1) - 1, n * factorial(n - 2) - 2)


def certificate_errors(word, out) -> list[str]:
    """v_A doubly stochastic, v_B its pairing image, every part a disc vector
    of its side with weight >= 0, weighted sums <= v, value = (n - sum t)/2."""
    n = word.n
    errs = []
    v_a, v_b = out["v_a"], out["v_b"]
    if any(v < 0 for row in v_a for v in row):
        errs.append("v_A has a negative entry")
    if any(s != 1 for s in _outflows(v_a)) or any(s != 1 for s in _inflows(v_a)):
        errs.append("v_A is not doubly stochastic")
    if any(v_b[k][i] != v_a[i][(k + 1) % n] for k in range(n) for i in range(n)):
        errs.append("v_B is not the pairing image of v_A")
    total = Fraction(0)
    for label, rows, v, parts in (("A", word.x, v_a, out["side_a"]),
                                  ("B", word.y, v_b, out["side_b"])):
        acc = [[Fraction(0)] * n for _ in range(n)]
        for t, d in parts:
            if t < 0:
                errs.append(f"side {label}: negative weight {t}")
            bad = disc_errors(rows, d)
            if bad:
                errs.append(f"side {label}: part {d} is not a disc vector ({', '.join(bad)})")
            total += t
            for i in range(n):
                for j in range(n):
                    acc[i][j] += t * d[i][j]
        if any(acc[i][j] > v[i][j] for i in range(n) for j in range(n)):
            errs.append(f"side {label}: weighted parts exceed v")
    if out["value"] != (Fraction(n) - total) / 2:
        errs.append(f"value {out['value']} != (n - sum t)/2 = {(Fraction(n) - total) / 2}")
    return errs


def truncated_lp(word, bound: int) -> float:
    """scl value of the LP truncated at `bound`, in floating point: maximize
    the total weight S of disc vectors packed under a doubly stochastic v_A
    and its pairing image v_B; the value is (n - S)/2."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    n, nn = word.n, word.n * word.n
    cols_a = sorted(disc_vectors(n, word.x, bound))
    cols_b = sorted(disc_vectors(n, word.y, bound))
    nvar = nn + len(cols_a) + len(cols_b)
    r, c, v = [], [], []
    for i in range(n):            # packing row (i, j) of side A: sum t d <= a_ij
        for j in range(n):
            r.append(i * n + j); c.append(i * n + j); v.append(-1.0)
    for k in range(n):            # packing row (k, i) of side B: <= a_i,k+1
        for i in range(n):
            r.append(nn + k * n + i); c.append(i * n + (k + 1) % n); v.append(-1.0)
    for off, cols, base in ((nn, cols_a, 0), (nn + len(cols_a), cols_b, nn)):
        for idx, d in enumerate(cols):
            for i in range(n):
                for j in range(n):
                    if d[i][j]:
                        r.append(base + i * n + j); c.append(off + idx); v.append(float(d[i][j]))
    a_ub = coo_matrix((v, (r, c)), shape=(2 * nn, nvar)).tocsr()
    er, ec = [], []
    for i in range(n):
        for j in range(n):
            er += [i, n + j]
            ec += [i * n + j, i * n + j]
    a_eq = coo_matrix(([1.0] * len(er), (er, ec)), shape=(2 * n, nvar)).tocsr()
    cost = np.zeros(nvar)
    cost[nn:] = -1.0
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(2 * nn), A_eq=a_eq,
                  b_eq=np.ones(2 * n), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return (n + res.fun) / 2


def scl_errors(word, out, lp_relation: str) -> list[str]:
    """Every check of one scl result.  lp_relation is "le" (value <= LP
    optimum at the reported bound) or "eq" (equal to it)."""
    errs = certificate_errors(word, out)
    value = out["value"]
    lo = lower_bound(word)
    if value < lo:
        errs.append(f"value {value} below the lower bound {lo}")
    lp = truncated_lp(word, out["bound_used"])
    if lp_relation == "eq" and abs(float(value) - lp) > LP_TOLERANCE:
        errs.append(f"value {value} != truncated LP optimum {lp:.9f}")
    if lp_relation == "le" and float(value) > lp + LP_TOLERANCE:
        errs.append(f"value {value} above truncated LP optimum {lp:.9f}")
    if word.kind == "universal" and value != closed_form_C(2 * word.n):
        errs.append(f"universal word value {value} != C({2 * word.n}) = "
                    f"{closed_form_C(2 * word.n)}")
    if word.kind == "commutator" and value != Fraction(1, 2):
        errs.append(f"commutator value {value} != 1/2")
    return errs


# ---------------------------------------------------------------------------
# Reduction chain
# ---------------------------------------------------------------------------

def to_plain_reduction(transcript) -> dict:
    return {"answer": transcript.answer,
            "steps": [(tuple(s.collapsed), s.mixed_answer) for s in transcript.steps]}


def _zero_subset(values, proper: bool) -> bool:
    n = len(values)
    top = n - 1 if proper else n
    return any(sum(c) == 0 for size in range(1, top + 1)
               for c in combinations(values, size))


def reduction_errors(values, out) -> list[str]:
    errs = []
    want = _zero_subset(values, proper=False)
    if out["answer"] != want:
        errs.append(f"answer {out['answer']} but a zero subset exists: {want}")
    if not out["steps"]:
        errs.append("no reduction steps")
    for k, (collapsed, answer) in enumerate(out["steps"]):
        if answer != _zero_subset(collapsed, proper=True):
            errs.append(f"step {k}: answer {answer} on {list(collapsed)} is wrong")
    return errs


# ---------------------------------------------------------------------------
# Cone geometry
# ---------------------------------------------------------------------------

def to_plain_geometry(output) -> dict:
    discs, verdicts, rays = output

    def mat(flow):
        return tuple(tuple(row) for row in flow.entries)

    return {"discs": [mat(d) for d in discs], "verdicts": list(verdicts),
            "rays": [mat(r) for r in rays]}


def essential_by_search(rows, d) -> bool:
    """No proper nonzero e <= d is itself a disc vector; then d - e would be
    a nonzero cone member and d = e + (d - e)."""
    n = len(d)
    edges = [(i, j) for i in range(n) for j in range(n) if d[i][j]]
    for vals in product(*(range(d[i][j] + 1) for i, j in edges)):
        if not any(vals) or all(v == d[i][j] for v, (i, j) in zip(vals, edges)):
            continue
        e = [[0] * n for _ in range(n)]
        for v, (i, j) in zip(vals, edges):
            e[i][j] = v
        if _conserved(e) and _weight_zero(rows, e) and strongly_connected(e):
            return False
    return True


def ray_errors(rows, ray) -> list[str]:
    n = len(ray)
    errs = []
    flat = [v for row in ray for v in row]
    if (any(v < 0 for v in flat) or not any(flat) or not _integral(ray)
            or not _conserved(ray) or not _weight_zero(rows, ray)):
        errs.append(f"ray {ray} is not a nonzero integral cone member")
        return errs
    g = 0
    for v in flat:
        g = gcd(g, int(v))
    if g != 1:
        errs.append(f"ray {ray} is not primitive")
    # extremal in the pointed cone {x >= 0 : M x = 0} iff the columns of M
    # on the support have a one-dimensional kernel
    support = [(i, j) for i in range(n) for j in range(n) if ray[i][j]]
    eq = [[(1 if i == v else 0) - (1 if j == v else 0) for i, j in support]
          for v in range(n)]
    eq += [[row[i] for i, j in support] for row in rows]
    if _matrix_rank(eq) != len(support) - 1:
        errs.append(f"ray {ray} fails the rank test on its zero coordinates")
    verts = {v for e in support for v in e}
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in support:
        parent[find(i)] = find(j)
    components = len({find(v) for v in verts})
    if len(support) - len(verts) + components > 2:
        errs.append(f"ray {ray} support has cyclomatic number above 2")
    return errs


def geometry_errors(cone, out) -> list[str]:
    n, row = cone
    rows = (row,)
    errs = []
    discs = out["discs"]
    for d in discs:
        bad = disc_errors(rows, d, bound=2)
        if bad:
            errs.append(f"{d} is not a disc vector ({', '.join(bad)})")
    own = disc_vectors(n, rows, 2)
    if len(discs) != len(own) or set(discs) != own:
        errs.append(f"{len(discs)} disc vectors, an independent enumeration finds {len(own)}")
    if len(out["verdicts"]) != len(discs):
        errs.append("one verdict per disc vector expected")
    for d, (essential, extremal) in zip(discs, out["verdicts"]):
        if extremal and not essential:
            errs.append(f"{d} certified extremal but not essential")
        if essential != essential_by_search(rows, d):
            errs.append(f"{d}: essential verdict {essential} disagrees with the search")
    if not out["rays"]:
        errs.append("no rays")
    for ray in out["rays"]:
        errs.extend(ray_errors(rows, ray))
    return errs


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

TO_PLAIN = {"scl-words": to_plain_scl, "scl-sweep": to_plain_scl,
            "reduction": to_plain_reduction, "geometry": to_plain_geometry}


def output_errors(workload: str, inp, out) -> list[str]:
    if workload == "scl-words":
        return scl_errors(inp, out, "le")
    if workload == "scl-sweep":
        return scl_errors(inp, out, "eq")
    if workload == "reduction":
        return reduction_errors(inp, out)
    return geometry_errors(inp, out)


def digest(outputs) -> str:
    """Hash of the computed values, for reference only."""
    def summary(out):
        if "value" in out:
            return (str(out["value"]), out["bound_used"])
        if "answer" in out:
            return (out["answer"], out["steps"])
        return (out["discs"], out["verdicts"], out["rays"])
    text = repr([summary(o) if o is not None else None for o in outputs])
    return hashlib.sha256(text.encode()).hexdigest()[:16]
