"""Write or check the table of rank-1 lattice pairs in src/polylens/lattices.py.

Run from the repository root::

    python tests/gen_lattices.py            # search every pair and rewrite the table
    python tests/gen_lattices.py --check    # recompute the committed pairs' properties

The doubling loop of polylens.quadrature reads an input of n >= 2 variables
without an exponent range on two rank-1 lattices per level M = 32, 64, ...:
the M points k z / M mod 1 and the M - 1 points k z' / (M - 1) mod 1.  A
lattice of size S and generating vector z reads the coefficient c_a plus
every c_(a + d) for d on its dual lattice {d in Z^n : z.d = 0 mod S}, so
the pair is chosen to keep three lattices free of short vectors, by l1
norm: the dual of z, the dual of z', and their intersection, on which both
lattices alias a term alike and their difference cannot see it.  As
gcd(M, M - 1) = 1, the intersection is the dual of the rank-1 lattice of
M (M - 1) points whose vector is z mod M and z' mod M - 1 (Chinese
remainders).

The search tries at most CANDIDATES Korobov vectors (1, g, g^2, ...,
g^(n-1)) per size, for the first g coprime to the size among 2 .. size - 1,
or among 4 * CANDIDATES seeded draws from them when there are more, so its
cost does not grow with M: first z, for the longest shortest dual vector,
then z', for the largest min(s(z') / B(M - 1), s(both) / B(M (M - 1))),
where s is the shortest l1 norm and B(V) = (n! V)^(1/n) the l1 radius of a
ball of volume 2^n V (Minkowski's bound: every lattice of determinant V has
a nonzero vector of l1 norm at most B(V)).  Ties go to the first candidate.

A shortest l1 vector is found exactly: LLL reduction of the dual basis
(M e_1 and e_j - z_j e_1 for j >= 2, as z_1 = 1) and Fincke-Pohst
enumeration of every vector whose l2 norm is at most the best l1 norm
found (l2 <= l1).

``--check`` searches nothing: it renders the table from the committed
vectors and the properties recomputed from them, prints a diff and exits 1
when that differs from the committed file, or when a vector has z_1 != 1,
an entry not coprime to its size, or a dual vector of l1 norm <= 2 (which
would map two of the orders 0 and +-e_beta to one frequency).
"""

from __future__ import annotations

import argparse
import difflib
import math
import pathlib
import random
import sys

TABLE = pathlib.Path(__file__).resolve().parent.parent / "src" / "polylens" / "lattices.py"
DIMENSIONS = (2, 3, 4)
SIZES = tuple(2**e for e in range(5, 25))  # the levels 32 .. MAX_TOTAL_POINTS
CANDIDATES = 256


def _dot(u, v) -> float:
    return sum(x * y for x, y in zip(u, v))


def _gram_schmidt(basis) -> tuple[list, list]:
    """Orthogonalised rows of a basis and the coefficients mu[i][j], in floats."""
    n = len(basis)
    star, mu = [], [[0.0] * n for _ in range(n)]
    for i in range(n):
        v = [float(x) for x in basis[i]]
        for j in range(i):
            mu[i][j] = _dot(basis[i], star[j]) / _dot(star[j], star[j])
            v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
        star.append(v)
    return star, mu


def _lll(basis: list[list[int]], delta: float = 0.75) -> list[list[int]]:
    """LLL-reduced copy of an integer basis (rows)."""
    b = [list(row) for row in basis]
    star, mu = _gram_schmidt(b)
    k = 1
    while k < len(b):
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                star, mu = _gram_schmidt(b)
        if _dot(star[k], star[k]) >= (delta - mu[k][k - 1] ** 2) * _dot(star[k - 1], star[k - 1]):
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            star, mu = _gram_schmidt(b)
            k = max(k - 1, 1)
    return b


def shortest_l1(z: tuple[int, ...], size: int) -> int:
    """Shortest l1 norm of a nonzero d with z.d = 0 mod size; z[0] must be 1."""
    n = len(z)
    if z[0] != 1:
        raise ValueError(f"generating vector {z} does not start with 1")
    basis = _lll([[size] + [0] * (n - 1)]
                 + [[-z[j]] + [int(i == j) for i in range(1, n)] for j in range(1, n)])
    star, mu = _gram_schmidt(basis)
    norms = [_dot(s, s) for s in star]
    best = min(sum(map(abs, row)) for row in basis)
    x = [0] * n

    def visit(i: int, used: float) -> None:
        nonlocal best
        centre = -sum(mu[j][i] * x[j] for j in range(i + 1, n))
        room = (best * (1 + 1e-9)) ** 2 - used
        if room < 0:
            return
        reach = math.sqrt(room / norms[i])
        for xi in range(math.ceil(centre - reach), math.floor(centre + reach) + 1):
            x[i] = xi
            step = used + (xi - centre) ** 2 * norms[i]
            if i:
                visit(i - 1, step)
            elif any(x):
                best = min(best, sum(abs(sum(c * row[t] for c, row in zip(x, basis)))
                                     for t in range(n)))
        x[i] = 0

    visit(n - 1, 0.0)
    return best


def joint(z: tuple[int, ...], M: int, z2: tuple[int, ...]) -> tuple[int, ...]:
    """The vector of the M (M - 1)-point lattice whose dual is the
    intersection of the duals of (z, M) and (z2, M - 1)."""
    # x = a mod M and x = b mod M - 1: x = b + (M - 1) * ((b - a) mod M),
    # as M - 1 = -1 mod M
    return tuple(b + (M - 1) * ((b - a) % M) for a, b in zip(z, z2))


def properties(M: int, pair) -> tuple[int, int, int]:
    """Shortest l1 dual vectors of the M lattice, the M - 1 lattice and both."""
    z, z2 = pair
    return shortest_l1(z, M), shortest_l1(z2, M - 1), shortest_l1(joint(z, M, z2), M * (M - 1))


def _radius(n: int, volume: int) -> float:
    return (math.factorial(n) * volume) ** (1 / n)


def _korobov(n: int, size: int) -> list[tuple[int, ...]]:
    pool = range(2, size)
    if len(pool) > 4 * CANDIDATES:
        pool = random.Random(f"{n}:{size}").sample(pool, 4 * CANDIDATES)
    units = [g for g in pool if math.gcd(g, size) == 1][:CANDIDATES]
    return [tuple(pow(g, j, size) for j in range(n)) for g in units]


def search(n: int, M: int):
    """The pair (z, z') of level M (see the module docstring)."""
    z = max(_korobov(n, M), key=lambda v: shortest_l1(v, M))
    both = _radius(n, M * (M - 1))
    return z, max(_korobov(n, M - 1), key=lambda v: min(
        shortest_l1(v, M - 1) / _radius(n, M - 1),
        shortest_l1(joint(z, M, v), M * (M - 1)) / both))


def faults(n: int, M: int, pair, props) -> list[str]:
    """What is wrong with a committed pair, for --check."""
    out = []
    for z, size in zip(pair, (M, M - 1)):
        if len(z) != n or z[0] != 1:
            out.append(f"({n}, {M}): {z} is not {n} entries starting with 1")
        if any(math.gcd(x, size) != 1 for x in z):
            out.append(f"({n}, {M}): {z} has an entry not coprime to {size}")
    if min(props) <= 2:
        out.append(f"({n}, {M}): a dual vector of l1 norm <= 2 maps two orders to one frequency")
    return out


def render(pairs: dict) -> str:
    lines = [
        '"""Generating vectors of the rank-1 lattices that the doubling loop of',
        "polylens.quadrature reads at n >= 2 (see _adaptive): PAIRS[n, M] is",
        "(z, z') for the M-point lattice k z / M mod 1 and the (M - 1)-point",
        "lattice k z' / (M - 1) mod 1, k = 0, 1, ....",
        "",
        "Written by tests/gen_lattices.py, which says how each pair is chosen.",
        "The comment after each pair gives the shortest l1 norm of a nonzero",
        "vector of the dual of the M lattice, of the M - 1 lattice, and of both",
        "(their intersection); ``python tests/gen_lattices.py --check``",
        "recomputes them.",
        '"""',
        "",
        "PAIRS = {",
    ]
    for (n, M), pair in pairs.items():
        s = properties(M, pair)
        lines.append(f"    ({n}, {M}): ({pair[0]}, {pair[1]}),  # {s[0]} {s[1]} {s[2]}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def check() -> int:
    sys.path.insert(0, str(TABLE.parent.parent))
    from polylens.lattices import PAIRS

    bad = []
    for (n, M), pair in PAIRS.items():
        bad += faults(n, M, pair, properties(M, pair))
    if sorted(PAIRS) != [(n, M) for n in DIMENSIONS for M in SIZES]:
        bad.append("the table does not hold one pair per (n, M)")
    old, new = TABLE.read_text(), render(PAIRS)
    if old != new:
        bad.append("recomputed properties differ from the committed comments")
        sys.stdout.writelines(difflib.unified_diff(
            old.splitlines(keepends=True), new.splitlines(keepends=True),
            "lattices.py", "lattices.py (recomputed)"))
    print("\n".join(bad) if bad else f"{len(PAIRS)} pairs checked")
    return 1 if bad else 0


def regenerate() -> None:
    pairs = {}
    for n in DIMENSIONS:
        for M in SIZES:
            pairs[n, M] = search(n, M)
            print(f"({n}, {M}): {pairs[n, M]} {properties(M, pairs[n, M])}", flush=True)
    TABLE.write_text(render(pairs))
    print(f"wrote {TABLE.name} ({len(pairs)} pairs)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write or check the rank-1 lattice table.")
    parser.add_argument("--check", action="store_true",
                        help="search nothing; recompute the committed pairs' properties, "
                             "exit 1 on a mismatch")
    if parser.parse_args().check:
        sys.exit(check())
    regenerate()
