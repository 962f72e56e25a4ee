"""The rank-1 lattice pairs of the doubling loop (polylens.lattices): each
committed pair's properties recomputed from its vectors, not read from the
table's comments, and the regression probe that a pair sharing a short dual
vector reads wrong.

A lattice of size S and vector z reads c_a + sum c_(a + d) over the dual
lattice {d : z.d = 0 mod S}; a term on the duals of both lattices of a
level aliases on both alike, so their difference cannot see it.  The floors
below are fractions of B(V) = (n! V)^(1/n), the l1 radius within which
every lattice of determinant V has a nonzero vector (Minkowski).
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest

import gen_lattices
from polylens import quadrature
from polylens.expr import parse
from polylens.lattices import PAIRS
from polylens.quadrature import spectral_summary

SINGLE_FLOOR = 0.55   # shortest l1 dual vector of each lattice, over B(S)
JOINT_FLOOR = 0.65    # shortest l1 vector of the intersection, over B(M (M - 1))
BRUTE_SIZES = 256     # the levels up to which the shortest vectors are also enumerated


def _radius(n: int, volume: int) -> float:
    return (math.factorial(n) * volume) ** (1 / n)


def _dual_vectors(z, size: int, radius: int) -> np.ndarray:
    """Every nonzero d with z.d = 0 mod size and l1 norm <= radius, by
    enumeration: each (d_2, ..., d_n) fixes d_1 mod size."""
    n = len(z)
    rest = np.array(list(itertools.product(range(-radius, radius + 1), repeat=n - 1)),
                    dtype=np.int64).reshape(-1, n - 1)
    rest = rest[np.abs(rest).sum(axis=1) <= radius]
    first = -(rest @ np.array(z[1:], dtype=np.int64)) % size
    d = np.concatenate([np.column_stack([d1, rest]) for d1 in (first, first - size)])
    return d[(np.abs(d).sum(axis=1) <= radius) & np.any(d != 0, axis=1)]


def _pairs(limit=None):
    return [(n, M, pair) for (n, M), pair in PAIRS.items() if limit is None or M <= limit]


@pytest.mark.parametrize("n,M,pair", _pairs())
def test_vectors_start_with_one_and_are_units(n, M, pair):
    for z, size in zip(pair, (M, M - 1)):
        assert len(z) == n and z[0] == 1
        assert all(math.gcd(x, size) == 1 for x in z)


def test_one_pair_per_level():
    # every level the doubling loop can reach: N = 32, ..., MAX_TOTAL_POINTS
    # at every n from 2 to MAX_DIMENSION
    top = quadrature.MAX_TOTAL_POINTS.bit_length()
    assert sorted(PAIRS) == [(n, 2**e) for n in range(2, quadrature.MAX_DIMENSION + 1)
                             for e in range(5, top)]


@pytest.mark.parametrize("n,M,pair", _pairs())
def test_no_short_dual_vector(n, M, pair):
    z, z2 = pair
    assert gen_lattices.shortest_l1(z, M) >= SINGLE_FLOOR * _radius(n, M)
    assert gen_lattices.shortest_l1(z2, M - 1) >= SINGLE_FLOOR * _radius(n, M - 1)
    both = gen_lattices.shortest_l1(gen_lattices.joint(z, M, z2), M * (M - 1))
    assert both >= JOINT_FLOOR * _radius(n, M * (M - 1))


@pytest.mark.parametrize("n,M,pair", _pairs(BRUTE_SIZES))
def test_shortest_vectors_by_enumeration(n, M, pair):
    # the reduction and search of gen_lattices against plain enumeration
    z, z2 = pair
    for v, size in ((z, M), (z2, M - 1)):
        s = gen_lattices.shortest_l1(v, size)
        assert _dual_vectors(v, size, s - 1).size == 0
        assert _dual_vectors(v, size, s).size > 0
    # a lower bound on the intersection: no dual vector of the M lattice
    # shorter than the floor lies on the dual of the M - 1 lattice
    d = _dual_vectors(z, M, math.ceil(JOINT_FLOOR * _radius(n, M * (M - 1))) - 1)
    assert np.all(d @ np.array(z2, dtype=np.int64) % (M - 1) != 0)


def test_the_intersection_is_the_dual_of_the_joint_lattice():
    z, z2, M = (1, 7), (1, 19), 32
    joint = gen_lattices.joint(z, M, z2)
    assert [x % M for x in joint] == list(z) and [x % (M - 1) for x in joint] == list(z2)
    d = _dual_vectors(joint, M * (M - 1), 40)
    assert np.all(d @ np.array(z) % M == 0) and np.all(d @ np.array(z2) % (M - 1) == 0)


@pytest.mark.parametrize("n,M,pair", _pairs())
def test_orders_zero_and_unit_are_separated(n, M, pair):
    unit = [tuple(int(i == b) for i in range(n)) for b in range(n)]
    orders = [(0,) * n, *unit, *(tuple(-x for x in e) for e in unit)]
    for z, size in zip(pair, (M, M - 1)):
        assert len({sum(x * y for x, y in zip(z, a)) % size for a in orders}) == 2 * n + 1


def test_check_mode_accepts_the_committed_table(capsys):
    assert gen_lattices.check() == 0
    assert "60 pairs checked" in capsys.readouterr().out


# verify's morph pullback of 1/u + u at lam = 0.25, with the core and the
# variance that the tensor grids 32 and 31 read (est_error 4.5e-12)
_PROBE = "1/(2*w1+w1^2/4)+1/(w2+w2*w1/4)+(2*w1+w1^2/4)+2*(w2+w2*w1/4)"
_PROBE_CORE = -0.0625000000000003 - 8.326672684688674e-17j
_PROBE_VARIANCE = 20.56592083724178


def test_probe_reads_the_tensor_values():
    s = spectral_summary(parse(_PROBE, 2), 0.25)
    assert abs(s.core[0] - _PROBE_CORE) <= s.est_error
    assert abs(s.variance - _PROBE_VARIANCE) <= s.est_error


def test_a_pair_sharing_a_dual_vector_is_fooled():
    # z = (1, 7) for both 32 and 31 points puts (-7, 1) on both duals: the
    # two lattices agree to 1e-12 on the first level and the probe is off
    # by far more than that estimate
    with mock.patch.dict(quadrature.PAIRS, {(2, 32): ((1, 7), (1, 7))}):
        s = spectral_summary(parse(_PROBE, 2), 0.25)
    assert s.grid_n == 32
    assert abs(s.core[0] - _PROBE_CORE) > 1000 * s.est_error
    assert abs(s.variance - _PROBE_VARIANCE) > 1000 * s.est_error
