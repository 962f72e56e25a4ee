"""Which grids the engine samples and reads, for the tests that count them.

recorded_grids() records one Grid(f, lam, N) for every call of
``quadrature.sample_torus`` inside its ``with`` block, in call order; lam is
the scale or the block of scales as the engine passed it.  Every read is of
one point set, N points on each read axis (see the quadrature module
docstring): an exact read passes the plain f, read on the grid N^n, and
the doubling loop passes a ``quadrature._Lattice``, an evaluator of one read
axis (n = 1) whose ``zs`` names the lattice of N points.  It is a context
manager, not a pytest fixture, because a function-scoped fixture cannot be
used inside a hypothesis test.  It patches the module attribute, so it sees
the engine's own calls: ``verify`` and ``morphs`` import ``sample_torus`` by
name, and their direct calls are not recorded.

recorded_reads() records one Read for every call of ``quadrature._refine``
inside its ``with`` block, in call order: its evaluator, reader factory
(read(lams, zs, N), see quadrature.sample_torus), exponent width and
scales, and the (values, est_error, grid_n) it returned.  A call that
raises is not recorded.

exact_grid(bounds) is the grid the engine samples for a coefficient read of
a range, and grid_above(width) the one it samples for a read pairing
exponents up to width apart (see quadrature._gap).
"""

from __future__ import annotations

import contextlib
from typing import Any, NamedTuple
from unittest import mock

from polylens import quadrature


class Grid(NamedTuple):
    f: Any
    lam: Any
    N: int


@contextlib.contextmanager
def recorded_grids():
    grids: list[Grid] = []
    sample = quadrature.sample_torus

    def recorded(f, lam, N, **kwargs):
        grids.append(Grid(f, lam, N))
        return sample(f, lam, N, **kwargs)

    with mock.patch.object(quadrature, "sample_torus", recorded):
        yield grids


class Read(NamedTuple):
    f: Any
    read: Any
    width: int | None
    lams: Any
    values: Any
    est_error: Any
    grid_n: Any


@contextlib.contextmanager
def recorded_reads():
    reads: list[Read] = []
    refine = quadrature._refine

    def recorded(f, read, width, lams, tol, max_n, *indices):
        result = refine(f, read, width, lams, tol, max_n, *indices)
        reads.append(Read(f, read, width, lams, *result))
        return result

    with mock.patch.object(quadrature, "_refine", recorded):
        yield reads


def grid_above(width: int) -> int:
    """The smallest power of two, at least MIN_N, above width."""
    N = quadrature.MIN_N
    while N <= width:
        N *= 2
    return N


def exact_grid(bounds) -> int:
    """The exact grid of every read of a range: the smallest power of two,
    at least MIN_N, above the spread of the range."""
    return grid_above(max(hi - lo for lo, hi in bounds))
