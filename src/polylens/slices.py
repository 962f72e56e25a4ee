"""Angular slices of a disc and the boundary-arc probability measure.

A slice is the sector {|w| <= lam, arg w in I} of the closed disc of radius
lam.  Its measure is the normalized contour integral of 1/w along the bounding
arc, which evaluates to the arc fraction (hi - lo)/2pi: real, in [0, 1],
independent of the radius, and zero on an open neighbourhood of the centre.
Slices form a semi-ring (intersections are slices, differences split into at
most two), and the measure is additive on finite disjoint unions; the product
over coordinates gives the poly-disc measure.

Interval endpoints are measure-null: open/closed flags are preserved
structurally but never affect measure values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import ParseError, ScaleMismatch

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AngularInterval:
    """An interval of angles inside [-pi, pi], with endpoint flags."""

    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = False

    def __post_init__(self):
        if not (-math.pi <= self.lo <= self.hi <= math.pi):
            raise ValueError(
                f"need -pi <= lo <= hi <= pi, got lo={self.lo}, hi={self.hi}"
            )

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def is_empty(self) -> bool:
        return self.lo == self.hi and (self.lo_open or self.hi_open)


FULL_CIRCLE = AngularInterval(-math.pi, math.pi, lo_open=True, hi_open=False)


@dataclass(frozen=True)
class Slice:
    """Sector of the radius-lam disc over an angular interval."""

    lam: float
    interval: AngularInterval

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("slice radius must be positive")


@dataclass(frozen=True)
class SliceSet:
    """Finite disjoint union of slices of one disc, in canonical sorted order."""

    lam: float
    components: tuple[AngularInterval, ...]

    def __post_init__(self):
        comps = tuple(sorted(self.components, key=lambda i: (i.lo, i.hi)))
        for a, b in zip(comps, comps[1:]):
            if b.lo < a.hi:
                raise ValueError("slice-set components must be disjoint")
        object.__setattr__(self, "components", comps)

    def measure(self) -> float:
        return sum(c.width for c in self.components) / TWO_PI

    def slices(self) -> tuple[Slice, ...]:
        return tuple(Slice(self.lam, c) for c in self.components)


MeasurableFactor = Union[Slice, SliceSet]


def slice_measure(s: Slice) -> float:
    """Measure of one slice: the normalized 1/w arc integral, (hi - lo)/2pi."""
    return s.interval.width / TWO_PI


def _interval_intersect(a: AngularInterval, b: AngularInterval) -> AngularInterval | None:
    if a.lo > b.lo or (a.lo == b.lo and b.lo_open):
        lo, lo_open = a.lo, a.lo_open or (a.lo == b.lo and b.lo_open)
    else:
        lo, lo_open = b.lo, b.lo_open or (a.lo == b.lo and a.lo_open)
    if a.hi < b.hi or (a.hi == b.hi and b.hi_open):
        hi, hi_open = a.hi, a.hi_open or (a.hi == b.hi and b.hi_open)
    else:
        hi, hi_open = b.hi, b.hi_open or (a.hi == b.hi and a.hi_open)
    if lo > hi:
        return None
    out = AngularInterval(lo, hi, lo_open, hi_open)
    return None if out.is_empty else out


def slice_intersect(a: Slice, b: Slice) -> SliceSet:
    """Intersection of two slices of the same disc (at most one component)."""
    if a.lam != b.lam:
        raise ScaleMismatch(f"slice radii differ: {a.lam} vs {b.lam}")
    common = _interval_intersect(a.interval, b.interval)
    return SliceSet(a.lam, () if common is None else (common,))


def slice_subtract(a: Slice, b: Slice) -> SliceSet:
    """Set difference a \\ b of two slices (at most two components)."""
    if a.lam != b.lam:
        raise ScaleMismatch(f"slice radii differ: {a.lam} vs {b.lam}")
    bi = b.interval
    # a \ b = a intersected with the complement of b in [-pi, pi]; a boundary
    # point excluded from b belongs to the complement, so flags flip.
    pieces = (
        AngularInterval(-math.pi, bi.lo, lo_open=False, hi_open=not bi.lo_open),
        AngularInterval(bi.hi, math.pi, lo_open=not bi.hi_open, hi_open=False),
    )
    out = []
    for piece in pieces:
        if piece.is_empty:
            continue
        section = _interval_intersect(a.interval, piece)
        if section is not None:
            out.append(section)
    return SliceSet(a.lam, tuple(out))


def product_measure(factors: Sequence[MeasurableFactor]) -> float:
    """Poly-disc measure of a product of per-coordinate slices or slice sets."""
    if not factors:
        raise ValueError("need at least one factor")
    total = 1.0
    for f in factors:
        total *= slice_measure(f) if isinstance(f, Slice) else f.measure()
    return total


def arc_integral_check(s: Slice, N: int) -> complex:
    """Numerical cross-check of the defining arc integral.

    Midpoint quadrature of (1/2*pi*i) * integral of dw/w along the bounding
    arc, evaluating 1/w at complex sample points; converges to
    slice_measure(s).
    """
    if N < 8:
        raise ValueError("need at least 8 quadrature points")
    iv = s.interval
    h = iv.width / N
    total = 0j
    for j in range(N):
        theta = iv.lo + (j + 0.5) * h
        w = s.lam * complex(math.cos(theta), math.sin(theta))
        dw_dtheta = 1j * s.lam * complex(math.cos(theta), math.sin(theta))
        total += (1.0 / w) * dw_dtheta * h
    return total / (2j * math.pi)


# ------------------------------------------------------------- CLI interface


def _parse_angle(text: str, base_offset: int) -> float:
    """Parse one endpoint: optional sign, then a number or [number*]pi,
    optionally divided by a number."""
    s = text.strip()
    if not s:
        raise ParseError(base_offset, "an angle", "empty string")
    work = s
    sign = 1.0
    if work.startswith("-"):
        sign = -1.0
        work = work[1:].strip()
    elif work.startswith("+"):
        work = work[1:].strip()

    def read_number(u: str) -> tuple[float, str]:
        i = 0
        while i < len(u) and (u[i].isdigit() or u[i] == "."):
            i += 1
        if i == 0:
            raise ParseError(base_offset, "a number or 'pi'", repr(u[:1]))
        return float(u[:i]), u[i:].strip()

    if work.startswith("pi"):
        value, rest = math.pi, work[2:].strip()
    else:
        value, rest = read_number(work)
        if rest.startswith("*"):
            rest = rest[1:].strip()
            if not rest.startswith("pi"):
                raise ParseError(base_offset, "'pi' after '*'", repr(rest[:2]))
            value *= math.pi
            rest = rest[2:].strip()
    if rest.startswith("/"):
        denom, rest = read_number(rest[1:].strip())
        if denom == 0:
            raise ParseError(base_offset, "nonzero divisor", "0")
        value /= denom
    if rest:
        raise ParseError(base_offset, "end of angle", repr(rest))
    return sign * value


def parse_interval(text: str) -> AngularInterval:
    """Parse "lo:hi" in radians; 'pi' arithmetic like "0:pi/2" is allowed."""
    if text.count(":") != 1:
        raise ParseError(0, "exactly one ':' separator", repr(text))
    lo_text, hi_text = text.split(":")
    lo = _parse_angle(lo_text, 0)
    hi = _parse_angle(hi_text, len(lo_text) + 1)
    try:
        return AngularInterval(lo, hi)
    except ValueError as exc:
        raise ParseError(0, "angles with -pi <= lo <= hi <= pi", repr(text)) from exc
