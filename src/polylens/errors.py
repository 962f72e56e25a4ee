"""Exception hierarchy shared by every module in the package.

All library failures derive from :class:`LensError`, so callers (and the CLI,
which maps error classes onto exit codes) can tell bad input apart from bugs.
"""

from __future__ import annotations


class LensError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LensError):
    """Operands disagree on domain or codomain dimension."""


class AdmissibilityViolation(LensError):
    """An operation would create a pole of order two or more in a coordinate."""


class MixedPoleTerm(LensError):
    """A term couples a first-order pole with other nonzero exponents
    (for example w2/w1), which has no core/principal/analytic split with
    constant residues."""


class ScaleMismatch(LensError):
    """Set algebra attempted between slices of different disc radii."""


class PoleOnTorus(LensError):
    """A function blows up at (or too close to) a sample point on the torus."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class DivisionNearZero(LensError):
    """Expression evaluation divided by a value of modulus below the pole
    threshold; carries the offending point."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class GridTooLarge(LensError):
    """Requested sample grid exceeds the point budget (quadrature.MAX_TOTAL_POINTS),
    or the dimension its cap.  The budget bounds time.  No read of a
    pointwise evaluator holds its grid, so its memory is bounded by the slab
    and the read (quadrature.SLAB_VALUES and READ_VALUES) and their
    accumulators; a GridFunction is evaluated and read whole."""


class AliasingRisk(LensError):
    """Requested coefficient order is too high for the grid resolution."""


class NonConvergent(LensError):
    """Grid refinement hit the size cap before meeting the tolerance."""


class ParseError(LensError):
    """Input text failed to parse.

    Attributes:
        offset: byte offset of the first invalid token.
        expected: description of what the parser wanted to see.
        found: description of what it saw instead.
    """

    def __init__(self, offset: int, expected: str, found: str):
        super().__init__(f"offset {offset}: expected {expected}, found {found}")
        self.offset = offset
        self.expected = expected
        self.found = found


class UnknownVariable(ParseError):
    """A variable whose index lies outside the declared dimension."""

    def __init__(self, offset: int, name: str, n: int):
        LensError.__init__(
            self, f"offset {offset}: unknown variable '{name}' for dimension {n}"
        )
        self.offset = offset
        self.expected = f"variable index between 1 and {n}"
        self.found = name


class NotLaurent(LensError):
    """Expression has no exact finite Laurent form; carries the offending
    subtree rendered as text."""

    def __init__(self, message: str, subtree: str | None = None):
        super().__init__(message)
        self.subtree = subtree


class ExpansionTooLarge(LensError):
    """Exact expansion would exceed the exponent-degree or term-count cap."""


class NotPolynomial(LensError):
    """Coordinate-change components must be polynomial."""


class NotFixingOrigin(LensError):
    """Coordinate change does not map the origin to itself."""


class SingularJacobian(LensError):
    """Coordinate change has a non-invertible derivative at the origin."""


class VanishesOnTorus(LensError):
    """A coordinate-change component vanishes somewhere on the sample torus."""


class NotDiagonalDominant(LensError):
    """Multi-dimensional coordinate change fails the diagonal-dominance
    certificate that keeps pulled-back pole integrals well defined."""


class InconsistentScales(LensError):
    """Residue or derivative matrices drifted across sweep scales beyond
    tolerance, signalling a function outside the supported class."""
