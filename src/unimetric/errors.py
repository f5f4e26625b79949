"""Exception types shared across the toolkit.

Every error raised by the library derives from :class:`UnimetricError`;
most are also ``ValueError`` subclasses so callers that predate the
library's error taxonomy keep working.
"""

from __future__ import annotations


class UnimetricError(Exception):
    """Base class for all toolkit errors."""


class MalformedInputError(UnimetricError, ValueError):
    """Input lacks a field, has the wrong length, or holds NaN or infinity."""


class NotSquareError(UnimetricError, ValueError):
    """Matrix expected to be square is not."""


class NotUnitaryError(UnimetricError, ValueError):
    """Matrix failed the unitarity check; carries the max-norm deviation."""

    def __init__(self, deviation: float, tol: float):
        self.deviation = float(deviation)
        self.tol = float(tol)
        super().__init__(
            f"matrix is not unitary: max |U^dag U - I| = {deviation:.3e} > tol {tol:.1e}"
        )


class NotDensityError(UnimetricError, ValueError):
    """Matrix is not a valid density operator (Hermitian, PSD, unit trace)."""


class DimensionMismatchError(UnimetricError, ValueError):
    """Operands have incompatible dimensions."""


class InvalidPError(UnimetricError, ValueError):
    """Schatten order p must satisfy p >= 1 (or be infinity)."""


class NotNormalizedError(UnimetricError, ValueError):
    """State vector is not unit-norm within tolerance."""


class EmptyInputError(UnimetricError, ValueError):
    """An operation received an empty collection."""


class OutOfRangeError(UnimetricError, ValueError):
    """Scalar argument outside its documented range."""


class NotAFaceError(UnimetricError, ValueError):
    """Subspace basis is not n x k with 1 <= k <= n, or its columns are not
    orthonormal; then it carries the max-norm deviation max |B'B - I|."""

    def __init__(self, message: str, deviation: float | None = None):
        self.deviation = None if deviation is None else float(deviation)
        super().__init__(message)


class NotCommutingError(UnimetricError, ValueError):
    """Generators expected to commute do not; carries the offending pair."""

    def __init__(self, pair: tuple[int, int], deviation: float):
        self.pair = pair
        self.deviation = float(deviation)
        super().__init__(
            f"generators {pair[0]} and {pair[1]} do not commute "
            f"(max |[g,h]| = {deviation:.3e})"
        )


class EmptyGeneratorsError(UnimetricError, ValueError):
    """A generator list must contain at least one element."""


class PauliParseError(UnimetricError, ValueError):
    """Pauli string failed to parse; carries the character position."""

    def __init__(self, text: str, position: int, reason: str = "unexpected character"):
        self.position = int(position)
        super().__init__(f"cannot parse {text!r}: {reason} at position {position}")


class LengthMismatchError(UnimetricError, ValueError):
    """Pauli elements act on different numbers of qubits."""


class InvalidAnglesError(UnimetricError, ValueError):
    """Search angles outside their open domain (0, pi/2)."""


class NumericalRangeError(UnimetricError):
    """The numerical-range solver found no witness within its tolerance.

    Carries the smallest residual |<psi|M|psi>| it reached.
    """

    def __init__(self, residual: float, tol: float):
        self.residual = float(residual)
        self.tol = float(tol)
        super().__init__(
            f"no zero witness found: best |<psi|M|psi>| = {residual:.3e} > tol {tol:.1e}"
        )


class InternalCheckError(UnimetricError):
    """A computed result failed one of the library's own checks.

    Carries the measured value and the bound it exceeded.
    """

    def __init__(self, quantity: str, value: float, bound: float):
        self.quantity = quantity
        self.value = float(value)
        self.bound = float(bound)
        super().__init__(
            f"internal check failed: {quantity} = {value:.6g} exceeds its bound {bound:.6g}"
        )


class UnreachableToleranceError(UnimetricError):
    """No power within the first period reaches the requested tolerance.

    Carries the best candidate found so diagnostics stay actionable.
    """

    def __init__(self, best_k: int, achieved: float, epsilon: float):
        self.best_k = int(best_k)
        self.achieved = float(achieved)
        self.epsilon = float(epsilon)
        super().__init__(
            f"no k in the first period reaches {epsilon:.3g}; "
            f"best k = {best_k} achieves {achieved:.6g}"
        )
