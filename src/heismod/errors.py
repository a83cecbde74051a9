"""Exception types shared across the package.

Every error raised on a documented failure path derives from
:class:`HeismodError`, so callers can catch one base class at API
boundaries (the command line driver maps them to exit codes).
"""

from __future__ import annotations


class HeismodError(Exception):
    """Base class for all package errors."""


class ExprSyntaxError(HeismodError):
    """Malformed expression text.

    Carries the byte offset of the first offending character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExprSyntaxError):
    """Identifier is not a known variable or function name."""


class NonLiteralExponent(ExprSyntaxError):
    """The '^' operator requires a real literal exponent."""


class DivisionNearZero(HeismodError):
    """Denominator magnitude below the representable floor (1e-300)."""


class BranchCutWarning(UserWarning):
    """A log or fractional power was evaluated on the negative real axis."""


class VariableMismatch(HeismodError):
    """Expression uses variables outside the set a context allows."""


class NonLegendrianTangent(HeismodError):
    """Tangent vector violates the contact condition beyond tolerance."""


class ZeroVelocity(HeismodError):
    """A leaf parametrization has vanishing complex velocity."""


class InversionFailure(HeismodError):
    """A chart is collapsed (its Jacobian vanishes on the whole sample
    grid) or fails the injectivity spot check."""


class NonConvergent(HeismodError):
    """Adaptive quadrature hit its subdivision budget before the target."""


class NegativeQ(HeismodError):
    """Pulled-back differential is not real-positive along the leaves."""


class NotHorizontal(NegativeQ):
    """Foliation leaves are not horizontal trajectories of the differential."""


class NotLegendrian(HeismodError):
    """Foliation leaves violate the contact condition beyond tolerance."""


class ZeroOfQ(HeismodError):
    """The differential vanishes (below floor) where a trace starts."""


class LeftDomain(HeismodError):
    """A trace start point fails the domain predicate."""


class StepFailure(HeismodError):
    """Adaptive step control underflowed or exceeded its step budget."""


class KernelResidualHigh(HeismodError):
    """The differential fails the B2-kernel spot check for a modulus run."""


class ConstantLengthViolated(HeismodError):
    """Leaf lengths vary although a constant-length formula was requested."""


class ZeroLeafLength(HeismodError):
    """A leaf has vanishing length, so no extremal density exists."""


class NonAdmissibleAfterRenormalization(HeismodError):
    """A renormalized density still fails the admissibility check."""


class ScenarioError(HeismodError):
    """Scenario file is malformed or internally inconsistent."""
