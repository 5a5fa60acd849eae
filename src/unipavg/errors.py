"""Exception hierarchy shared by all modules.

Two families matter to callers: bad input data (``InputError``) and broken
internal guarantees (``InvariantViolation``).  The CLI maps the first to
exit code 2 and the second to exit code 3.
"""


class InputError(ValueError):
    """User-supplied data violates a precondition (mismatched rings,
    malformed maps, weights that do not sum to one, ...)."""


class RingMismatch(InputError):
    """Two values from incompatible coefficient rings were combined."""


class MembershipError(InputError):
    """A matrix is not an element of the expected group/algebra span."""


class InvariantViolation(RuntimeError):
    """An internal guarantee failed; computation aborts loudly rather
    than return a wrong value."""


class NonConstantError(InvariantViolation):
    """The symmetrization iteration failed to reach a constant tuple."""


class RationalityError(InvariantViolation):
    """A Galois-averaged point came out non-rational, which covers one that
    is not Galois invariant, as every automorphism fixes Q."""
