"""Exception types shared across the package."""


class StarquantError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateHessian(StarquantError):
    """Momentum Hessian of the Hamiltonian is singular at the working point.

    The whole geometric tower needs g^{ab} = d^2 H / dp_a dp_b to be
    invertible; construction stops here rather than producing garbage.
    """


class JetDomainError(StarquantError):
    """A scalar function was applied outside its real domain (log of a
    non-positive value, sqrt of a negative one, division by a jet whose
    value vanishes)."""


class InsufficientJetOrder(StarquantError):
    """An operation needs more derivative depth than the jet carries."""


class ParseError(StarquantError):
    """Syntax error in an expression string.

    Carries the byte offset of the failure plus what was expected and what
    was found, so the CLI can point at the offending character.
    """

    def __init__(self, offset, expected, found):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {offset}: expected {expected}, found {found}")


class UnknownVariable(StarquantError):
    """Expression references a variable that does not exist in the chosen
    bundle/dimension (e.g. p3 with n = 2, or y1 in a cotangent setup)."""

    def __init__(self, name, offset):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown variable {name!r} at offset {offset}")


class NewtonDivergence(StarquantError):
    """Newton iteration for the inverse Legendre map failed to converge."""


class FlowNotResolved(StarquantError):
    """A fixed-step flow changed its energy by a large part of itself in
    one step, as it does when it steps over a singularity or leaves every
    chart; the trajectory after that step is not the flow."""
