"""Exception types shared across the package."""


class MultInvError(Exception):
    """Base class for every error this package raises on purpose."""


class NotUnimodular(MultInvError):
    """A generator matrix has determinant other than +1 or -1."""


class GroupTooLarge(MultInvError):
    """Group closure exceeded the element cap; the group is probably infinite."""


class NotReflectionGroup(MultInvError):
    """The reflections in the group generate a proper subgroup."""


class AxiomFailure(MultInvError):
    """An internal root-system or monoid axiom failed; indicates a bug."""


class InvalidBase(MultInvError):
    """A user-supplied base is not a valid base of the root system."""


class GenerationFailure(MultInvError):
    """The computed Hilbert basis failed to generate the monoid; a bug."""


class SupportEscape(MultInvError):
    """A fundamental invariant has support outside the lattice; a bug."""


class TrivialGroup(MultInvError):
    """The operation requires a nontrivial group."""


class NotSignGroup(MultInvError):
    """The group is not a diagonal group with +-1 entries."""


class LocusTooLarge(MultInvError):
    """The singular locus has too many components to list."""


class BoxTooLarge(MultInvError):
    """The weight monoid's box holds too many lattice points to list."""


class HasReflections(MultInvError):
    """The sign-group analyzer requires a group without reflections."""


class InvalidInput(MultInvError):
    """A user-supplied action description failed validation."""
