"""Exact toolkit for multiplicative invariants of finite integer matrix
groups: root systems and fundamental weights for reflection groups,
Hilbert bases of dominant weight monoids, explicit fundamental
invariants, class groups, and the semigroup-algebra classification."""

from .classify import (
    NOT_SEMIGROUP_ALGEBRA,
    SEMIGROUP_ALGEBRA,
    UNKNOWN,
    SignGroupReport,
    Verdict,
    class_group,
    min_displacement_rank,
    reflection_monoid,
    sign_group_singular_locus,
    verdict,
)
from .errors import (
    AxiomFailure,
    BoxTooLarge,
    GenerationFailure,
    GroupTooLarge,
    HasReflections,
    InvalidBase,
    InvalidInput,
    LocusTooLarge,
    MultInvError,
    NotReflectionGroup,
    NotSignGroup,
    NotUnimodular,
    SupportEscape,
    TrivialGroup,
)
from .groups import (
    GroupAction,
    close_group,
    fixed_sublattice,
)
from .lattice import (
    ElementaryDivisors,
    IntMatrix,
    Sublattice,
    kernel_lattice,
    smith_normal_form,
    solve_integer,
)
from .laurent import (
    FundamentalInvariant,
    LaurentPolynomial,
    fundamental_invariants_detailed,
    is_invariant,
)
from .monoid import (
    MAX_BOX_POINTS,
    MonoidDescription,
    WeightMonoid,
    build_weight_monoid,
    enumerate_box,
    hilbert_basis,
    minimal_multipliers,
)
from .roots import (
    Reflection,
    RootDatum,
    build_root_system,
    find_reflections,
    is_reflection_group,
    weight_orbit,
)

__version__ = "0.1.0"
