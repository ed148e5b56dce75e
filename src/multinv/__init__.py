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
    is_fixed_point_free,
    min_displacement_rank,
    reflection_monoid,
    sign_group_singular_locus,
    verdict,
)
from .errors import (
    AmbiguousFormula,
    AxiomFailure,
    GenerationFailure,
    GroupTooLarge,
    HasReflections,
    InvalidBase,
    InvalidInput,
    LocusTooLarge,
    MultInvError,
    NotContained,
    NotInvariant,
    NotMultiple,
    NotReflectionGroup,
    NotSignGroup,
    NotUnimodular,
    SupportEscape,
    TrivialGroup,
)
from .groups import (
    EffectiveQuotient,
    GroupAction,
    close_group,
    displacement_ranks,
    effective_quotient,
    fixed_sublattice,
    induced_matrix,
    orbit,
)
from .lattice import (
    ElementaryDivisors,
    IntMatrix,
    Sublattice,
    kernel_lattice,
    quotient_invariants,
    smith_normal_form,
    solve_integer,
)
from .laurent import (
    FundamentalInvariant,
    LaurentPolynomial,
    fundamental_invariants,
    fundamental_invariants_detailed,
    is_invariant,
    orbit_sum,
    orbit_sum_decomposition,
)
from .monoid import (
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
    coroot_pairing,
    find_reflections,
    is_reflection_group,
)

__version__ = "0.1.0"
