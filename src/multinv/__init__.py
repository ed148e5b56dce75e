"""Exact toolkit for multiplicative invariants of finite integer matrix
groups: root systems and fundamental weights for reflection groups,
Hilbert bases of dominant weight monoids, explicit fundamental
invariants, class groups, and the semigroup-algebra classification.

The package exports every layer's `__all__` and every error class."""

from .classify import *
from .errors import *
from .groups import *
from .lattice import *
from .laurent import *
from .monoid import *
from .roots import *

__version__ = "0.1.0"
