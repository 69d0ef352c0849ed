"""Exact 2-adic reduction and conductor-exponent verification for Frey
hyperelliptic curve families.

The package is pure exact arithmetic end to end: arbitrary-precision
rationals, dense polynomials over pluggable coefficient domains, small
binary fields, the tame field Q(2^(1/r)), and weighted formal Laurent
models.  It needs no build step: GF(2^k) roots come from gcds and trace
splitting, not from an exhaustive scan.

`frey2.classify` is the classification module; its function is
`frey2.classify.classify`.
"""

from .algebra import Poly, PolyRing, QQ, discriminant, resultant, v2
from .classify import cross_validate, inertial_type, residue_degree
from .curves import (
    HyperEq,
    MobiusChange,
    apply_change,
    hyper_discriminant,
    infinity_patch,
)
from .families import (
    build_curve,
    darmon_f,
    omega_min_poly,
    verify_closed_form_disc,
    verify_identities,
)
from .fibers import SpecialFiber, fiber_kind, fiber_type, singular_points
from .gf2 import GF2, GF2k, gf2k, roots_in_gf2k
from .localfield import (
    AffineVal,
    FormalParam,
    LaurentRing,
    TameField,
    normalize_twist,
)
from .pipelines import (
    field_of_definition,
    pipeline_35p,
    pipeline_odd_good_reduction,
    pipeline_ppr_even,
)

__version__ = "0.1.0"
