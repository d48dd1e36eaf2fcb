"""Exact splitting-type calculus on the projective line.

The package builds flags of subbundles of a trivial bundle over an exact
field, computes the splitting types of all their subquotients, and
certifies ampleness / degree conditions for the families of pointed lines
they parametrize on classical and isotropic Grassmannians.
"""

from .fields import QQ, PrimeField, RationalField
from .forms import BinaryForm
from .frames import (
    DegreePiece,
    GradedMatrix,
    RankProfile,
    trivial_frame,
)
from .sheaves import (
    Column,
    Pairing,
    SplittingType,
    Subbundle,
    cokernel_type,
    is_isotropic,
    kernel_free,
    lift_through,
    perp,
    quotient_type,
    same_subsheaf,
    sub_lift,
)
from .families import (
    EXCEPTIONAL_CASES,
    BlockFamily,
    ExceptionalCaseError,
    FlagFamily,
    HypothesisError,
    OrbitDatum,
    build_classical,
    build_classical_orbit,
    build_E2a2b,
    build_family,
    build_isotropic,
    build_phi_psi,
    is_exceptional,
)
from .verify import (
    Certificate,
    SesReport,
    SweepRow,
    certify,
    run_sweep,
    sweep_consistent,
    sweep_points,
    verify_claim_ses,
)

__version__ = "0.1.0"
