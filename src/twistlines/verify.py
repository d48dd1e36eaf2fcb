"""Positivity certificates for the constructed flag families.

The verdict for a family is assembled from the splitting types of its flag
quotients via the pullback formulas for the vertical tangent bundle of the
evaluation map and for the dual psi class:

* classical:        T = [(top q)^v x (ambient/top)] + [(bottom q) x (low)^v]
* symmetric, big n: the same with ambient/top replaced by perp(top)/top
* symmetric, n=2k:  T = (q) x (low)^v on a (k-2, k)-flag, psi = wedge2(q)^v
* skew:             T is an extension with sub (top q)^v x (perp(low)/R) and
                    quotient (bottom q) x (low)^v; ampleness is certified
                    piecewise (an extension of ample by ample is ample)

The smoothness condition on the evaluation map is not computed: the
targets here are homogeneous, so their tangent bundles are globally
generated and the condition holds automatically; certificates record that
discharge as a note.
"""

import os
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .families import (
    ExceptionalCaseError,
    FlagFamily,
    build_classical,
    build_isotropic,
    build_phi_psi,
    is_exceptional,
)
from .sheaves import (
    SplittingType,
    Subbundle,
    cokernel_type,
    _lift_quotient_type,
    is_isotropic,
    kernel_free,
    perp,
    quotient_type,
    sub_lift,
)

__all__ = [
    "Certificate",
    "certify",
    "check_classical",
    "check_symmetric_big",
    "check_symmetric_2k",
    "check_skew",
    "verify_claim_ses",
    "SesReport",
    "SweepRow",
    "run_sweep",
    "pool_size",
    "sweep_points",
    "sweep_consistent",
]

_HOMOGENEOUS_NOTE = (
    "smoothness of the evaluation map holds automatically (homogeneous target); "
    "not computed"
)
_PIECEWISE_NOTE = "tangent positivity certified piecewise on the extension"
# the predicates a very twisting certificate needs, in the order reported
_PREDICATES = (
    "flag_valid",
    "isotropy_ok",
    "tev_ample",
    "tev_rank_positive",
    "psi_deg_nonneg",
)


@dataclass(frozen=True)
class Certificate:
    case: str
    n: int
    k: int
    flavor: object  # None for the classical Grassmannian
    flag_quotients: tuple  # types: bottom member, then successive quotients
    tev_pieces: tuple
    psi_type: Optional[SplittingType]
    psi_degree: int
    flag_valid: bool
    isotropy_ok: bool
    tev_ample: bool
    tev_rank_positive: bool
    psi_deg_nonneg: bool
    notes: tuple

    @property
    def very_twisting(self) -> bool:
        return self.first_violation is None

    @property
    def first_violation(self) -> Optional[str]:
        """Name of the first false predicate, or None if all five hold."""
        for name in _PREDICATES:
            if not getattr(self, name):
                return name
        return None

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "n": self.n,
            "k": self.k,
            "flavor": self.flavor if self.flavor else "classical",
            "flag_quotients": [list(t.twists) for t in self.flag_quotients],
            "tev_pieces": [list(t.twists) for t in self.tev_pieces],
            "psi_degree": self.psi_degree,
            "verdict": self.very_twisting,
            "notes": list(self.notes),
        }


def _failed(fam: FlagFamily, reason: str, **flags) -> Certificate:
    base = dict(
        case=fam.case,
        n=fam.requested[0] if fam.requested else fam.n,
        k=fam.requested[1] if fam.requested else fam.k,
        flavor=fam.flavor,
        flag_quotients=(),
        tev_pieces=(),
        psi_type=None,
        psi_degree=0,
        flag_valid=False,
        isotropy_ok=False,
        tev_ample=False,
        tev_rank_positive=False,
        psi_deg_nonneg=False,
        notes=fam.notes + (reason,),
    )
    base.update(flags)
    return Certificate(**base)


def _finish(fam, quotients, pieces, psi, isotropy_ok, extra_notes=()) -> Certificate:
    n, k = fam.requested if fam.requested else (fam.n, fam.k)
    return Certificate(
        case=fam.case,
        n=n,
        k=k,
        flavor=fam.flavor,
        flag_quotients=tuple(quotients),
        tev_pieces=tuple(pieces),
        psi_type=psi,
        psi_degree=psi.degree,
        flag_valid=True,
        isotropy_ok=isotropy_ok,
        tev_ample=all(t.is_ample for t in pieces),
        tev_rank_positive=sum(t.rank for t in pieces) >= 1,
        psi_deg_nonneg=psi.degree >= 0,
        notes=fam.notes + (_HOMOGENEOUS_NOTE,) + tuple(extra_notes),
    )


def _shape_ok(fam: FlagFamily) -> bool:
    return tuple(m.rank for m in fam.members) == fam.shape


def check_classical(fam: FlagFamily) -> Certificate:
    if fam.flavor is not None or len(fam.members) != 3:
        raise ValueError("check_classical expects a classical (k-1,k,k+1) family")
    if not _shape_ok(fam):
        return _failed(fam, "flag member ranks do not match the expected shape")
    low, mid, top = fam.members
    try:
        q_bottom = quotient_type(low, mid)
        q_top = quotient_type(mid, top)
    except ValueError as exc:
        return _failed(fam, f"flag is not nested: {exc}")
    ambient_quot = cokernel_type(top.gen)
    piece1 = q_top.dual().tensor(ambient_quot)
    piece2 = q_bottom.tensor(low.type.dual())
    psi = q_top.tensor(q_bottom.dual())
    return _finish(
        fam, [low.type, q_bottom, q_top], [piece1, piece2], psi, isotropy_ok=True
    )


def check_symmetric_big(fam: FlagFamily) -> Certificate:
    if fam.flavor != "symmetric" or len(fam.members) != 3:
        raise ValueError("check_symmetric_big expects a symmetric (k-1,k,k+1) family")
    if not _shape_ok(fam):
        return _failed(fam, "flag member ranks do not match the expected shape")
    low, mid, top = fam.members
    if not all(is_isotropic(m, fam.pairing) for m in fam.members):
        return _failed(fam, "a flag member is not isotropic", flag_valid=True)
    try:
        q_bottom = quotient_type(low, mid)
        q_top = quotient_type(mid, top)
        q_perp = quotient_type(top, perp(top, fam.pairing))
    except ValueError as exc:
        return _failed(fam, f"flag is not nested: {exc}")
    piece1 = q_top.dual().tensor(q_perp)
    piece2 = q_bottom.tensor(low.type.dual())
    psi = q_top.tensor(q_bottom.dual())
    return _finish(
        fam, [low.type, q_bottom, q_top], [piece1, piece2], psi, isotropy_ok=True
    )


def check_symmetric_2k(fam: FlagFamily) -> Certificate:
    if fam.flavor != "symmetric" or len(fam.members) != 2:
        raise ValueError("check_symmetric_2k expects a symmetric (k-2,k) family")
    if not _shape_ok(fam):
        return _failed(fam, "flag member ranks do not match the expected shape")
    low, top = fam.members
    if not all(is_isotropic(m, fam.pairing) for m in fam.members):
        return _failed(fam, "a flag member is not isotropic", flag_valid=True)
    try:
        q = quotient_type(low, top)
    except ValueError as exc:
        return _failed(fam, f"flag is not nested: {exc}")
    piece = q.tensor(low.type.dual())
    psi = q.dual().wedge2()
    return _finish(fam, [low.type, q], [piece], psi, isotropy_ok=True)


def check_skew(fam: FlagFamily) -> Certificate:
    if fam.flavor != "skew" or len(fam.members) != 3:
        raise ValueError("check_skew expects a skew (k-1,k,k+1) family")
    if not _shape_ok(fam):
        return _failed(fam, "flag member ranks do not match the expected shape")
    low, mid, r_top = fam.members
    if not (is_isotropic(low, fam.pairing) and is_isotropic(mid, fam.pairing)):
        return _failed(fam, "a flag member below the top is not isotropic", flag_valid=True)
    low_perp = perp(low, fam.pairing)
    try:
        rest_lift = sub_lift(r_top, low_perp)
    except ValueError:
        return _failed(
            fam, "top member is not annihilated by the bottom member", isotropy_ok=True
        )
    try:
        q_bottom = quotient_type(low, mid)
        q_top = quotient_type(mid, r_top)
        q_rest = _lift_quotient_type(rest_lift)
    except ValueError as exc:
        return _failed(fam, f"flag is not nested: {exc}")
    piece_sub = q_top.dual().tensor(q_rest)
    piece_quot = q_bottom.tensor(low.type.dual())
    psi = q_top.tensor(q_bottom.dual())
    return _finish(
        fam,
        [low.type, q_bottom, q_top],
        [piece_sub, piece_quot],
        psi,
        isotropy_ok=True,
        extra_notes=(_PIECEWISE_NOTE,),
    )


def certify(fam: FlagFamily) -> Certificate:
    """Dispatch a family to the matching positivity check."""
    if fam.flavor is None:
        return check_classical(fam)
    if fam.flavor == "skew":
        return check_skew(fam)
    if len(fam.members) == 2:
        return check_symmetric_2k(fam)
    return check_symmetric_big(fam)


# ---------------------------------------------------------------------------
# exactness report for the binomial pair


class SesReport(NamedTuple):
    a: int
    b: int
    composite_zero: bool
    injective: bool
    surjective: bool
    kernel_matches: bool

    @property
    def exact(self) -> bool:
        return (
            self.composite_zero
            and self.injective
            and self.surjective
            and self.kernel_matches
        )


def verify_claim_ses(field, a: int, b: int) -> SesReport:
    """Check exactness of the phi/psi pair by independent rank certificates."""
    phi, psi = build_phi_psi(field, a, b)
    composite_zero = (psi @ phi).is_zero()
    injective = phi.rank_everywhere() == (a, True)
    surjective = psi.rank_everywhere() == (b - a, True)
    ker = kernel_free(psi)
    kernel_matches = ker.type == SplittingType(phi.src)
    if kernel_matches and composite_zero:
        # every column of phi lifts through the kernel, all in one solve
        try:
            sub_lift(Subbundle(phi), ker)
        except ValueError:
            kernel_matches = False
    return SesReport(a, b, composite_zero, injective, surjective, kernel_matches)


# ---------------------------------------------------------------------------
# sweep


class SweepRow(NamedTuple):
    flavor: object
    n: int
    k: int
    status: str  # "very-twisting" | "exceptional" | "failed"
    certificate: Optional[Certificate]
    reason: Optional[str] = None  # set when building or certifying raised


def sweep_points(n_min: int, n_max: int, flavors):
    points = []
    for flavor in flavors:
        for n in range(max(2, n_min), n_max + 1):
            if flavor == "skew" and n % 2:
                continue
            for k in range(1, n // 2 + 1):
                points.append((flavor, n, k))
    return points


def _sweep_one(args):
    """One sweep case; an error in this case becomes a "failed" row with
    its reason instead of aborting the whole sweep."""
    field, flavor, n, k = args
    try:
        if flavor is None:
            fam = build_classical(field, n, k)
        else:
            fam = build_isotropic(field, n, k, flavor)
        cert = certify(fam)
    except ExceptionalCaseError:
        return SweepRow(flavor, n, k, "exceptional", None)
    except Exception as exc:
        return SweepRow(flavor, n, k, "failed", None, f"{type(exc).__name__}: {exc}")
    status = "very-twisting" if cert.very_twisting else "failed"
    return SweepRow(flavor, n, k, status, cert)


def pool_size(jobs: int, n_tasks: int, cpus) -> int:
    """Worker processes for a sweep: the requested number, capped by the
    CPU count (``None`` counts as 1) and by the number of tasks, at least 1."""
    return max(1, min(jobs, cpus or 1, n_tasks))


def run_sweep(field, n_min: int, n_max: int, flavors, jobs: int = 1):
    """Certify every case in range; rows come back in deterministic order."""
    points = sweep_points(n_min, n_max, flavors)
    tasks = [(field, flavor, n, k) for flavor, n, k in points]
    workers = pool_size(jobs, len(tasks), os.cpu_count())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(t) for t in tasks]
    return rows


def sweep_consistent(rows) -> bool:
    """True iff refusals are exactly the known exceptional list and the
    rest are very twisting."""
    for row in rows:
        if row.status == "exceptional":
            if not is_exceptional(row.flavor, row.n, row.k):
                return False
        elif row.status != "very-twisting" or is_exceptional(row.flavor, row.n, row.k):
            return False
    return True
