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

These are the rows of one table, ``_RULES``, keyed by flavor and flag
length; a row names the members that must be isotropic, the complement
beside the top quotient and the formula, and ``certify`` reads it.

``certify`` reads a family by its blocks, each with its summand of the
pairing: a member is the direct sum of its chunks, one per block, so
isotropy holds iff it does on each chunk, a perp is the sum of the
chunks' perps, and perp/top, outer/inner and ambient/top are the unions
of the block quotients.  A family's form picks its path.  A
``BlockFamily``, which every builder makes, is read from its blocks
(``_built``): each block's chunks and flag quotients come from its
witnesses through ``families._lower``, and no n-row member is
assembled.  A ``FlagFamily``, given by its members, takes the member
path, which reads no witness: it is one block, the whole ambient with
the whole pairing and the whole members, a flag quotient is found by
elimination (``quotient_type``), and a classical ambient/top is the
top's cokernel.  A witness can cost time but never change a verdict or
a note.

A block may have a witness for its perp/top (``Part.witness``), and
every such witness rests on one lemma, that of an exact pair
(``_exact_pair``).  An E_{2a,2b} block's is the builder's (psi', inner,
psi''), two binomial exact pairs: once ``_witnessed_quotient`` has
checked it, in the isotropy step, it proves the top chunk isotropic and
gives perp/top from the frame of psi''.  Every other witness is a perp
basis (P, L) of a chunk, checked by ``_lifted_quotient``: the symmetric
cubic and R3 blocks' is their top chunk with the identity, and the skew
cubic block's spans its low chunk's perp.  An empty chunk's perp/top is
read from the top chunk.  None needs a kernel scan or a lift
(``_perp_over_top``); a block with no witness, or with a refused one,
falls back to ``is_isotropic``, ``perp`` and ``quotient_type``.

While ``run_sweep`` runs, it keeps one memo (``families._once``) and
computes each block stage once through it: the key is the stage and its
arguments' content, field included, and a stage is a deterministic
function of that content, so a hit is what a recomputation gives.  A
stage that raises stores nothing; a direct ``certify`` sees no memo.

The smoothness condition on the evaluation map is not computed: the
targets here are homogeneous, so their tangent bundles are globally
generated and the condition holds automatically; certificates record that
discharge as a note.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .families import (
    BlockFamily,
    ExceptionalCaseError,
    _chunks,
    _once,
    _set_memo,
    build_family,
    build_phi_psi,
    is_exceptional,
)
from .frames import GradedMatrix, RankProfile
from .sheaves import (
    Block,
    Pairing,
    SplittingType,
    Subbundle,
    cokernel_type,
    _lift_quotient_type,
    is_isotropic,
    kernel_free,
    pairing_map,
    perp,
    quotient_type,
    sub_lift,
)

__all__ = [
    "Certificate",
    "certify",
    "verify_claim_ses",
    "SesReport",
    "SweepRow",
    "run_sweep",
    "sweep_points",
    "sweep_consistent",
]

_HOMOGENEOUS_NOTE = (
    "smoothness of the evaluation map holds automatically (homogeneous target); "
    "not computed"
)
_PIECEWISE_NOTE = "tangent positivity certified piecewise on the extension"
# the predicates a very twisting certificate needs, in the order reported
_PREDICATES = ("flag_valid", "isotropy_ok", "tev_ample", "tev_rank_positive", "psi_deg_nonneg")


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

    @classmethod
    def refusal(cls, case, n, k, flavor, notes, **flags) -> "Certificate":
        """A certificate with no types and every predicate false except
        those ``flags`` set: a failed check or an exceptional case."""
        predicates = dict.fromkeys(_PREDICATES, False)
        predicates.update(flags)
        return cls(case, n, k, flavor, (), (), None, 0, notes=tuple(notes), **predicates)

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


def _requested(fam):
    return fam.requested if fam.requested else (fam.n, fam.k)


def _failed(fam, reason: str, **flags) -> Certificate:
    notes = fam.notes + (reason,)
    return Certificate.refusal(fam.case, *_requested(fam), fam.flavor, notes, **flags)


def _finish(fam, quotients, pieces, psi, extra_notes) -> Certificate:
    return Certificate(
        fam.case,
        *_requested(fam),
        fam.flavor,
        flag_quotients=tuple(quotients),
        tev_pieces=tuple(pieces),
        psi_type=psi,
        psi_degree=psi.degree,
        flag_valid=True,
        isotropy_ok=True,
        tev_ample=all(t.is_ample for t in pieces),
        tev_rank_positive=sum(t.rank for t in pieces) >= 1,
        psi_deg_nonneg=psi.degree >= 0,
        notes=fam.notes + (_HOMOGENEOUS_NOTE,) + extra_notes,
    )


def _two_step(low, q_bottom, q_top, beside_top):
    """Pieces and psi of a (k-1, k, k+1) flag; ``beside_top`` is the
    complement the top quotient pairs with."""
    pieces = [q_top.dual().tensor(beside_top), q_bottom.tensor(low.dual())]
    return pieces, q_top.tensor(q_bottom.dual())


def _one_step(low, q, beside_top):
    """Pieces and psi of a (k-2, k) flag."""
    return [q.tensor(low.dual())], q.dual().wedge2()


class _Rule(NamedTuple):
    isotropic: int  # members, from the bottom, that must be isotropic
    isotropy_note: str
    beside_top: Optional[str]  # "ambient" | "perp(top)" | "perp(low)" | None
    formula: object  # (low type, *quotients, beside_top) -> (pieces, psi)
    notes: tuple = ()


_NOT_ISOTROPIC = "a flag member is not isotropic"
# one row per (flavor, number of members); see the module docstring
_RULES = {
    (None, 3): _Rule(0, "", "ambient", _two_step),
    ("symmetric", 3): _Rule(3, _NOT_ISOTROPIC, "perp(top)", _two_step),
    ("symmetric", 2): _Rule(2, _NOT_ISOTROPIC, None, _one_step),
    ("skew", 3): _Rule(
        2,
        "a flag member below the top is not isotropic",
        "perp(low)",
        _two_step,
        (_PIECEWISE_NOTE,),
    ),
}


def _isotropy(blocks, count, nested=False) -> Optional[list]:
    """Check every distinct chunk of the bottom ``count`` members of each
    block isotropic, or only the highest if the chunks are ``nested`` (a
    subsheaf of an isotropic one is isotropic); None if one is not.  Else,
    per block, the perp/top of its top chunk if the block's perp witness
    gave it here, in place of ``is_isotropic``: an E_{2a,2b} triple by
    ``_witnessed_quotient``, any other witness as a perp basis of the top
    chunk by ``_lifted_quotient``; else None.  ``_perp_over_top`` reads
    it."""
    found = []
    for b in blocks:
        top, quotient = b.chunks[-1], None
        tested = {id(e): e for e in b.chunks[count - 1 if nested else 0 : count] if e.rank}
        if id(top) in tested and b.witness is not None:
            if _is_witness(b.witness, 3):
                quotient = _once(_witnessed_quotient, top, b.pairing, b.witness)
            else:
                quotient = _once(_lifted_quotient, top, top, b.pairing, b.witness)
            if quotient is not None:
                del tested[id(top)]
        if not all(_once(is_isotropic, e, b.pairing) for e in tested.values()):
            return None
        found.append(quotient)
    return found


def _perp_over_top(blocks, i, witnessed) -> SplittingType:
    """perp(member i)/top: per block, the quotient of the perp of member
    i's chunk by the top chunk, joined; raises ``ValueError`` if a top
    chunk does not lie in its perp.  ``witnessed`` holds, per block, what
    ``_isotropy`` read from its perp witness: perp/top of the top chunk,
    or None.

    Let C be member i's chunk and E the top chunk (the same object when
    equal, as ``families._chunks`` makes them; whole members on the
    member path).  Three rules answer a block with no kernel scan and no
    solve; a block none answers takes ``perp`` and ``quotient_type``,
    which stay the oracle.
    (a) C is empty.  Its perp is the whole block, whose generator is the
        identity, and E's generator is its own lift into it, so perp/top
        is coker(E) (``_lift_quotient_type``), or (0,) * dim if E is empty
        too, for the block's dimension dim.
    (b) C is E, and the block's witness held in ``_isotropy``: the
        perp/top read there.
    (c) The block's witness is a perp basis (P, L) of C that passes
        ``_lifted_quotient``: perp/top is coker(L).  The symmetric cubic
        and R3 blocks' is (E.gen, identity), which says E is perp(C), so
        perp/top is empty: there C is E (Lagrangian) or the R3 block's low
        chunk.  The skew cubic block's spans perp of its low chunk."""
    twists = ()
    for b, found in zip(blocks, witnessed):
        top, chunk = b.chunks[-1], b.chunks[i]
        if not chunk.rank:
            dim = top.gen.nrows
            found = _once(_lift_quotient_type, top.gen) if top.rank else SplittingType((0,) * dim)
        elif chunk is not top or found is None:
            found = _once(_lifted_quotient, chunk, top, b.pairing, b.witness)
            if found is None:
                found = _once(quotient_type, top, _once(perp, chunk, b.pairing))
        twists += found.twists
    return SplittingType(twists)


def _exact_pair(phi, psi) -> Optional[SplittingType]:
    """coker(phi) = O(psi.dst) if 0 -> O(phi.src) -> O(phi.dst) ->
    O(psi.dst) -> 0 is exact by the checks below, else None.

    The checks: one field, frames that compose (phi.dst = psi.src), psi
    everywhere surjective (its profile (psi.nrows, True)), psi phi = 0,
    phi.ncols and sum(phi.src) the rank and degree of K = ker psi, and
    phi of generic rank phi.ncols.  A kept profile answers each rank:
    psi's from ``build_phi_psi`` or ``pairing_map``, phi's from
    ``build_phi_psi`` where its coefficients allow, or a chunk's.

    The saturation lemma: these make the sequence exact, with phi
    everywhere injective.  Proof: K is the kernel of a surjection of
    vector bundles, so a subbundle of O(psi.src) of rank #psi.src -
    #psi.dst and degree sum(psi.src) - sum(psi.dst).  phi maps O(phi.src)
    into K, and its kernel has rank 0 inside the torsion-free O(phi.src),
    so it is 0; so im phi is isomorphic to O(phi.src), of K's rank and
    degree.  K/im phi then has rank 0, so it is torsion, and its length
    is deg K - deg im phi = 0, so im phi = K.  phi is thus an isomorphism
    onto the subbundle K, injective on the fiber at every point, and psi
    maps O(phi.dst)/K onto O(psi.dst).  A short exact sequence of vector
    bundles stays exact under the transposed dual, so 0 -> O(-psi.dst)
    -> O(-phi.dst) -> O(-phi.src) -> 0 is exact too."""
    if (
        phi.field != psi.field
        or phi.dst != psi.src
        or phi.ncols != psi.ncols - psi.nrows
        or sum(phi.src) != sum(psi.src) - sum(psi.dst)
        or psi.rank_everywhere() != (psi.nrows, True)
        or not (psi @ phi).is_zero()
        or phi.rank_everywhere().generic_rank != phi.ncols
    ):
        return None
    return SplittingType(psi.dst)


def _is_witness(witness, length: int) -> bool:
    """True iff ``witness`` is a tuple of ``length`` matrices; anything
    else is no witness, and its stage refuses it."""
    return isinstance(witness, tuple) and len(witness) == length and all(
        isinstance(m, GradedMatrix) for m in witness
    )


def _witnessed_quotient(e, beta, witness) -> Optional[SplittingType]:
    """perp(e)/e of an E_{2a,2b} top chunk e from the block's witness
    (psi', inner, psi''), or None if the witness fails.

    It holds when beta is hyperbolic of its flavor on 2b = 2 * psi'.ncols
    coordinates, e's first a = inner.ncols columns vanish off the e-half
    and its last a off the x-half, so that e's generator is phi_plus ⊕
    phi_minus, (phi_plus, psi') and (inner, psi'') are exact pairs
    (``_exact_pair``), and psi'^T inner = phi_minus (^T the transposed
    dual).  phi_plus keeps the profile (a, True): its columns are e's, on
    the rows off which they vanish, and e's generator is everywhere
    injective.

    The lemma.  Then e is isotropic, and perp(e)/e is coker(inner) ∪
    coker(inner)^v = O(psi''.dst) ∪ O(-psi''.dst).  Proof: with <e_i, x_j>
    = delta_ij and <x_j, e_i> = +-delta_ij, (u, w) pairs with a phi_plus
    column (p, 0) to +-w.p and with a phi_minus column (0, m) to u.m.  So
    a phi_plus column pairs with a phi_minus column to an entry of
    +-phi_minus^T phi_plus = +-inner^T psi' phi_plus = 0, and two columns
    in one half pair to 0: e is isotropic.  (u, w) is in perp(e) iff
    phi_minus^T u = 0 and phi_plus^T w = 0, so perp(e) and e split along
    the two halves.  By ``_exact_pair``, ker psi' = im phi_plus, im psi'^T
    = ker phi_plus^T (the transposed dual sequence), inner is everywhere
    injective with cokernel O(psi''.dst), and ker inner^T = im psi''^T.
    - e-half: phi_minus^T = inner^T psi' and psi' is onto, so
      ker phi_minus^T / im phi_plus = psi'^-1(ker inner^T) / ker psi' ≅
      ker inner^T ≅ O(-psi''.dst).
    - x-half: psi'^T is everywhere injective, so ker phi_plus^T / im
      phi_minus = im psi'^T / psi'^T(im inner) ≅ coker(inner) =
      O(psi''.dst).
    For the binomial pairs psi''.dst is (0,) * (c - a), pulled back or
    not, so perp/top is read from a frame: no scan.

    Why psi'^T inner is formed again and compared with e's minus half,
    though ``families._e2a2b`` built that half as this very product: the
    witness is untrusted data, and the two exact pairs speak of psi',
    inner and psi'' alone.  The plus half is tied to e by its own exact
    pair with psi'; the minus half only by this comparison.  Without it, a
    chunk whose plus half fits the witness would pass whatever its minus
    half, and be declared isotropic with the witness's perp/top."""
    if not _is_witness(witness, 3):
        return None
    psi, inner, psi_inner = witness
    f, gen = e.field, e.gen
    b, a = psi.ncols, inner.ncols
    if (
        inner.field != f
        or inner.dst != tuple(-t for t in psi.dst)
        or beta.matrix != _once(Pairing.hyperbolic, f, b, beta.flavor).matrix
    ):
        return None
    support = gen.support()
    if any(i >= b for col in support[:a] for i, _ in col) or any(
        i < b for col in support[a:] for i, _ in col
    ):
        return None
    plus = GradedMatrix._valid(f, gen.src[:a], gen.dst[:b], tuple(r[:a] for r in gen.entries[:b]))
    plus._profile = RankProfile(plus.ncols, True)
    minus = GradedMatrix._valid(f, gen.src[a:], gen.dst[b:], tuple(r[a:] for r in gen.entries[b:]))
    coker = _exact_pair(inner, psi_inner)
    if coker is None or _exact_pair(plus, psi) is None or psi.transpose_dual() @ inner != minus:
        return None
    return SplittingType(coker.twists + coker.dual().twists)


def _lifted_quotient(e, top, beta, basis) -> Optional[SplittingType]:
    """perp(e)/top from a perp basis (P, L) of e, or None if it fails.

    It holds when L maps into P's source over e's field, P @ L = top.gen,
    and (P, pairing_map(e)) is an exact pair (``_exact_pair``).  The
    pairing map is everywhere surjective with kernel perp(e), so then
    perp(e) = im P, L is top's lift into it, and perp(e)/top is coker(L)
    (``_lift_quotient_type``).  P @ L = top.gen also puts top inside
    perp(e): so P = top.gen with L the identity checks that top is
    perp(e), and for e = top that is isotropy."""
    if not _is_witness(basis, 2):
        return None
    p, lift = basis
    if lift.field != e.field or lift.dst != p.src or p @ lift != top.gen:
        return None
    if _exact_pair(p, pairing_map(e, beta)) is None:
        return None
    return _lift_quotient_type(lift)


def _built(fam):
    """A block family as ``certify`` reads it: per block a ``Block``, and
    per member and flag quotient its type, the union of the blocks' (a
    member is the direct sum of its chunks); None for a member family,
    which takes the member path.  A block ``_chunks`` refuses raises
    ``ValueError``, as reading the members does."""
    if not isinstance(fam, BlockFamily):
        return None
    found = [_once(_chunks, part) for part in fam.blocks]
    blocks = [Block(p.pairing, chunks, p.witness) for p, (chunks, _) in zip(fam.blocks, found)]

    def union(per_block):  # per member or quotient, the union of its twists in each block
        return [SplittingType(sum(twists, ())) for twists in zip(*per_block, strict=True)]

    types = union([tuple(c.gen.src for c in b.chunks) for b in blocks])
    return blocks, types, union([quotients for _, quotients in found])


def _ambient(fam: BlockFamily) -> SplittingType:
    """ambient/top of a classical block family: the union of the cokernels
    of its line, curve and unit blocks, each distinct one found once (the
    cokernel of a direct sum is the sum of the cokernels)."""
    pieces = [m for part in fam.blocks for m in part.top]
    coker = {id(m): _once(cokernel_type, m) for m in {id(m): m for m in pieces}.values()}
    return SplittingType(sum((coker[id(m)].twists for m in pieces), ()))


def certify(fam) -> Certificate:
    """Certify a flag family by the rule for its flavor and length.

    The checks run in order: member ranks, isotropy of the bottom members,
    (skew) the top inside perp(low), nesting, then the types.  The first
    failure gives a refusal certificate with its note.

    The family's type picks the path: a ``BlockFamily`` is read from its
    blocks (``_built``), a ``FlagFamily`` takes the member path (see the
    module docstring).  Either way the pairing stages run per block, on
    the chunks (equal ones once): ``_isotropy``, then ``_perp_over_top``,
    which joins the block quotients.  No stage runs whose answer a checked
    fact already decides.
    """
    built = _built(fam)
    blocks, types, quotients = built or (None, [m.type for m in fam.members], None)
    rule = _RULES.get((fam.flavor, len(types)))
    if rule is None:
        kind = fam.flavor or "classical"
        raise ValueError(f"no certificate rule for a {kind} flag of {len(types)} members")
    if tuple(t.rank for t in types) != fam.shape:
        return _failed(fam, "flag member ranks do not match the expected shape")
    blocks = (blocks or [Block(fam.pairing, tuple(fam.members))]) if rule.isotropic else ()
    witnessed = _isotropy(blocks, rule.isotropic, built is not None)
    if witnessed is None:
        return _failed(fam, rule.isotropy_note, flag_valid=True)
    beside_top = None
    if rule.beside_top == "perp(low)":  # the top must lie in perp(low)
        try:
            beside_top = _perp_over_top(blocks, 0, witnessed)
        except ValueError:
            return _failed(
                fam, "top member is not annihilated by the bottom member", isotropy_ok=True
            )
    try:
        if quotients is None:
            quotients = [quotient_type(*fam.members[i : i + 2]) for i in range(len(types) - 1)]
        if rule.beside_top == "perp(top)":
            beside_top = _perp_over_top(blocks, -1, witnessed)
    except ValueError as exc:
        return _failed(fam, f"flag is not nested: {exc}")
    if rule.beside_top == "ambient":
        beside_top = _ambient(fam) if built else cokernel_type(fam.members[-1].gen)
    pieces, psi = rule.formula(types[0], *quotients, beside_top)
    return _finish(fam, [types[0], *quotients], pieces, psi, rule.notes)


# ---------------------------------------------------------------------------
# exactness report for the binomial pair


class SesReport(NamedTuple):
    """The four facts exactness of 0 -> O^a -> O(b-a)^b -> O(b)^(b-a) -> 0
    rests on.  ``kernel_matches``: ker psi has phi's source frame as its
    type and contains every column of phi, so ker psi = im phi; it holds by
    the lemma of ``_exact_pair`` where that applies, and is otherwise read
    from the kernel scan and one lift."""

    a: int
    b: int
    composite_zero: bool
    injective: bool
    surjective: bool
    kernel_matches: bool

    @property
    def exact(self) -> bool:
        return all(self[2:])  # the four facts


def verify_claim_ses(field, a: int, b: int) -> SesReport:
    """Check exactness of the phi/psi pair: psi phi = 0, phi everywhere
    injective, psi everywhere surjective, and ker psi = im phi.

    Where (phi, psi) passes ``_exact_pair``, all four hold by its lemma,
    read from the matrices and not from (a, b).  ``build_phi_psi`` proves
    psi's profile, and phi's wherever its binomial coefficients are
    nonzero in the field, so an exact report there runs no Smith form.

    Otherwise ``injective`` and ``surjective`` are read from phi's and
    psi's profiles, and ker psi comes from the Hilbert-function scan
    (``kernel_free``) and must have phi's source frame as its type; if the
    composite is zero, every column of phi must also lift through it
    (``sub_lift``).
    """
    phi, psi = build_phi_psi(field, a, b)
    if _exact_pair(phi, psi) is not None:
        return SesReport(a, b, True, True, True, True)
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

    def to_json_dict(self) -> dict:
        """The case and status, then the certificate's types or the reason."""
        row = {"flavor": self.flavor or "classical", "n": self.n, "k": self.k}
        row["status"] = self.status
        if self.certificate is not None:
            cert = self.certificate.to_json_dict()
            row.update((key, cert[key]) for key in _SWEEP_FIELDS)
        elif self.reason is not None:
            row["reason"] = self.reason
        return row

    def text_line(self) -> str:
        row = self.to_json_dict()
        line = f"{row['flavor']:>10} n={self.n:<3} k={self.k:<3} "
        if self.certificate is None:
            return line + self.status + (f" reason: {self.reason}" if "reason" in row else "")
        return line + (
            f"{self.status:<14} case={row['case']:<14} quots={row['flag_quotients']}"
            f" tev={row['tev_pieces']} psi={row['psi_degree']}"
        )


# the certificate fields a sweep row carries, in order
_SWEEP_FIELDS = ("case", "flag_quotients", "tev_pieces", "psi_degree")


def sweep_points(n_min: int, n_max: int, flavors):
    return [
        (flavor, n, k)
        for flavor in flavors
        for n in range(max(2, n_min), n_max + 1)
        if not (flavor == "skew" and n % 2)
        for k in range(1, n // 2 + 1)
    ]


def _sweep_one(field, flavor, n, k):
    """One sweep case; an error in this case becomes a "failed" row with
    its reason instead of aborting the whole sweep."""
    try:
        cert = certify(build_family(field, n, k, flavor))
    except ExceptionalCaseError:
        return SweepRow(flavor, n, k, "exceptional", None)
    except Exception as exc:
        return SweepRow(flavor, n, k, "failed", None, f"{type(exc).__name__}: {exc}")
    status = "very-twisting" if cert.very_twisting else "failed"
    return SweepRow(flavor, n, k, status, cert)


def run_sweep(field, n_min: int, n_max: int, flavors):
    """Certify every case in range, in ``sweep_points`` order, under one
    memo that this call opens and drops when it returns or raises."""
    _set_memo({})
    try:
        return [_sweep_one(field, *point) for point in sweep_points(n_min, n_max, flavors)]
    finally:
        _set_memo(None)


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
