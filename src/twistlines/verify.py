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

Each flag quotient is read from the lift L of a member into the next one.
A family's builder supplies it as a witness (``FlagFamily.inclusions``).
Most witnesses are selections, a tuple of the outer columns the inner
member is: ``certify`` compares those columns with the inner ones
(``_selects``), and outer/inner is the summands of outer's frame left
out.  A matrix witness L is checked with one product, outer.gen @ L ==
inner.gen, after checking that its frames fit; the outer generator is
everywhere injective, so a witness that passes is the unique lift
elimination would find.  A missing, stale or wrong witness fails its
check, and the quotient is found by elimination (``quotient_type``), so a
witness can cost time but never change a verdict or a note.

The pairing stages (isotropy, perps and the quotient of a perp by the top)
run per block of ``sheaves.orthogonal_blocks``, the summands the builder
added to the pairing, each with the summand itself as its pairing: a
member is a direct sum of chunks, one per orthogonal block, so isotropy
holds iff it does on each chunk, a perp is the sum of the chunks' perps,
and perp/top is the union of the block quotients (proved there), each one
``quotient_type`` of the top chunk in its block's perp.  A block may have
a witness for that quotient, as a member inclusion does
(``FlagFamily.perps``).  An E_{2a,2b} block's is the builder's (psi',
inner): once ``_witness_holds`` has checked it, in the isotropy step, it
proves the top chunk isotropic, and perp/top is one cokernel scan of
inner, run only when a rule asks for it.  The skew cubic block's is (P,
L), a basis of its low chunk's perp and the top's lift into it, checked
by ``_lifted_quotient``.  Neither needs a kernel scan or a lift; the
lemmas are in ``_perp_over_top``.  A refused witness falls back to
``is_isotropic``, ``perp`` and ``quotient_type``.  A block whose chunk is
empty, or whose chunk pairs to zero with the top chunk and has the rank
the top chunk leaves, has its perp/top by its shape.

While ``run_sweep`` runs, each process keeps one memo (``families._once``),
and computes each of its block stages (isotropy, the witness checks, the
pairing of a chunk with the top chunk, perp, quotient, the cokernel of a
top chunk and of a witness's inner matrix) once through it: the
key is the stage and its arguments' content, field included, and a stage
is a deterministic function of that content, so a hit is what a
recomputation gives and every check still runs once.  The builders take
their blocks from the same memo, each built, with its rank profile, once
per process (see ``families``).  A stage that raises stores nothing; a
direct ``certify`` sees no memo.  With more than one worker,
``run_sweep`` sends the cases that share their blocks to one worker: one
task per (flavor, n // 2), the largest n first.

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
    _once,
    _set_memo,
    build_family,
    build_phi_psi,
    is_exceptional,
)
from .frames import GradedMatrix
from .sheaves import (
    Pairing,
    SplittingType,
    Subbundle,
    cokernel_type,
    _lift_quotient_type,
    _scan_cokernel,
    is_isotropic,
    kernel_free,
    orthogonal_blocks,
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


def _requested(fam: FlagFamily):
    return fam.requested if fam.requested else (fam.n, fam.k)


def _failed(fam: FlagFamily, reason: str, **flags) -> Certificate:
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


def _flag_quotient(fam: FlagFamily, i: int) -> SplittingType:
    """Type of members[i+1]/members[i]: from the family's inclusion witness
    if it checks, else by elimination.

    A tuple witness is a selection, checked by ``_selects``, and the
    quotient is the outer summands it leaves out.  A matrix witness L
    checks, once its frames fit, with the product outer.gen @ L ==
    inner.gen.  Anything else is no witness.
    """
    inner, outer = fam.members[i], fam.members[i + 1]
    lift = fam.inclusions[i] if inner.rank and i < len(fam.inclusions) else None
    if isinstance(lift, tuple) and _selects(inner.gen, outer.gen, lift):
        return SplittingType(tuple(a for j, a in enumerate(outer.gen.src) if j not in lift))
    if (
        isinstance(lift, GradedMatrix)
        and lift.field == outer.field
        and lift.dst == outer.gen.src
        and lift.src == inner.gen.src
        and outer.gen @ lift == inner.gen
    ):
        return _lift_quotient_type(lift)
    return quotient_type(inner, outer)


def _selects(inner: GradedMatrix, outer: GradedMatrix, rows: tuple) -> bool:
    """True iff ``rows`` selects inner from outer: one distinct int in
    range(outer.ncols) per inner column, inner.src the selected outer.src,
    and inner's column j outer's column rows[j], entry by entry.  A
    negative index is refused: Python would read -1 as the last column,
    and the summands left out would be wrong.

    Then outer @ L == inner for L the matrix of distinct unit columns at
    ``rows``, with entry 1, and L is the inclusion of the summands of
    outer's frame it selects.  outer is an isomorphism from its frame onto
    its image, so outer/inner is the summands left out.  The builders copy
    the selected entries, so most are the same object."""
    return (
        len(rows) == inner.ncols
        and all(isinstance(r, int) and 0 <= r < outer.ncols for r in rows)
        and len(set(rows)) == len(rows)
        and inner.dst == outer.dst
        and inner.src == tuple(outer.src[r] for r in rows)
        and all(
            inner_row[j] is outer_row[r] or inner_row[j] == outer_row[r]
            for inner_row, outer_row in zip(inner.entries, outer.entries)
            for j, r in enumerate(rows)
        )
    )


def _blocks(fam: FlagFamily) -> list:
    """``orthogonal_blocks`` of the family's members, each with the perp
    witness the builder gave for the block at its first coordinate."""
    blocks = orthogonal_blocks(fam.pairing, fam.members)
    if not fam.perps:
        return blocks
    witnesses = dict(fam.perps)
    return [b._replace(witness=witnesses.get(b.coords[0])) for b in blocks]


def _isotropy(blocks, count) -> Optional[list]:
    """Check every distinct chunk of the bottom ``count`` members of each
    block isotropic; None if one is not.  Otherwise, per block, the pair
    (isotropic, witnessed): whether its top chunk was checked isotropic
    here, and whether by its E_{2a,2b} witness, the facts
    ``_perp_over_top`` reads.

    A tested nonempty top chunk of a block with a perp witness is checked
    by ``_witness_holds`` in place of ``is_isotropic``: a witness that
    holds proves the chunk isotropic.  A refused witness leaves the chunk
    to ``is_isotropic``."""
    facts = []
    for b in blocks:
        top, witnessed = b.chunks[-1], False
        tested = {id(e): e for e in b.chunks[:count] if e.rank}
        if b.witness is not None and id(top) in tested:
            witnessed = _once(_witness_holds, top, b.pairing, *b.witness)
            if witnessed:
                del tested[id(top)]
        if not all(_once(is_isotropic, e, b.pairing) for e in tested.values()):
            return None
        facts.append((witnessed or id(top) in tested, witnessed))
    return facts


def _perp_over_top(blocks, i, facts) -> SplittingType:
    """perp(member i)/top: per block, the quotient of the perp of member
    i's chunk by the top chunk, joined; raises ``ValueError`` if a top
    chunk does not lie in its perp.  ``facts`` holds, per block, what
    ``_isotropy`` checked of its top chunk: (isotropic, witnessed).

    Four rules answer a block; every other block, and one whose witness
    is refused, takes ``perp`` and ``quotient_type``, which stay the
    oracle.  Let C be member i's chunk and E the top chunk (the same
    object when equal, as ``orthogonal_blocks`` makes them).
    (a) C is empty.  Its perp is the whole block, whose generator is the
        identity, and E's generator is its own lift into it, so perp/top
        is coker(E) (``_lift_quotient_type``), or (0,) * dim if E is empty
        too.  No perp and no solve.
    (b) C and E pair to zero, and rank C + rank E = dim.  For C = E that is
        the isotropy ``_isotropy`` checked; otherwise one product,
        ``pairing_map(C) @ E.gen`` (``_annihilates``).  The block's pairing
        is nondegenerate, so C^perp is a subbundle of rank dim - rank C =
        rank E, and it holds E, a subbundle.  A subbundle inside a
        subsheaf of equal rank is all of it, so C^perp = E and perp/top is
        empty: the symmetric cubic block (C = E, Lagrangian) and the R3
        block (C its low chunk).
    (c) C is E, and the block's E_{2a,2b} witness held in ``_isotropy``:
        coker(inner) ∪ coker(inner)^v (``_witnessed_quotient``), by the
        lemma below.
    (d) C is not E, and the block's lift witness (P, L) passes
        ``_lifted_quotient``: coker(L), the skew cubic block.

    The lemma.  Let beta be hyperbolic of dimension 2b (an e-half and an
    x-half, <e_i, x_j> = delta_ij, <x_j, e_i> = +-delta_ij), and let E's
    generator be phi_plus on the e-rows ⊕ phi_minus on the x-rows, of a
    columns each.  Suppose psi': O^b -> O(psi'.dst) is everywhere
    surjective with b - a rows, psi' phi_plus = 0 and psi'^T inner =
    phi_minus (^T the transposed dual).  Then E is isotropic and
    perp(E)/E is coker(inner) ∪ coker(inner)^v.  Proof: the pairing of a
    phi_plus column with a phi_minus column is an entry of +-phi_minus^T
    phi_plus = +-inner^T psi' phi_plus = 0, and two columns in one half
    pair to 0, so E is isotropic.  (u, w) is in perp(E) iff phi_minus^T u
    = 0 and phi_plus^T w = 0, so perp(E) and E split along the two halves.
    E's generator is everywhere injective (a chunk of a member), so phi_plus
    and phi_minus are, and so is inner, as phi_minus = psi'^T inner is.
    - e-half: ker psi' is a subbundle of rank a holding the subbundle
      im phi_plus of rank a, and a subbundle of equal rank inside a
      subsheaf is all of it, so ker psi' = im phi_plus.  As phi_minus^T =
      inner^T psi' and psi' is onto, ker phi_minus^T / im phi_plus =
      psi'^-1(ker inner^T) / ker psi' ≅ ker inner^T, which is coker(inner)^v
      because inner has constant rank.
    - x-half: psi'^T is everywhere injective and phi_plus^T psi'^T = 0, so
      im psi'^T is a subbundle of rank b - a inside ker phi_plus^T, of rank
      b - a: they are equal.  So ker phi_plus^T / im phi_minus =
      im psi'^T / psi'^T(im inner) ≅ coker(inner).
    The hypotheses are what ``_witness_holds`` checks, so perp/top is one
    rank-only cokernel scan of the small matrix inner, run only here: a
    rule that asks for no perp/top (case III) checks the witness and
    scans nothing."""
    twists = ()
    for b, (isotropic, witnessed) in zip(blocks, facts):
        top, chunk, dim = b.chunks[-1], b.chunks[i], len(b.coords)
        if not chunk.rank:
            found = _once(_lift_quotient_type, top.gen) if top.rank else SplittingType((0,) * dim)
        elif chunk is top and witnessed:
            found = _once(_witnessed_quotient, b.witness[1])
        elif chunk.rank + top.rank == dim and (
            isotropic if chunk is top else _once(_annihilates, chunk, top.gen, b.pairing)
        ):
            found = SplittingType(())
        else:
            found = None
            if chunk is not top and b.witness is not None:
                found = _once(_lifted_quotient, chunk, top, b.pairing, *b.witness)
            if found is None:
                found = _once(quotient_type, top, _once(perp, chunk, b.pairing))
        twists += found.twists
    return SplittingType(twists)


def _witness_holds(e, beta, psi, inner) -> bool:
    """True iff the E_{2a,2b} witness (psi, inner) meets the hypotheses of
    the lemma of ``_perp_over_top`` for e: beta is hyperbolic of its
    flavor on 2b = 2 * psi.ncols coordinates, e's first a = inner.ncols
    columns vanish off the e-half and its last a off the x-half, psi has
    b - a rows and is everywhere surjective (a kept profile answers), psi
    @ phi_plus = 0 and psi^T @ inner = phi_minus.  Then e is isotropic,
    and perp(e)/e is ``_witnessed_quotient(inner)``."""
    f, gen = e.field, e.gen
    b, a = psi.ncols, inner.ncols
    if (
        psi.field != f
        or inner.field != f
        or gen.src[a:] != inner.src
        or psi.src != (0,) * b
        or inner.dst != tuple(-t for t in psi.dst)
        or psi.nrows != b - a
        or beta.matrix != _once(Pairing.hyperbolic, f, b, beta.flavor).matrix
    ):
        return False
    support = gen.support()
    if any(i >= b for col in support[:a] for i, _ in col) or any(
        i < b for col in support[a:] for i, _ in col
    ):
        return False
    plus = GradedMatrix._valid(f, gen.src[:a], psi.src, tuple(row[:a] for row in gen.entries[:b]))
    minus = tuple(row[a:] for row in gen.entries[b:])
    return (
        psi.rank_everywhere() == (b - a, True)
        and (psi @ plus).is_zero()
        and (psi.transpose_dual() @ inner).entries == minus
    )


def _witnessed_quotient(inner) -> SplittingType:
    """perp(E)/E of a top chunk E whose witness (psi', inner) holds
    (``_witness_holds``): coker(inner) ∪ coker(inner)^v, by the lemma of
    ``_perp_over_top``.  inner is everywhere injective there, so the scan
    runs with its column count as the rank."""
    coker = _scan_cokernel(inner, inner.ncols)
    return SplittingType(coker.twists + coker.dual().twists)


def _annihilates(e, m: GradedMatrix, beta) -> bool:
    """True iff every generator of e pairs to zero with every column of m."""
    return (pairing_map(e, beta) @ m).is_zero()


def _lifted_quotient(e, top, beta, p, lift) -> Optional[SplittingType]:
    """perp(e)/top from a lift witness (P, L), or None if it fails.

    The witness holds when its frames fit (P maps into e's ambient, L from
    top's source into P's), P has dim - rank e columns, ``pairing_map(e)
    @ P`` is zero, P @ L = top.gen, and P is everywhere injective (its
    rank profile; P is a constant of its block, so a kept one answers).
    Then perp(e) = im P: im P lies in perp(e), which is a subbundle of
    rank dim - rank e (beta is nondegenerate), and im P is a subbundle of
    that rank, so they are equal (a subbundle inside a subsheaf of equal
    rank is all of it).  So L is the lift of top into perp(e), and
    perp(e)/top is coker(L) (``_lift_quotient_type``)."""
    f = e.field
    if (
        p.field != f
        or lift.field != f
        or p.dst != e.ambient
        or lift.dst != p.src
        or lift.src != top.gen.src
        or p.ncols != len(e.ambient) - e.rank
    ):
        return None
    if (
        not _annihilates(e, p, beta)
        or p @ lift != top.gen
        or p.rank_everywhere() != (p.ncols, True)
    ):
        return None
    return _lift_quotient_type(lift)


def certify(fam: FlagFamily) -> Certificate:
    """Certify a flag family by the rule for its flavor and length.

    The checks run in order: member ranks, isotropy of the bottom members,
    (skew) the top inside perp(low), nesting, then the types.  The first
    failure gives a refusal certificate with its note.

    The pairing stages run per block of ``orthogonal_blocks`` (the
    pairing's summands, or the whole ambient if a column crosses two),
    which proves them equal to the whole-member ones, on the members' chunks
    (equal ones once); perp/top is the union of the block quotients
    (``_perp_over_top``).  No stage runs whose answer a checked fact
    already decides.  An E_{2a,2b} block's perp witness, checked once in
    the isotropy step (``_isotropy``), proves its top chunk isotropic and
    gives its quotient from one scan of inner, run only if the rule asks
    for perp/top; the skew cubic block's lift witness gives its low
    chunk's quotient.  A block whose chunk is empty, or whose chunk pairs
    to zero with the top chunk and has the rank the top chunk leaves, has
    its quotient by shape.  Any other block's, or one whose witness
    fails, is one ``quotient_type`` of the top chunk in its perp.
    """
    members = fam.members
    rule = _RULES.get((fam.flavor, len(members)))
    if rule is None:
        raise ValueError(
            f"no certificate rule for a {fam.flavor or 'classical'} flag "
            f"of {len(members)} members"
        )
    if tuple(m.rank for m in members) != fam.shape:
        return _failed(fam, "flag member ranks do not match the expected shape")
    blocks = _blocks(fam) if rule.isotropic else ()
    facts = _isotropy(blocks, rule.isotropic)
    if facts is None:
        return _failed(fam, rule.isotropy_note, flag_valid=True)
    low, top = members[0], members[-1]
    beside_top = None
    if rule.beside_top == "perp(low)":  # the top must lie in perp(low)
        try:
            beside_top = _perp_over_top(blocks, 0, facts)
        except ValueError:
            return _failed(
                fam, "top member is not annihilated by the bottom member", isotropy_ok=True
            )
    try:
        quotients = [_flag_quotient(fam, i) for i in range(len(members) - 1)]
        if rule.beside_top == "perp(top)":
            beside_top = _perp_over_top(blocks, -1, facts)
    except ValueError as exc:
        return _failed(fam, f"flag is not nested: {exc}")
    if rule.beside_top == "ambient":
        beside_top = cokernel_type(top.gen)
    pieces, psi = rule.formula(low.type, *quotients, beside_top)
    return _finish(fam, [low.type, *quotients], pieces, psi, rule.notes)


# ---------------------------------------------------------------------------
# exactness report for the binomial pair


class SesReport(NamedTuple):
    """The four facts exactness of 0 -> O^a -> O(b-a)^b -> O(b)^(b-a) -> 0
    rests on.  ``kernel_matches``: ker psi has phi's source frame as its
    type and contains every column of phi, so ker psi = im phi; it holds by
    the degree lemma of ``verify_claim_ses`` where that applies, and is
    otherwise read from the kernel scan and one lift."""

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
    """Check exactness of the phi/psi pair: psi phi = 0, phi everywhere
    injective, psi everywhere surjective, and ker psi = im phi.

    The last is certified from phi's and psi's rank profiles alone where
    the matrices allow it.  Lemma: if psi is everywhere surjective, psi phi
    = 0, phi has generic rank phi.ncols, and phi.ncols and sum(phi.src) are
    the rank and degree of K = ker psi, then im phi = K and phi is
    everywhere injective.  Proof: K is the kernel of a surjection of
    vector bundles, so a subbundle of O(psi.src) of rank #psi.src -
    #psi.dst and degree sum(psi.src) - sum(psi.dst).  phi maps O(phi.src)
    into K, and its kernel has rank 0 inside the torsion-free O(phi.src),
    so it is 0; so im phi is isomorphic to O(phi.src), of K's rank and
    degree.  K/im phi then has rank 0, so it is torsion, and its length is
    deg K - deg im phi = 0, so im phi = K.  phi is thus an isomorphism onto
    the subbundle K, injective on the fiber at every point.

    ``injective`` and ``surjective`` are read from phi's and psi's
    profiles, and ``kernel_matches`` holds where the lemma's conditions,
    read from the matrices and not from (a, b), do.  ``build_phi_psi``
    proves psi's profile, and phi's wherever its binomial coefficients are
    nonzero in the field, so an exact report there runs no Smith form.

    Otherwise ker psi comes from the Hilbert-function scan
    (``kernel_free``) and must have phi's source frame as its type; if the
    composite is zero, every column of phi must also lift through it
    (``sub_lift``).
    """
    phi, psi = build_phi_psi(field, a, b)
    composite_zero = (psi @ phi).is_zero()
    phi_profile, psi_profile = phi.rank_everywhere(), psi.rank_everywhere()
    injective = phi_profile == (a, True)
    surjective = psi_profile == (b - a, True)
    if (
        composite_zero
        and psi_profile == (psi.nrows, True)
        and phi.ncols == psi.ncols - psi.nrows
        and sum(phi.src) == sum(psi.src) - sum(psi.dst)
        and phi_profile.generic_rank == phi.ncols
    ):
        return SesReport(a, b, composite_zero, injective, surjective, True)
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
        cert = certify(build_family(field, n, k, flavor))
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


def _sweep_group(tasks):
    return [_sweep_one(t) for t in tasks]


def run_sweep(field, n_min: int, n_max: int, flavors, jobs: int = 1):
    """Certify every case in range; rows come back in deterministic order.

    The cases of one (flavor, n // 2) are one task, so with more than one
    worker they share one worker's memo: the big block's b is fixed by
    n // 2 and the case row.  The tasks go out with the largest n, the
    slowest, first, and the rows are put back in sweep order.  The pool
    has at most one worker per task; with one, the tasks run in this
    process, in the same order, under one memo.
    """
    points = sweep_points(n_min, n_max, flavors)
    groups = {}
    for flavor, n, k in points:
        groups.setdefault((flavor, n // 2), []).append((field, flavor, n, k))
    order = sorted(groups.values(), key=lambda group: -group[-1][2])
    workers = pool_size(jobs, len(order), os.cpu_count())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, initializer=_set_memo, initargs=({},)) as pool:
            done = list(pool.map(_sweep_group, order))
    else:
        _set_memo({})
        try:
            done = list(map(_sweep_group, order))
        finally:
            _set_memo(None)
    by_point = {(row.flavor, row.n, row.k): row for rows in done for row in rows}
    return [by_point[point] for point in points]


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
