"""The switch-off oracle: every n <= 24 sweep certificate, on both fields,
equals the one ``certify`` gives with every fast path switched off.

The fast certificates are the rows of one serial ``run_sweep``, with its
memo.  The oracle builds each family again and certifies it

* on the member path (``replace(fam, members=fam.members)``), which reads
  no witness: every flag quotient is lifted by elimination
  (``quotient_type``), and no perp witness is read;
* with one block of whole members in place of ``orthogonal_blocks``, so
  the summand split of ``sheaves.orthogonal_blocks`` is checked too; and
* with a fresh Smith form in every ``rank_everywhere``, building included,
  which must equal the profile the matrix kept, if it kept one.

The oracle pass counts what it switched off: one call of the whole-member
split per isotropic family, and at least one ``quotient_type`` per flag
quotient, so a certifier that stops reading the members there cannot turn
it into a comparison of the fast path with itself.

A witness that does not fit its family must be refused, not read: each
family is also certified on the block path with one entry of every
E(2a, 2b) witness (psi', inner, psi'') doubled, and with one entry of
every perp basis (P, L) doubled, in its block (``Part.witness``), and each
of those certificates must be the oracle's too.  None of them may split
members (``orthogonal_blocks``), so none falls back to the member path.
"""

from dataclasses import replace

import pytest

from twistlines import verify
from twistlines.families import build_family
from twistlines.fields import QQ, PrimeField
from twistlines.frames import GradedMatrix
from twistlines.sheaves import Block
from twistlines.verify import certify, run_sweep

FLAVORS = (None, "symmetric", "skew")


def fresh_profile(m):
    """``rank_everywhere`` by a fresh Smith form, checked against the kept
    profile, which it then keeps if there was none."""
    profile = m._rank_profile()
    assert m._profile in (None, profile), (m, m._profile, profile)
    m._profile = profile
    return profile


def whole_members(pairing, members):
    """One block: the whole ambient, its pairing and the members."""
    return [Block(tuple(range(pairing.dim)), pairing, tuple(members))]


def counted(calls, stage):
    """``stage``, recording the arguments of each call in ``calls``."""
    return lambda *args: calls.append(args) or stage(*args)


def doubled(fam, length):
    """fam given by its blocks with the first nonzero entry of the first
    matrix of each perp witness of ``length`` matrices doubled, or None if
    it has none: psi' of an E(2a, 2b) triple (psi', inner, psi''), or P of
    a perp basis (P, L)."""
    parts, changed = [], False
    for part in fam.blocks:
        if part.witness is not None and len(part.witness) == length:
            m, *rest = part.witness
            entries = [list(row) for row in m.entries]
            i, j = next((i, j) for i, row in enumerate(entries) for j, e in enumerate(row) if e)
            entries[i][j] += entries[i][j]
            part = part._replace(witness=(GradedMatrix(m.field, m.src, m.dst, entries), *rest))
            changed = True
        parts.append(part)
    return replace(fam, members=None, pairing=None, blocks=tuple(parts)) if changed else None


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_every_certificate_to_24_equals_the_switch_off_oracle(field, monkeypatch):
    # per point: the sweep's certificate, then the fast certificates of the
    # family with its refused witnesses
    fast, split, lifted = {}, [], []
    monkeypatch.setattr(verify, "orthogonal_blocks", counted(split, verify.orthogonal_blocks))
    for row in run_sweep(field, 2, 24, FLAVORS):
        if row.status != "exceptional":
            fam = build_family(field, row.n, row.k, row.flavor)
            bad = [b for b in (doubled(fam, 3), doubled(fam, 2)) if b is not None]
            certs = [row.certificate, *map(certify, bad)]
            fast[row.flavor, row.n, row.k] = [cert.to_json_dict() for cert in certs]
    assert len(fast) == 360 and sum(map(len, fast.values())) == 360 + 185 + 30
    assert split == []
    monkeypatch.setattr(GradedMatrix, "rank_everywhere", fresh_profile)
    monkeypatch.setattr(verify, "orthogonal_blocks", counted(split, whole_members))
    monkeypatch.setattr(verify, "quotient_type", counted(lifted, verify.quotient_type))
    for (flavor, n, k), certs in fast.items():
        fam = build_family(field, n, k, flavor)
        fam = replace(fam, members=fam.members)
        del split[:], lifted[:]
        oracle = certify(fam).to_json_dict()
        assert len(split) == (flavor is not None), (flavor, n, k)
        assert len(lifted) >= len(fam.members) - 1, (flavor, n, k)
        assert certs == [oracle] * len(certs), (flavor, n, k)
