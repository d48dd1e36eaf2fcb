"""The switch-off oracle: every n <= 24 sweep certificate, on both fields,
equals the one ``certify`` gives with every fast path switched off.

The fast certificates are the rows of one serial ``run_sweep``, with its
memo.  The oracle builds each family again and certifies it

* with no inclusion witnesses (``inclusions=()``), so every flag quotient
  is lifted by elimination (``quotient_type``);
* with no perp witnesses (``perps=()``);
* with one block of whole members in place of ``verify._blocks``, so the
  summand split of ``sheaves.orthogonal_blocks`` is checked too; and
* with a fresh Smith form in every ``rank_everywhere``, building included,
  which must equal the profile the matrix kept, if it kept one.

The oracle pass counts what it switched off: one call of the whole-member
split per isotropic family, and at least one ``quotient_type`` per flag
quotient, so a certifier that stops reading ``verify._blocks`` or the
witnesses cannot turn it into a comparison of the fast path with itself.

A witness that does not fit its family must be refused, not read: each
family is also certified on the fast path with every inclusion witness
missing its last column, with one entry of every E(2a, 2b) witness
(psi', inner, psi'') doubled, and with one entry of every perp basis
(P, L) doubled, and each of those certificates must be the oracle's too.
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


def whole_members(fam):
    """One block: the whole ambient, its pairing and the members."""
    return [Block(tuple(range(fam.pairing.dim)), fam.pairing, fam.members)]


def counted(calls, stage):
    """``stage``, recording the arguments of each call in ``calls``."""
    return lambda *args: calls.append(args) or stage(*args)


def doubled(fam, length):
    """fam with the first nonzero entry of the first matrix of each perp
    witness of ``length`` matrices doubled, or None if it has none: psi' of
    an E(2a, 2b) triple (psi', inner, psi''), or P of a perp basis (P, L)."""
    perps = []
    for at, witness in fam.perps:
        if len(witness) == length:
            m, *rest = witness
            entries = [list(row) for row in m.entries]
            i, j = next((i, j) for i, row in enumerate(entries) for j, e in enumerate(row) if e)
            entries[i][j] += entries[i][j]
            witness = (GradedMatrix(m.field, m.src, m.dst, entries), *rest)
        perps.append((at, witness))
    return replace(fam, perps=tuple(perps)) if tuple(perps) != fam.perps else None


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_every_certificate_to_24_equals_the_switch_off_oracle(field, monkeypatch):
    # per point: the sweep's certificate, then the fast certificates of the
    # family with its refused witnesses
    fast = {}
    for row in run_sweep(field, 2, 24, FLAVORS):
        if row.status != "exceptional":
            fam = build_family(field, row.n, row.k, row.flavor)
            lost = replace(fam, inclusions=tuple(witness[:-1] for witness in fam.inclusions))
            bad = [b for b in (lost, doubled(fam, 3), doubled(fam, 2)) if b is not None]
            certs = [row.certificate, *map(certify, bad)]
            fast[row.flavor, row.n, row.k] = [cert.to_json_dict() for cert in certs]
    assert len(fast) == 360 and sum(map(len, fast.values())) == 2 * 360 + 185 + 30
    split, lifted = [], []
    monkeypatch.setattr(GradedMatrix, "rank_everywhere", fresh_profile)
    monkeypatch.setattr(verify, "_blocks", counted(split, whole_members))
    monkeypatch.setattr(verify, "quotient_type", counted(lifted, verify.quotient_type))
    for (flavor, n, k), certs in fast.items():
        fam = replace(build_family(field, n, k, flavor), inclusions=(), perps=())
        del split[:], lifted[:]
        oracle = certify(fam).to_json_dict()
        assert len(split) == (flavor is not None), (flavor, n, k)
        assert len(lifted) >= len(fam.members) - 1, (flavor, n, k)
        assert certs == [oracle] * len(certs), (flavor, n, k)
