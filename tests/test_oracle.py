"""The switch-off oracle: every n <= 24 sweep certificate, on both fields,
equals the one ``certify`` gives with every fast path switched off.

The fast certificates are the rows of one serial ``run_sweep``, with its
memo.  The oracle builds each family again and certifies it

* as its member family (``fam.as_members()``), which takes the member
  path: one block of the whole members with the whole pairing, which
  reads no witness, every flag quotient lifted by elimination
  (``quotient_type``) and every perp a kernel scan; and
* with a fresh Smith form in every ``rank_everywhere``, building included,
  which must equal the profile the matrix kept, if it kept one.

The oracle pass counts at least one ``quotient_type`` per flag quotient,
so a certifier that stops reading the members there cannot turn it into
a comparison of the fast path with itself.

A witness that does not fit its family must be refused, not read.  Each
family is also certified on the block path with its blocks' perp
witnesses (``Part.witness``) corrupted in one way at a time, and each of
those certificates must be the oracle's too:

* one entry of psi' doubled in every E(2a, 2b) triple (psi', inner, psi'');
* one entry of P doubled in every perp basis (P, L);
* psi'' twisted by +1 in every triple; and
* the skew cubic block's (P, L) replaced by the false claim (top,
  identity), that its top chunk is the perp of its low chunk.

A doubled entry leaves what the witness would give unchanged.  The last
two change it: a twisted psi'' would give another perp/top from its
frame, and the false claim an empty perp(low)/top, so a witness stage
that trusted them would make another certificate.
"""

import pytest

from twistlines import verify
from twistlines.families import build_family
from twistlines.fields import QQ, PrimeField
from twistlines.frames import GradedMatrix
from twistlines.verify import certify, run_sweep

FLAVORS = (None, "symmetric", "skew")


def fresh_profile(m):
    """``rank_everywhere`` by a fresh Smith form, checked against the kept
    profile, which it then keeps if there was none."""
    profile = m._rank_profile()
    assert m._profile in (None, profile), (m, m._profile, profile)
    m._profile = profile
    return profile


def counted(calls, stage):
    """``stage``, recording the arguments of each call in ``calls``."""
    return lambda *args: calls.append(args) or stage(*args)


def first_doubled(witness, top):
    """The witness with the first nonzero entry of its first matrix doubled."""
    m, *rest = witness
    entries = [list(row) for row in m.entries]
    i, j = next((i, j) for i, row in enumerate(entries) for j, e in enumerate(row) if e)
    entries[i][j] += entries[i][j]
    return (GradedMatrix(m.field, m.src, m.dst, entries), *rest)


def psi_inner_twisted(witness, top):
    """The E(2a, 2b) triple with psi'' twisted by +1."""
    psi, inner, psi_inner = witness
    return psi, inner, psi_inner.twist(1)


def claimed_lagrangian(witness, top):
    """The perp basis (top, identity): the top chunk claimed as the perp."""
    return top, GradedMatrix.identity(top.field, top.src)


# (length of the witnesses changed, the change)
CORRUPTIONS = [
    (3, first_doubled),
    (2, first_doubled),
    (3, psi_inner_twisted),
    (2, claimed_lagrangian),
]


def corrupted(fam, length, change):
    """fam given by its blocks with each perp witness w of ``length``
    matrices made change(w, the block's top), or None if none changes.
    An isotropic block's top is one builder block."""
    parts, changed = [], False
    for part in fam.blocks:
        if part.witness is not None and len(part.witness) == length:
            witness = change(part.witness, part.top[0])
            changed = changed or witness != part.witness
            part = part._replace(witness=witness)
        parts.append(part)
    return fam.replace(blocks=tuple(parts)) if changed else None


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_every_certificate_to_24_equals_the_switch_off_oracle(field, monkeypatch):
    # per point: the sweep's certificate, then the fast certificates of the
    # family with its corrupted witnesses
    fast, lifted, modes = {}, [], [0] * len(CORRUPTIONS)
    for row in run_sweep(field, 2, 24, FLAVORS):
        if row.status != "exceptional":
            fam = build_family(field, row.n, row.k, row.flavor)
            certs = [row.certificate]
            for i, corruption in enumerate(CORRUPTIONS):
                bad = corrupted(fam, *corruption)
                if bad is not None:
                    modes[i] += 1
                    certs.append(certify(bad))
            fast[row.flavor, row.n, row.k] = [cert.to_json_dict() for cert in certs]
    assert (len(fast), modes) == (360, [185, 101, 185, 30])
    monkeypatch.setattr(GradedMatrix, "rank_everywhere", fresh_profile)
    monkeypatch.setattr(verify, "quotient_type", counted(lifted, verify.quotient_type))
    for (flavor, n, k), certs in fast.items():
        fam = build_family(field, n, k, flavor).as_members()
        del lifted[:]
        oracle = certify(fam).to_json_dict()
        assert len(lifted) >= len(fam.members) - 1, (flavor, n, k)
        assert certs == [oracle] * len(certs), (flavor, n, k)
