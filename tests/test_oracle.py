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

A witness that names another member must be refused, not read: each
family is also certified on the fast path with every inclusion witness
missing its last column, and that certificate must be the oracle's too.
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


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_every_certificate_to_24_equals_the_switch_off_oracle(field, monkeypatch):
    fast, stale = {}, {}
    for row in run_sweep(field, 2, 24, FLAVORS):
        if row.status != "exceptional":
            point = (row.flavor, row.n, row.k)
            fast[point] = row.certificate.to_json_dict()
            fam = build_family(field, row.n, row.k, row.flavor)
            lost = tuple(witness[:-1] for witness in fam.inclusions)
            stale[point] = certify(replace(fam, inclusions=lost)).to_json_dict()
    assert len(fast) == 360
    monkeypatch.setattr(GradedMatrix, "rank_everywhere", fresh_profile)
    monkeypatch.setattr(verify, "_blocks", whole_members)
    for (flavor, n, k), cert in fast.items():
        fam = build_family(field, n, k, flavor)
        oracle = certify(replace(fam, inclusions=(), perps=())).to_json_dict()
        assert cert == oracle == stale[flavor, n, k], (flavor, n, k)
