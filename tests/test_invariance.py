"""The change-of-coordinates oracle: a constant g in GL_n moves a family
and its pairing, and the certificate must not move.

For g in GL_n, each member E goes to g E, and the Gram matrix B of the
pairing to g^(-T) B g^(-1), so that g u and g v pair as u and v did:
every splitting type, every perp and every isotropy verdict is the same,
and so is the certificate.  The moved family is a member family, so it
takes the member path, and it does not keep the builder's zero pattern:
this checks the block path of every sweep family with n <= 8 from
outside.  The moved pairing goes through the checked ``Pairing``
constructor, and each moved member through the checked ``Subbundle``
constructor, a fresh Smith form.

Two moves are made: the permutation that reverses the coordinates, and
g = L U for unit triangular L and U with entries in {-1, 0, 1}, which is
invertible over every field.  As a negative control, moving the members
by g but not the pairing must fail isotropy, wherever some member that
must be isotropic has rank 2 or more.
"""

import pytest

from twistlines import linalg
from twistlines.families import build_family, is_exceptional
from twistlines.fields import QQ, PrimeField
from twistlines.forms import BinaryForm
from twistlines.frames import GradedMatrix, trivial_frame
from twistlines.sheaves import Pairing, Subbundle
from twistlines.verify import certify, sweep_points


def reversal(n):
    return [[int(i + j == n - 1) for j in range(n)] for i in range(n)]


def mixing(n):
    """L U, with L unit lower and U unit upper triangular, entries in {-1, 0, 1}."""
    low = [[(i + 2 * j) % 3 - 1 if i > j else int(i == j) for j in range(n)] for i in range(n)]
    up = [[(2 * i + j) % 3 - 1 if i < j else int(i == j) for j in range(n)] for i in range(n)]
    return product(low, up)


def product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def inverse(field, g):
    """g^(-1) over ``field``: its column j solves g x = e_j (``linalg.solve_many``)."""
    n = len(g)
    rows = [[field.of(c) for c in row] for row in g]
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    columns = linalg.solve_many(field, rows, n, units)
    return [list(row) for row in zip(*columns)]


def moved(fam, g, pairing_too=True):
    """The member family of ``fam`` moved by the constant matrix g, with its
    pairing moved too when ``pairing_too``."""
    field, frame = fam.members[-1].field, trivial_frame(fam.n)
    entries = [[BinaryForm.constant(field, field.of(c)) for c in row] for row in g]
    gmat = GradedMatrix(field, frame, frame, entries)
    members = tuple(Subbundle(gmat @ m.gen) for m in fam.members)
    beta = fam.pairing
    if beta is not None and pairing_too:
        ginv = inverse(field, g)
        gram = product(product([list(c) for c in zip(*ginv)], beta.matrix), ginv)
        beta = Pairing(beta.flavor, gram, field)
    return fam.as_members().replace(members=members, pairing=beta)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_a_change_of_coordinates_keeps_every_certificate_to_8(field):
    seen = refused = 0
    for flavor, n, k in sweep_points(2, 8, (None, "symmetric", "skew")):
        if is_exceptional(flavor, n, k):
            continue
        fam = build_family(field, n, k, flavor)
        cert = certify(fam).to_json_dict()
        for g in (reversal(fam.n), mixing(fam.n)):  # fam.n is n + 1 when rerouted
            assert certify(moved(fam, g)).to_json_dict() == cert, (flavor, n, k, g)
        # a skew k = 1 flag tests only a line, isotropic for any skew pairing
        if flavor is not None and (flavor, k) != ("skew", 1):
            bad = certify(moved(fam, mixing(fam.n), pairing_too=False))
            assert (bad.flag_valid, bad.isotropy_ok) == (True, False), (flavor, n, k)
            refused += 1
        seen += 1
    assert (seen, refused) == (36, 18)
