"""Byte contract of the CLI reports, and a pin of the flag members.

The SHA-256 values are of stdout from ``twistlines sweep --n-max 16``;
rational and prime fields give identical bytes.  A change here is a schema
change and must be intended and documented.

The member pin is a SHA-256 over the generator matrices and inclusion
witnesses of every n <= 12 sweep family, so a change to a member that keeps
its splitting type (which the reports alone would not show) is caught.
"""

import hashlib

import pytest

from twistlines.cli import main
from twistlines.families import build_classical, build_isotropic, is_exceptional
from twistlines.fields import QQ, PrimeField
from twistlines.verify import sweep_points

SWEEP_16_SHA256 = {
    "json": "c417720e2e742a19b2c136d70a5fd433ce79218ff8d962371b7903034ddfc624",
    "text": "e4db1e97350eec2f9c58695641c2efe21b5ebd6ff1723e80b417d4caf152dc19",
}

EXCEPTIONAL_CHECK_JSON = """\
{
  "case": "exceptional",
  "n": 4,
  "k": 2,
  "flavor": "symmetric",
  "flag_quotients": [],
  "tev_pieces": [],
  "psi_degree": 0,
  "verdict": false,
  "notes": [
    "exceptional case: symmetric (4,2)"
  ]
}
"""


MEMBERS_12_SHA256 = {
    "QQ": "911ad84cff609e90c0c7cfd56f16ea002205667a5db87d98d9e7bb4eed68af91",
    "GF(10007)": "9b17ad79f19abc72a81969199899af0fee6afb08341548938b5b8ea820c83fd3",
}


def stdout_of(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    return captured.out


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("field", ["rational", "prime:10007"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_sweep_16_bytes(capsys, fmt, field):
    out = stdout_of(capsys, "sweep", "--n-max", "16", "--format", fmt, "--field", field)
    assert sha256(out) == SWEEP_16_SHA256[fmt]


def test_sweep_16_bytes_with_two_jobs(capsys):
    out = stdout_of(
        capsys, "sweep", "--n-max", "16", "--format", "json", "--field", "prime:10007",
        "--jobs", "2",
    )
    assert sha256(out) == SWEEP_16_SHA256["json"]


def test_exceptional_check_json_bytes(capsys):
    out = stdout_of(
        capsys, "check", "--symmetric", "--n", "4", "--k", "2", "--expect-exceptional",
        "--format", "json",
    )
    assert out == EXCEPTIONAL_CHECK_JSON


def members_digest(field):
    """SHA-256 over case, shape, and the frames and entry coefficients of
    each member's generator matrix and each witness, for every
    non-exceptional sweep point with n <= 12."""
    digest = hashlib.sha256()
    for flavor, n, k in sweep_points(2, 12, (None, "symmetric", "skew")):
        if is_exceptional(flavor, n, k):
            continue
        if flavor is None:
            fam = build_classical(field, n, k)
        else:
            fam = build_isotropic(field, n, k, flavor)
        digest.update(repr((fam.case, fam.shape)).encode())
        for mat in [m.gen for m in fam.members] + list(fam.inclusions):
            coeffs = tuple(tuple(e.coeffs for e in row) for row in mat.entries)
            digest.update(repr((mat.src, mat.dst, coeffs)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_flag_members_and_witnesses_are_pinned(field):
    assert members_digest(field) == MEMBERS_12_SHA256[str(field)]
