"""Byte contract of the CLI reports, and a pin of the flag members.

The SHA-256 values are of stdout from ``twistlines sweep --n-max 16``;
rational and prime fields give identical bytes.  A change here is a schema
change and must be intended and documented.

The member pin is a SHA-256 over the generator matrices and inclusion
witnesses of every n <= 12 sweep family, so a change to a member that keeps
its splitting type (which the reports alone would not show) is caught.  The
n <= 24 pin adds each family's pairing Gram matrix.

The n <= 20 pin is of the JSON of the ``run_sweep`` rows themselves, on
both fields, and reaches the larger cases the CLI pins do not.  The
n = 21-24 pin does the same for the sizes the north-star sweep adds.

The kernel-basis pins are over every distinct (argument, generator matrix)
pair that ``kernel_free`` gives in the per-case n <= 20 sweep, with the
perp witnesses dropped so every block perp is scanned, and on the psi of
every ``verify_claim_ses`` pair with b <= 14, on each field.
``linalg``'s outputs are canonical (see its docstring), so no change to the
elimination may move them.  The scan's own checks share ``linalg`` with the code they
check; these digests were taken with the earlier dense elimination.  The
``ses --max 14`` JSON is pinned too.
"""

import hashlib
import json
import os

import pytest
from graded_strategies import witness_matrix

from twistlines import families, sheaves, verify
from twistlines.cli import main
from twistlines.families import (
    build_classical,
    build_family,
    build_isotropic,
    build_phi_psi,
    is_exceptional,
)
from twistlines.fields import QQ, PrimeField
from twistlines.frames import GradedMatrix
from twistlines.verify import run_sweep, sweep_points

SWEEP_16_SHA256 = {
    "json": "c417720e2e742a19b2c136d70a5fd433ce79218ff8d962371b7903034ddfc624",
    "text": "e4db1e97350eec2f9c58695641c2efe21b5ebd6ff1723e80b417d4caf152dc19",
}

SWEEP_20_ROWS_SHA256 = "203667230d2417ccbbb2d6922141edd0480bb7ffcda45b471dc26b94f83e3263"

SWEEP_21_24_ROWS_SHA256 = "c1b0cc08789512a9c1d3cb2cc31c05324bf13b50bb702e79f4b44f2f52a88148"

SES_14_JSON_SHA256 = "8f704229f07dd63b97a8aa8f714178bc11820f9db1f20c852e1515cc3a2a211f"

# (distinct kernel_free calls, SHA-256 of their sorted argument -> basis lines)
KERNEL_BASES = {
    ("sweep", "QQ"): (37, "0ea48bd6dc149dea7177f3d0656384552a64f2386a8757094e5953e215f7ce97"),
    ("sweep", "GF(10007)"): (
        37, "1aea7bf9cbf63fbdef7900938314bf04b4bd2d056d18f3fe36a8d8c170fdb0e4"
    ),
    ("ses", "QQ"): (105, "386fa490e71cc010df5a40b90a4002e29af93f07d36c800b94e7305e88785e22"),
    ("ses", "GF(10007)"): (
        105, "d503042f3efc3cb4271e6199879008692b3ac4cc8fcc3bba37cc8b8033c72c2f"
    ),
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

FAMILIES_24_SHA256 = {
    "QQ": "cc2a3e3e264136a0b9e17ca16e04c3fcf7723c97fc65be603c8dc9f845defb66",
    "GF(10007)": "08b6c69667a3bfe72e4791dfea3150226d456ff5c243b6e214bfb7c7bf1ba845",
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


def test_sweep_16_bytes_with_two_jobs(capsys, monkeypatch):
    # --jobs is accepted, changes no byte and starts no process
    def refuse():
        raise AssertionError("a sweep started a process")

    monkeypatch.setattr(os, "fork", refuse)
    out = stdout_of(
        capsys, "sweep", "--n-max", "16", "--format", "json", "--field", "prime:10007",
        "--jobs", "2",
    )
    assert sha256(out) == SWEEP_16_SHA256["json"]


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_sweep_20_rows_are_pinned(field):
    rows = run_sweep(field, 2, 20, (None, "symmetric", "skew"))
    assert sha256(json.dumps([row.to_json_dict() for row in rows])) == SWEEP_20_ROWS_SHA256


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_sweep_21_24_rows_are_pinned(field):
    rows = run_sweep(field, 21, 24, (None, "symmetric", "skew"))
    assert len(rows) == 111
    assert sha256(json.dumps([row.to_json_dict() for row in rows])) == SWEEP_21_24_ROWS_SHA256


def test_exceptional_check_json_bytes(capsys):
    out = stdout_of(
        capsys, "check", "--symmetric", "--n", "4", "--k", "2", "--expect-exceptional",
        "--format", "json",
    )
    assert out == EXCEPTIONAL_CHECK_JSON


def members_digest(field, n_max=12, with_pairing=False):
    """SHA-256 over case, shape, and the frames and entry coefficients of
    each member's generator matrix and each inclusion witness (the direct
    sum of its blocks' witnesses, each expanded to its matrix by
    ``witness_matrix``), and with ``with_pairing`` the flavor
    and Gram matrix of each pairing, for every non-exceptional sweep point
    with n <= n_max."""
    digest = hashlib.sha256()
    for flavor, n, k in sweep_points(2, n_max, (None, "symmetric", "skew")):
        if is_exceptional(flavor, n, k):
            continue
        if flavor is None:
            fam = build_classical(field, n, k)
        else:
            fam = build_isotropic(field, n, k, flavor)
        digest.update(repr((fam.case, fam.shape)).encode())
        if with_pairing and fam.pairing is not None:
            digest.update(repr((fam.pairing.flavor, fam.pairing.matrix)).encode())
        chunks = [families._chunks(part)[0] for part in fam.blocks]
        witnesses = [  # per level, bottom first, the direct sum of the blocks' witnesses
            GradedMatrix.direct_sum(
                field,
                *(
                    witness_matrix(field, cs[i + 1].gen.src, part.lower[-1 - i])
                    for part, cs in zip(fam.blocks, chunks)
                ),
            )
            for i in range(len(fam.members) - 1)
        ]
        for mat in [m.gen for m in fam.members] + witnesses:
            coeffs = tuple(tuple(e.coeffs for e in row) for row in mat.entries)
            digest.update(repr((mat.src, mat.dst, coeffs)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_flag_members_and_witnesses_are_pinned(field):
    assert members_digest(field) == MEMBERS_12_SHA256[str(field)]


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_flag_members_witnesses_and_pairings_are_pinned_to_24(field):
    digest = members_digest(field, n_max=24, with_pairing=True)
    assert digest == FAMILIES_24_SHA256[str(field)]


@pytest.mark.parametrize("field", ["rational", "prime:10007"])
def test_ses_14_json_bytes(capsys, field):
    out = stdout_of(capsys, "ses", "--max", "14", "--format", "json", "--field", field)
    assert sha256(out) == SES_14_JSON_SHA256


def matrix_text(m):
    coeffs = tuple(tuple(e.coeffs for e in row) for row in m.entries)
    return repr((m.src, m.dst, coeffs))


def sweep_every_case(field):
    """The per-case path, with no memo of the block stages.  Each block's
    perp witness is dropped, so the perp of every nonempty chunk that a
    rule reads takes the kernel scan, the witnesses' fallback, as every
    perp did when the pin was taken; an empty chunk's perp is its whole
    block, with no scan."""
    for flavor, n, k in sweep_points(2, 20, (None, "symmetric", "skew")):
        if not is_exceptional(flavor, n, k):
            fam = build_family(field, n, k, flavor)
            parts = tuple(part._replace(witness=None) for part in fam.blocks)
            verify.certify(fam.replace(blocks=parts))


def every_ses_report(field):
    """The kernel of psi for every pair with b <= 14: the reports certify it
    by a degree lemma and scan none, so the scan is called here directly."""
    for b in range(1, 15):
        for a in range(1, b + 1):
            sheaves.kernel_free(build_phi_psi(field, a, b)[1])


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
@pytest.mark.parametrize(
    "name, run", [("sweep", sweep_every_case), ("ses", every_ses_report)], ids=["sweep", "ses"]
)
def test_kernel_bases_are_pinned(field, name, run, monkeypatch):
    seen = set()
    real = sheaves.kernel_free

    def recording(m):
        sub = real(m)
        seen.add(f"{matrix_text(m)}->{matrix_text(sub.gen)}")
        return sub

    # verify binds kernel_free at import, and perp calls it inside sheaves
    monkeypatch.setattr(sheaves, "kernel_free", recording)
    monkeypatch.setattr(verify, "kernel_free", recording)
    run(field)
    assert (len(seen), sha256("\n".join(sorted(seen)))) == KERNEL_BASES[name, str(field)]
