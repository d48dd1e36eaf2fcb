"""Byte contract of the CLI reports.

The SHA-256 values are of stdout from ``twistlines sweep --n-max 16``;
rational and prime fields give identical bytes.  A change here is a schema
change and must be intended and documented.
"""

import hashlib

import pytest

from twistlines.cli import main

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
