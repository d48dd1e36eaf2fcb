import json

import pytest

from twistlines.cli import main
from twistlines.fields import QQ


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_classical_json(capsys):
    code, out, _ = run(
        capsys, "check", "--classical", "--n", "7", "--k", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["flavor"] == "classical"
    assert set(payload) == {
        "case",
        "n",
        "k",
        "flavor",
        "flag_quotients",
        "tev_pieces",
        "psi_degree",
        "verdict",
        "notes",
    }
    assert payload["n"] == 7 and payload["k"] == 3
    assert all(isinstance(t, list) for t in payload["tev_pieces"])


def test_check_exceptional_with_expectation(capsys):
    code, out, _ = run(
        capsys, "check", "--symmetric", "--n", "4", "--k", "2", "--expect-exceptional"
    )
    assert code == 0
    assert "exceptional" in out


def test_check_exceptional_json_is_schema_stable(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--symmetric",
        "--n",
        "4",
        "--k",
        "2",
        "--expect-exceptional",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "case",
        "n",
        "k",
        "flavor",
        "flag_quotients",
        "tev_pieces",
        "psi_degree",
        "verdict",
        "notes",
    }
    assert payload["verdict"] is False


def test_check_exceptional_without_expectation_fails(capsys):
    code, _, err = run(capsys, "check", "--symmetric", "--n", "4", "--k", "2")
    assert code == 1
    assert "exceptional" in err


def test_expect_exceptional_on_regular_case_fails(capsys):
    code, _, err = run(
        capsys, "check", "--classical", "--n", "4", "--k", "2", "--expect-exceptional"
    )
    assert code == 1


def test_check_skew(capsys):
    code, out, _ = run(capsys, "check", "--skew", "--n", "6", "--k", "3")
    assert code == 0
    assert "very twisting" in out


def test_check_requires_flavor(capsys):
    code, _, err = run(capsys, "check", "--n", "6", "--k", "3")
    assert code == 2
    assert "usage error" in err


def test_check_rejects_bad_prime(capsys):
    code, _, err = run(
        capsys, "check", "--classical", "--n", "6", "--k", "2", "--field", "prime:9"
    )
    assert code == 2
    code, _, err = run(
        capsys, "check", "--classical", "--n", "16", "--k", "2", "--field", "prime:3"
    )
    assert code == 2
    assert "binomial" in err


def test_check_prime_backend(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--symmetric",
        "--n",
        "9",
        "--k",
        "3",
        "--field",
        "prime:10007",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_text_and_json_reports_agree(capsys):
    code, text_out, _ = run(capsys, "check", "--symmetric", "--n", "12", "--k", "3")
    assert code == 0
    code, json_out, _ = run(
        capsys, "check", "--symmetric", "--n", "12", "--k", "3", "--format", "json"
    )
    payload = json.loads(json_out)
    assert f"psi degree: {payload['psi_degree']}" in text_out
    assert str(payload["tev_pieces"]) in text_out.replace("tangent piece types: ", "")


def test_sweep_classical(capsys):
    code, out, _ = run(
        capsys, "sweep", "--classical", "--n-max", "8", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is True
    statuses = {(r["n"], r["k"]): r["status"] for r in payload["rows"]}
    assert statuses[(2, 1)] == "exceptional"
    assert all(
        s == "very-twisting" for key, s in statuses.items() if key != (2, 1)
    )


def test_sweep_all_flavors_text(capsys):
    code, out, _ = run(capsys, "sweep", "--n-max", "6")
    assert code == 0
    assert "consistent=yes" in out


def test_sweep_range_validation(capsys):
    code, _, err = run(capsys, "sweep", "--n-max", "30")
    assert code == 2


def test_sweep_rejects_nonpositive_jobs(capsys):
    for jobs in ("0", "-3"):
        code, _, err = run(capsys, "sweep", "--n-max", "4", "--jobs", jobs)
        assert code == 2
        assert "--jobs" in err


def test_sweep_failed_case_row_carries_reason(capsys, monkeypatch):
    from twistlines import verify

    real_certify = verify.certify

    def certify(fam):
        if fam.n == 5 and fam.k == 2:
            raise ValueError("injected failure")
        return real_certify(fam)

    monkeypatch.setattr(verify, "certify", certify)
    code, out, _ = run(capsys, "sweep", "--classical", "--n-max", "5", "--format", "json")
    assert code == 1
    rows = json.loads(out)["rows"]
    bad = [r for r in rows if "reason" in r]
    assert [(r["n"], r["k"], r["status"]) for r in bad] == [(5, 2, "failed")]
    assert bad[0]["reason"] == "ValueError: injected failure"
    code, text, _ = run(capsys, "sweep", "--classical", "--n-max", "5")
    assert "reason: ValueError: injected failure" in text


def test_ses_single_and_range(capsys):
    code, out, _ = run(capsys, "ses", "--a", "2", "--b", "3")
    assert code == 0
    assert "exact=True" in out
    code, out, _ = run(capsys, "ses", "--max", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_exact"] is True
    assert len(payload["pairs"]) == 10


def test_ses_usage(capsys):
    code, _, _ = run(capsys, "ses")
    assert code == 2
    code, _, _ = run(capsys, "ses", "--a", "3", "--b", "2")
    assert code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ("--a", "5", "--max", "2"),
        ("--b", "3", "--max", "2"),
        ("--a", "2", "--b", "3", "--max", "1"),
        ("--a", "2"),
        ("--b", "3"),
    ],
)
def test_ses_takes_a_pair_or_a_bound_not_both(capsys, flags):
    code, out, err = run(capsys, "ses", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ses needs either --a and --b, or --max B")


def test_orbit_commands(capsys):
    for (n, k) in [(5, 2), (6, 2)]:
        code, out, _ = run(capsys, "orbit", "--n", str(n), "--k", str(k))
        assert code == 0
        assert "matches direct construction: True" in out
        assert "(sum 0)" in out


def test_orbit_exceptional_is_usage_error(capsys):
    code, _, err = run(capsys, "orbit", "--n", "2", "--k", "1")
    assert code == 2


def test_negative_dimension_is_usage_error(capsys):
    # the field's binomial bound must not run before the builder refuses n
    for argv in (
        ("check", "--classical", "--n", "-4", "--k", "1"),
        ("orbit", "--n", "-3", "--k", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: need n >= 2")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "check",
        "--classical",
        "--n",
        "5",
        "--k",
        "2",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["verdict"] is True


def test_unwritable_out_file_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    for argv in (
        ("check", "--classical", "--n", "6", "--k", "2"),
        ("check", "--symmetric", "--n", "4", "--k", "2", "--expect-exceptional"),
        ("ses", "--a", "1", "--b", "2"),
    ):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: cannot write --out")
        assert str(target) in err
    assert not target.parent.exists()


def test_check_usage_error_on_bad_parameters(capsys):
    code, _, err = run(capsys, "check", "--classical", "--n", "5", "--k", "3")
    assert code == 2
    assert "usage error" in err


def test_sweep_text_rows_carry_quotient_and_tangent_types(capsys):
    code, text_out, _ = run(capsys, "sweep", "--classical", "--n-max", "5")
    assert code == 0
    code, json_out, _ = run(
        capsys, "sweep", "--classical", "--n-max", "5", "--format", "json"
    )
    payload = json.loads(json_out)
    for row in payload["rows"]:
        if row["status"] != "very-twisting":
            continue
        assert f"quots={row['flag_quotients']}" in text_out
        assert f"tev={row['tev_pieces']}" in text_out
        assert f"psi={row['psi_degree']}" in text_out


def test_check_flavor_flags_are_mutually_exclusive(capsys):
    pairs = (("--classical", "--skew"), ("--symmetric", "--skew"), ("--classical", "--symmetric"))
    for flags in pairs:
        with pytest.raises(SystemExit) as exc:
            main(["check", *flags, "--n", "6", "--k", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with" in captured.err


def test_ses_rejects_nonpositive_max(capsys):
    for bound in ("0", "-3"):
        code, out, err = run(capsys, "ses", "--max", bound)
        assert code == 2
        assert out == ""
        assert "--max" in err


def test_failed_check_names_the_first_violated_predicate(capsys, monkeypatch):
    from twistlines import cli
    from twistlines.families import case_Ia
    from twistlines.verify import certify

    # the n = 4 case Ia certificate has both tangent pieces of rank 0
    cert = certify(case_Ia(QQ, 4, "symmetric"))
    monkeypatch.setattr(cli, "certify", lambda fam: cert)
    code, out, err = run(capsys, "check", "--symmetric", "--n", "6", "--k", "2")
    assert code == 1
    assert "verdict: NOT very twisting" in out
    assert out.rstrip().endswith("first violated predicate: tev_rank_positive")
    assert err == "verification failed: tev_rank_positive\n"
