import json

import pytest

from twistlines import linalg
from twistlines.fields import QQ, PrimeField
from twistlines.families import (
    build_classical,
    build_isotropic,
    build_phi_psi,
    case_Ia,
    case_IVa,
)
from twistlines.sheaves import SplittingType
from twistlines.verify import (
    certify,
    check_classical,
    check_skew,
    check_symmetric_2k,
    check_symmetric_big,
    pool_size,
    run_sweep,
    sweep_consistent,
    sweep_points,
    verify_claim_ses,
)


def st(*twists):
    return SplittingType(tuple(twists))


def test_classical_42_verdict():
    cert = check_classical(build_classical(QQ, 4, 2))
    assert cert.very_twisting
    assert cert.flavor is None


def test_classical_k1_psi_degree():
    for n in (3, 5, 8):
        cert = check_classical(build_classical(QQ, n, 1))
        assert cert.psi_degree == n - 2
        assert cert.psi_deg_nonneg


def test_checker_rejects_wrong_shape():
    fam = build_isotropic(QQ, 6, 2, "symmetric")
    with pytest.raises(ValueError):
        check_classical(fam)
    with pytest.raises(ValueError):
        check_symmetric_2k(fam)
    with pytest.raises(ValueError):
        check_skew(fam)


def test_symmetric_big_case_Ia_pieces():
    cert = check_symmetric_big(case_Ia(QQ, 5, "symmetric"))
    assert cert.tev_pieces == (st(1), st())
    assert cert.very_twisting


def test_symmetric_n4_fails_rank_positivity():
    cert = check_symmetric_big(case_Ia(QQ, 4, "symmetric"))
    assert not cert.tev_rank_positive
    assert cert.tev_ample  # vacuously: both pieces have rank 0
    assert not cert.very_twisting


def test_symmetric_case_Ib_12_3():
    cert = certify(build_isotropic(QQ, 12, 3, "symmetric"))
    assert cert.very_twisting
    assert cert.case == "Ib"


def test_symmetric_2k_cases():
    cert = certify(build_isotropic(QQ, 8, 4, "symmetric"))
    assert cert.psi_type == st(2) and cert.psi_degree == 2
    cert = certify(build_isotropic(QQ, 6, 3, "symmetric"))
    assert cert.tev_pieces == (st(1, 1),)
    assert cert.very_twisting


def test_skew_cases():
    cert = certify(build_isotropic(QQ, 6, 3, "skew"))
    assert st(1, 1) in cert.tev_pieces
    assert cert.psi_degree == 0
    assert cert.very_twisting
    assert any("piecewise" in note for note in cert.notes)
    cert = certify(build_isotropic(QQ, 8, 4, "skew"))
    assert cert.very_twisting


def test_certificates_record_homogeneity_discharge():
    cert = certify(build_classical(QQ, 4, 2))
    assert any("smoothness" in note for note in cert.notes)


def test_ses_small_pairs():
    for (a, b) in [(1, 2), (2, 3), (3, 3)]:
        report = verify_claim_ses(QQ, a, b)
        assert report.exact, (a, b)


def test_ses_degreewise_rank_oracle():
    # independent exactness check: in every section degree the nullity of
    # the surjection piece equals the rank of the injection piece
    for (a, b) in [(1, 2), (2, 3), (2, 4)]:
        phi, psi = build_phi_psi(QQ, a, b)
        for n in range(-1, 6):
            p_phi = phi.degree_piece(n)
            p_psi = psi.degree_piece(n)
            rank_phi = linalg.rank(QQ, [list(r) for r in p_phi.matrix], p_phi.ncols)
            null_psi = len(
                linalg.nullspace(QQ, [list(r) for r in p_psi.matrix], p_psi.ncols)
            )
            assert rank_phi == null_psi, (a, b, n)
            assert rank_phi == min(p_phi.ncols, a * max(0, n + 1))


def test_sweep_to_8_matches_exceptional_list():
    rows = run_sweep(QQ, 2, 8, [None, "symmetric", "skew"])
    assert sweep_consistent(rows)
    refused = {(r.flavor, r.n, r.k) for r in rows if r.status == "exceptional"}
    assert refused == {
        (None, 2, 1),
        ("skew", 2, 1),
        ("symmetric", 2, 1),
        ("symmetric", 3, 1),
        ("symmetric", 4, 1),
        ("symmetric", 4, 2),
    }


def test_sweep_points_skip_odd_skew():
    pts = sweep_points(2, 5, ["skew"])
    assert all(n % 2 == 0 for _, n, _ in pts)


def test_sweep_parallel_matches_serial():
    serial = run_sweep(QQ, 2, 6, [None, "symmetric"])
    parallel = run_sweep(QQ, 2, 6, [None, "symmetric"], jobs=2)
    assert serial == parallel


def test_sweep_isolates_a_case_that_raises():
    # over GF(3) some constructions degenerate and their builder raises;
    # those cases become "failed" rows and the rest of the sweep completes
    rows = run_sweep(PrimeField(3), 2, 12, [None, "symmetric", "skew"])
    assert len(rows) == len(sweep_points(2, 12, [None, "symmetric", "skew"]))
    crashed = [r for r in rows if r.status == "failed" and r.certificate is None]
    assert crashed
    assert all("not everywhere injective" in r.reason for r in crashed)
    assert all(r.reason is None for r in rows if r.status != "failed")
    assert not sweep_consistent(rows)
    assert sum(r.status == "very-twisting" for r in rows) > len(rows) // 2


def test_pool_size_clamps_to_cpus_and_tasks():
    assert pool_size(1, 100, 8) == 1
    assert pool_size(4, 100, 8) == 4
    assert pool_size(16, 100, 8) == 8
    assert pool_size(16, 3, 8) == 3
    assert pool_size(4, 100, None) == 1
    assert pool_size(4, 0, 8) == 1


def test_psi_degree_matches_quotient_degrees():
    rows = run_sweep(QQ, 2, 10, [None, "symmetric", "skew"])
    for r in rows:
        c = r.certificate
        if c is None:
            continue
        if len(c.flag_quotients) == 3:
            _, q_bottom, q_top = c.flag_quotients
            assert c.psi_degree == q_top.degree - q_bottom.degree
        else:
            _, q = c.flag_quotients
            assert c.psi_degree == -q.degree  # wedge-square of the dual


def test_certificates_deterministic():
    a = certify(build_isotropic(QQ, 9, 3, "symmetric"))
    b = certify(build_isotropic(QQ, 9, 3, "symmetric"))
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_prime_backend_matches_rational_on_sample():
    gf = PrimeField(10007)
    for (n, k, flavor) in [(7, 3, None), (12, 3, "symmetric"), (8, 4, "skew")]:
        if flavor is None:
            fam_q, fam_p = build_classical(QQ, n, k), build_classical(gf, n, k)
        else:
            fam_q = build_isotropic(QQ, n, k, flavor)
            fam_p = build_isotropic(gf, n, k, flavor)
        cq, cp = certify(fam_q), certify(fam_p)
        assert cq.to_json_dict() == cp.to_json_dict()


def test_invalid_flag_shape_reports_failure():
    from twistlines.families import FlagFamily

    fam = build_isotropic(QQ, 6, 2, "symmetric")
    e1, e2, e3 = fam.members
    bad = FlagFamily(
        "IIa-sym", 6, 2, "symmetric", (e2, e1, e3), (1, 2, 3), fam.pairing
    )
    cert = check_symmetric_big(bad)
    assert not cert.flag_valid
    assert not cert.very_twisting


def test_skew_flag_with_unannihilated_top_reports_failure():
    from twistlines.families import FlagFamily
    from twistlines.forms import BinaryForm
    from twistlines.frames import GradedMatrix, trivial_frame
    from twistlines.sheaves import Subbundle

    fam = case_IVa(QQ, 2)
    _, mid, r_top = fam.members
    one = BinaryForm.constant(QQ, 1)
    zero = BinaryForm.zero(QQ, 0)
    e1_line = Subbundle(
        GradedMatrix.from_columns(QQ, trivial_frame(4), [(0, [one, zero, zero, zero])])
    )
    bad = FlagFamily("IVa", 4, 2, "skew", (e1_line, mid, r_top), (1, 2, 3), fam.pairing)
    cert = check_skew(bad)
    assert not cert.flag_valid
    assert any("not annihilated" in note for note in cert.notes)


def test_first_violation_names_the_first_false_predicate():
    from twistlines.families import FlagFamily

    assert certify(build_classical(QQ, 5, 2)).first_violation is None
    cert = check_symmetric_big(case_Ia(QQ, 4, "symmetric"))
    assert cert.first_violation == "tev_rank_positive"
    fam = build_isotropic(QQ, 6, 2, "symmetric")
    e1, e2, e3 = fam.members
    bad = FlagFamily("IIa-sym", 6, 2, "symmetric", (e2, e1, e3), (1, 2, 3), fam.pairing)
    # a failed flag clears every later predicate too; the first one is named
    assert check_symmetric_big(bad).first_violation == "flag_valid"
