import copy
import json
import pickle

import pytest
from graded_strategies import witness_matrix

from twistlines import families, linalg, sheaves, verify
from twistlines.fields import QQ, PrimeField, RationalField
from twistlines.families import (
    FlagFamily,
    build_classical,
    build_classical_orbit,
    build_family,
    build_isotropic,
    build_phi_psi,
    case_Ia,
    is_exceptional,
)
from twistlines.forms import BinaryForm
from twistlines.frames import GradedMatrix, trivial_frame
from twistlines.sheaves import (
    Block,
    Pairing,
    SplittingType,
    Subbundle,
    kernel_free,
    sub_lift,
)
from twistlines.verify import (
    Certificate,
    SesReport,
    certify,
    run_sweep,
    sweep_consistent,
    sweep_points,
    verify_claim_ses,
)


def st(*twists):
    return SplittingType(tuple(twists))


def first_arguments(monkeypatch, module, name):
    """The first argument of every call of ``module.name`` from now on."""
    calls, stage = [], getattr(module, name)

    def recording(first, *rest):
        calls.append(first)
        return stage(first, *rest)

    monkeypatch.setattr(module, name, recording)
    return calls


def test_classical_42_verdict():
    cert = certify(build_classical(QQ, 4, 2))
    assert cert.very_twisting
    assert cert.flavor is None


def test_classical_k1_psi_degree():
    for n in (3, 5, 8):
        cert = certify(build_classical(QQ, n, 1))
        assert cert.psi_degree == n - 2
        assert cert.psi_deg_nonneg


def test_checker_rejects_wrong_shape():
    # a (flavor, length) pair with no certificate rule raises
    sym = build_isotropic(QQ, 6, 2, "symmetric")
    classical = build_classical(QQ, 6, 2)
    skew = build_isotropic(QQ, 4, 2, "skew")
    for fam in (
        classical.as_members().replace(members=classical.members[:2], shape=(1, 2)),
        skew.as_members().replace(members=skew.members[:2], shape=(1, 2)),
        sym.as_members().replace(members=sym.members + sym.members[-1:], shape=(1, 2, 3, 3)),
        sym.replace(flavor="hermitian"),
    ):
        with pytest.raises(ValueError, match="no certificate rule"):
            certify(fam)


def test_symmetric_big_case_Ia_pieces():
    cert = certify(case_Ia(QQ, 5, "symmetric"))
    assert cert.tev_pieces == (st(1), st())
    assert cert.very_twisting


def test_symmetric_n4_fails_rank_positivity():
    cert = certify(case_Ia(QQ, 4, "symmetric"))
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


# ---------------------------------------------------------------------------
# the exact-pair lemma (verify._exact_pair) of verify_claim_ses, against
# the kernel scan

SES_PAIRS = [(a, b) for b in range(1, 15) for a in range(1, b + 1)]


def scan_ses_report(a, b, phi, psi):
    """The report by the kernel scan of psi and one lift of phi through it."""
    composite_zero = (psi @ phi).is_zero()
    ker = sheaves.kernel_free(psi)
    kernel_matches = ker.type == SplittingType(phi.src)
    if kernel_matches and composite_zero:
        try:
            sub_lift(Subbundle(phi), ker)
        except ValueError:
            kernel_matches = False
    injective = phi.rank_everywhere() == (a, True)
    surjective = psi.rank_everywhere() == (b - a, True)
    return SesReport(a, b, composite_zero, injective, surjective, kernel_matches)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_ses_reports_equal_the_kernel_scan_oracle(field):
    for a, b in SES_PAIRS:
        oracle = scan_ses_report(a, b, *build_phi_psi(field, a, b))
        assert verify_claim_ses(field, a, b) == oracle, (a, b)
        assert oracle.exact, (a, b)


class NoScan(Exception):
    pass


def no_scan(*args):
    raise NoScan


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_exact_ses_reports_need_no_kernel_scan(field, monkeypatch):
    monkeypatch.setattr(verify, "kernel_free", no_scan)
    monkeypatch.setattr(verify, "sub_lift", no_scan)
    assert all(verify_claim_ses(field, a, b).exact for a, b in SES_PAIRS)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_exact_ses_reports_run_no_smith_form(field, monkeypatch):
    # psi keeps its rank profile from build_phi_psi's lemma, and phi's
    # generic rank is read at [1:0]
    profiled = []
    original = GradedMatrix._rank_profile

    def counted(m):
        profiled.append(m)
        return original(m)

    monkeypatch.setattr(GradedMatrix, "_rank_profile", counted)
    for a, b in SES_PAIRS:
        profiled.clear()
        assert verify_claim_ses(field, a, b).exact, (a, b)
        assert profiled == [], (a, b)


def with_entries(m, change):
    """m with each entry (i, j) replaced by change(i, j, entry), in m's
    frames except that a column's twist follows its new entries' degree."""
    columns = []
    for j in range(m.ncols):
        forms = [change(i, j, e) for i, e in enumerate(m.column(j)[1])]
        columns.append((m.dst[0] - forms[0].degree, forms))
    return GradedMatrix.from_columns(m.field, m.dst, columns)


def first_column_times_t0(phi, psi):
    # phi vanishes at T0 = 0 on the first column: not everywhere injective
    t0 = BinaryForm.monomial(phi.field, 1, 0)
    return with_entries(phi, lambda i, j, e: e * t0 if j == 0 else e), psi


def zero_first_row(phi, psi):
    # psi drops rank everywhere: its kernel is one larger than phi's image
    def change(i, j, e):
        return BinaryForm.zero(e.field, e.degree) if i == 0 else e

    return phi, with_entries(psi, change)


def nonzero_composite(phi, psi):
    # phi's entry (0, 0) plus T1^(b-a): psi @ phi gains psi's first column
    # times T1^(b-a), which is nonzero
    def change(i, j, e):
        return e + BinaryForm.monomial(e.field, e.degree, e.degree) if i == j == 0 else e

    return with_entries(phi, change), psi


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
@pytest.mark.parametrize("corrupt", [first_column_times_t0, zero_first_row, nonzero_composite])
def test_corrupted_ses_pairs_take_the_kernel_scan(field, corrupt, monkeypatch):
    # a pair that misses one condition of the degree lemma gets
    # the report of the scan path, and the scan really runs
    pairs = {}

    def corrupted(f, a, b):
        pairs[a, b] = corrupt(*build_phi_psi(f, a, b))
        return pairs[a, b]

    scans = []

    def counted(m):
        scans.append(m)
        return sheaves.kernel_free(m)

    monkeypatch.setattr(verify, "build_phi_psi", corrupted)
    monkeypatch.setattr(verify, "kernel_free", counted)
    for a, b in [(1, 2), (2, 3), (1, 4), (2, 5), (3, 6), (4, 9)]:
        report = verify_claim_ses(field, a, b)
        assert report == scan_ses_report(a, b, *pairs[a, b]), (a, b)
        assert not report.exact, (a, b)
        assert scans and scans[-1] is pairs[a, b][1], (a, b)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_phi_times_t0_fails_only_the_degree_condition(field):
    # every other condition of the lemma holds, so only the degree sends the
    # pair to the fallback, which reports phi as not everywhere injective
    for a, b in [(1, 2), (2, 3), (1, 4), (2, 5), (3, 6), (4, 9)]:
        phi, psi = first_column_times_t0(*build_phi_psi(field, a, b))
        assert (psi @ phi).is_zero()
        assert psi.rank_everywhere() == (psi.nrows, True)
        assert phi.ncols == psi.ncols - psi.nrows
        assert sum(phi.src) == sum(psi.src) - sum(psi.dst) - 1
        assert phi.rank_everywhere() == (phi.ncols, False)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007), PrimeField(5)], ids=str)
def test_an_exact_pair_reads_coker_phi_from_psi_frame(field):
    # over GF(5) some phi keeps no profile and its Smith form answers.  A
    # pair that passes has coker(phi) = O(psi.dst), as the cokernel scan
    # of phi reads it, and ker psi = im phi, as the kernel scan finds it
    kept = set()
    for a, b in SES_PAIRS:
        phi, psi = build_phi_psi(field, a, b)
        kept.add(phi._profile is not None)
        found = verify._exact_pair(phi, psi)
        assert (found is not None) == verify_claim_ses(field, a, b).exact, (a, b)
        if found is not None:
            assert found == sheaves.cokernel_type(phi) == SplittingType(psi.dst), (a, b)
            assert kernel_free(psi).type == SplittingType(phi.src), (a, b)
    assert kept == ({True, False} if field == PrimeField(5) else {True})


def test_an_exact_pair_refuses_a_wrong_pair():
    phi, psi = build_phi_psi(QQ, 2, 5)
    gf_phi, gf_psi = build_phi_psi(PrimeField(10007), 2, 5)
    wrong = [
        (phi, with_entry(psi, 0, 0, psi.entries[0][0] + psi.entries[0][0])),
        (build_phi_psi(QQ, 1, 5)[0], psi),
        (build_phi_psi(QQ, 3, 5)[0], psi),
        (gf_phi, psi),
        (phi, gf_psi),
        (phi.twist(1), psi),
        (phi, psi.twist(-1)),
    ]
    for pair in wrong:
        assert verify._exact_pair(*pair) is None
    assert verify._exact_pair(phi, psi) == st(5, 5, 5)


def drop_perp_witnesses(monkeypatch):
    """Build every family with no perp witnesses, so the blocks that have
    one in a sweep (E(2a, 2b), skew cubic) go through perp."""
    real_family = families.BlockFamily

    def family(*args):
        *head, parts = args
        return real_family(*head, tuple(part._replace(witness=None) for part in parts))

    monkeypatch.setattr(families, "BlockFamily", family)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_every_pairing_map_perp_scans_keeps_its_smith_form_profile(field, monkeypatch):
    # every pairing map perp scans in the n <= 24 sweep with the witnesses
    # dropped keeps the profile pairing_map proves, and a fresh Smith form
    # of its entries agrees
    scanned = []

    def collect(m):
        scanned.append(m)
        return kernel_free(m)

    monkeypatch.setattr(sheaves, "kernel_free", collect)
    drop_perp_witnesses(monkeypatch)
    assert sweep_consistent(run_sweep(field, 2, 24, [None, "symmetric", "skew"]))
    assert scanned
    for m in scanned:
        fresh = GradedMatrix(m.field, m.src, m.dst, m.entries)
        assert fresh._profile is None
        assert m._profile == fresh.rank_everywhere() == (m.nrows, True)


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


# ---------------------------------------------------------------------------
# the per-sweep memo of the block stages


SWEEP_FLAVORS = (None, "symmetric", "skew")


def test_no_memo_outlives_a_sweep(monkeypatch):
    run_sweep(PrimeField(3), 2, 8, SWEEP_FLAVORS)  # some of its cases raise
    assert families._memo is None

    class Stop(BaseException):
        pass

    seen = []

    def stop(fam):
        seen.append(dict(families._memo))
        raise Stop

    monkeypatch.setattr(verify, "certify", stop)
    with pytest.raises(Stop):
        run_sweep(QQ, 4, 4, [None])
    # inside the sweep the memo holds the family's blocks, line, curve, unit
    assert [set(memo) for memo in seen] == [{(families._monomials, QQ, d) for d in (1, 2, 0)}]
    assert families._memo is None
    # outside a sweep every build makes its blocks again and keeps none
    built = []
    original = families._e2a2b

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(families, "_e2a2b", counted)
    first, second = (build_isotropic(QQ, 12, 3, "skew") for _ in range(2))
    assert len(built) == 2 and built[0] == built[1]
    assert first.members[-1].gen is not second.members[-1].gen
    assert families._memo is None


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_a_block_build_that_raises_is_built_again(monkeypatch, error):
    plain = run_sweep(QQ, 2, 12, ["skew"])
    original = families._block
    calls = []

    def fails_once(*key):
        calls.append(key)
        if len(calls) == 1:
            raise error("build failed")
        return original(*key)

    monkeypatch.setattr(families, "_block", fails_once)
    rows = run_sweep(QQ, 2, 12, ["skew"])
    changed = [row for row, want in zip(rows, plain) if row != want]
    assert len(changed) == 1 and changed[0].reason == f"{error.__name__}: build failed"
    assert calls.count(calls[0]) == 2  # the key comes back and is built again
    assert len(calls) == len(set(calls)) + 1


def test_a_serial_sweep_builds_each_block_once(monkeypatch):
    # each distinct (field, flavor, a, b, d) big block and each distinct
    # (field, flavor, dim) filler pairing is built once, and the only
    # Smith forms are those of the distinct blocks
    blocks, builds, fillers, smith = [], [], [], []
    original_block, original_e2a2b = families._block, families._e2a2b
    original_filler, original_profile = families._filler_pairing, GradedMatrix._rank_profile

    def block(*key):
        blocks.append(key)
        return original_block(*key)

    def e2a2b(*args):
        builds.append(args)
        return original_e2a2b(*args)

    def filler(*key):
        fillers.append(key)
        return original_filler(*key)

    def profile(m):
        smith.append(m)
        return original_profile(m)

    monkeypatch.setattr(families, "_block", block)
    monkeypatch.setattr(families, "_e2a2b", e2a2b)
    monkeypatch.setattr(families, "_filler_pairing", filler)
    monkeypatch.setattr(GradedMatrix, "_rank_profile", profile)
    assert sweep_consistent(run_sweep(QQ, 2, 24, SWEEP_FLAVORS))
    assert len(blocks) == len(set(blocks))
    assert len(builds) == sum(key[0] is e2a2b for key in blocks) == 51
    assert len(fillers) == len(set(fillers)) == 30
    assert len(smith) <= 100


def test_lower_needs_no_form_comparison_for_shared_entries(monkeypatch):
    # _lower copies a selected column's entries from the member above, as
    # _flag did, so the witness check compares identical objects; a rebuilt
    # copy is compared form by form
    fam = build_classical(QQ, 9, 3)
    inner, outer = fam.members[1].gen, fam.members[2].gen
    rows = tuple(range(inner.ncols))  # mid is the top but its last column, the unit
    rebuilt = [[BinaryForm(QQ, e.degree, e.coeffs) for e in row] for row in inner.entries]
    copy = GradedMatrix(QQ, inner.src, inner.dst, rebuilt)
    assert families._lower(outer, rows)[0] == copy
    # a repeated index is refused though its columns compare equal
    assert families._lower(outer, (rows[0], rows[0])) is None
    quotients = verify._built(fam)[2]

    def refuse(self, other):
        raise AssertionError("BinaryForm.__eq__ called")

    monkeypatch.setattr(BinaryForm, "__eq__", refuse)
    assert families._lower(outer, rows)[0] == inner
    assert verify._built(fam)[2] == quotients


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_a_stage_that_raises_is_computed_again(monkeypatch, error):
    # the perp basis check, the block stage of the skew sweep that reads
    # perp(low)/top of the skew cubic and R3 blocks' low chunks
    plain = run_sweep(QQ, 2, 10, ["skew"])
    original = verify._lifted_quotient
    calls = []

    def fails_once(e, top, beta, basis):
        calls.append((e.gen, top.gen, beta, basis))
        if len(calls) == 1:
            raise error("stage failed")
        return original(e, top, beta, basis)

    monkeypatch.setattr(verify, "_lifted_quotient", fails_once)
    rows = run_sweep(QQ, 2, 10, ["skew"])
    assert sum(row != want for row, want in zip(rows, plain)) == 1
    assert calls.count(calls[0]) == 2  # the key comes back and is computed again
    assert len(calls) == len(set(calls)) + 1


def test_a_sweep_scans_each_distinct_perp_once(monkeypatch):
    perps, kernels = [], []
    original_perp, original_kernel = verify.perp, sheaves.kernel_free

    def perp(e, beta):
        perps.append((e.gen, beta))
        return original_perp(e, beta)

    def kernel_free(m):
        kernels.append(m)
        return original_kernel(m)

    monkeypatch.setattr(verify, "perp", perp)
    monkeypatch.setattr(sheaves, "kernel_free", kernel_free)
    drop_perp_witnesses(monkeypatch)  # else no block asks for a perp
    run_sweep(QQ, 2, 20, SWEEP_FLAVORS)
    assert len(perps) == len(set(perps))
    # the perp of an empty chunk is its whole block and scans nothing
    assert len(kernels) == sum(gen.ncols > 0 for gen, _ in perps) > 0


def test_a_sweep_computes_each_distinct_block_quotient_once(monkeypatch):
    # the quotients of top chunks by their perps; a flag quotient with an
    # empty inner member also calls quotient_type, outside the memo
    quotients, in_perp_over_top = [], []
    original_quotient, original_perp_over_top = verify.quotient_type, verify._perp_over_top

    def perp_over_top(*args):
        in_perp_over_top.append(True)
        try:
            return original_perp_over_top(*args)
        finally:
            in_perp_over_top.pop()

    def quotient_type(inner, outer):
        if in_perp_over_top:
            quotients.append((inner.gen, outer.gen))
        return original_quotient(inner, outer)

    monkeypatch.setattr(verify, "_perp_over_top", perp_over_top)
    monkeypatch.setattr(verify, "quotient_type", quotient_type)
    drop_perp_witnesses(monkeypatch)  # else no block asks for a quotient
    run_sweep(QQ, 2, 20, SWEEP_FLAVORS)
    assert len(quotients) == len(set(quotients)) > 0


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


def test_sweep_and_ses_make_no_per_scalar_field_calls(monkeypatch):
    # the package computes on native scalars: a sweep and the exactness
    # reports give the same results with add/sub/mul/neg raising
    flavors = (None, "symmetric", "skew")
    gf = PrimeField(10007)
    plain = {field: run_sweep(field, 2, 12, flavors) for field in (QQ, gf)}
    pairs = [(a, b) for b in range(1, 7) for a in range(1, b + 1)]
    ses = [verify_claim_ses(field, a, b) for field in (QQ, gf) for a, b in pairs]

    def refuse(name):
        def method(*args):
            raise AssertionError(f"per-scalar field.{name} called")

        return method

    for cls in (RationalField, PrimeField):
        for name in ("add", "sub", "mul", "neg"):
            monkeypatch.setattr(cls, name, refuse(name))
    for field in (QQ, gf):
        assert run_sweep(field, 2, 12, flavors) == plain[field]
    assert [verify_claim_ses(field, a, b) for field in (QQ, gf) for a, b in pairs] == ses
    assert all(report.exact for report in ses)


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


CERTIFICATE_FIELDS = (
    "case",
    "n",
    "k",
    "flavor",
    "flag_quotients",
    "tev_pieces",
    "psi_type",
    "psi_degree",
    "flag_valid",
    "isotropy_ok",
    "tev_ample",
    "tev_rank_positive",
    "psi_deg_nonneg",
    "notes",
)


def test_certificate_equality_sees_every_field():
    # built from these names alone, so a field missing from them raises
    cert = certify(build_isotropic(QQ, 10, 3, "skew"))
    values = {name: getattr(cert, name) for name in CERTIFICATE_FIELDS}
    for same in (Certificate(**values), Certificate(*values.values())):
        assert same == cert and hash(same) == hash(cert) and same is not cert
    for name in CERTIFICATE_FIELDS:
        changed = Certificate(**{**values, name: "changed"})
        assert changed != cert and cert != changed, name


def test_families_compare_by_identity():
    first, second = build_isotropic(QQ, 10, 3, "skew"), build_isotropic(QQ, 10, 3, "skew")
    members = first.as_members()
    assert first == first and first != second and members != first.as_members()
    assert len({first, second, members, copy.copy(members), copy.copy(first)}) == 5


def test_no_field_of_a_value_or_a_family_can_be_assigned():
    datum, orbit = build_classical_orbit(QQ, 5, 2)
    block = build_isotropic(QQ, 8, 3, "skew")
    for record in (st(2, 1), block.pairing, orbit, block, datum, certify(block)):
        before = dict(vars(record))
        names = [name for name in before if not name.startswith("_")]
        assert names, record
        for name in names + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for name in names:
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert vars(record) == before, record


def round_trips(value):
    """A pickled copy, a shallow copy and a deep copy of ``value``."""
    return pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)


def family_contents(fam):
    """A family's header fields, with its blocks or its members' generators."""
    header = (fam.case, fam.n, fam.k, fam.flavor, fam.shape, fam.notes, fam.requested)
    if isinstance(fam, FlagFamily):
        return header + (tuple(m.gen for m in fam.members), fam.pairing)
    return header + (fam.blocks,)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=str)
def test_values_and_families_survive_pickle_and_copy(field):
    # a value comes back equal, with an equal hash; a family, compared by
    # identity, comes back a new family with equal contents and certificate
    datum, orbit = build_classical_orbit(field, 7, 3)
    cases = ((9, 4, None), (10, 3, "symmetric"), (10, 4, "skew"), (9, 4, "symmetric"))
    fams = [orbit] + [build_family(field, *case) for case in cases]
    assert fams[-1].requested == (9, 4)
    refusal = Certificate.refusal("IIIa", 4, 2, "symmetric", ["exceptional"])
    values = (st(1, 3), fams[2].pairing, certify(fams[3]), refusal, datum)
    for value in values:
        for copied in round_trips(value):
            assert type(copied) is type(value), value
            assert copied == value and hash(copied) == hash(value), value
    for fam in fams:
        cert = certify(fam)
        for copied in round_trips(fam):
            assert copied is not fam and type(copied) is type(fam)
            assert family_contents(copied) == family_contents(fam), fam.case
            assert certify(copied) == cert, fam.case


def constant_span(n, *vectors):
    """The trivial subbundle of O^n spanned by constant vectors over QQ."""
    cols = [(0, [BinaryForm.constant(QQ, c) for c in v]) for v in vectors]
    return Subbundle(GradedMatrix.from_columns(QQ, trivial_frame(n), cols))


def unit(n, i):
    return tuple(int(j == i) for j in range(n))


def with_member(fam, i, member):
    members = list(fam.members)
    members[i] = member
    return fam.as_members().replace(members=tuple(members))


def predicates(cert):
    return (
        cert.flag_valid,
        cert.isotropy_ok,
        cert.tev_ample,
        cert.tev_rank_positive,
        cert.psi_deg_nonneg,
    )


def assert_refused(cert, note, flags=(False, False, False, False, False)):
    assert cert.notes[-1] == note
    assert predicates(cert) == flags
    assert cert.flag_quotients == () and cert.tev_pieces == ()
    assert cert.psi_type is None and cert.psi_degree == 0
    assert not cert.very_twisting


def test_invalid_flag_shape_reports_failure():
    # rows ranked out of order, one family per certificate rule
    note = "flag member ranks do not match the expected shape"
    for fam in (
        build_classical(QQ, 6, 2),
        build_isotropic(QQ, 6, 2, "symmetric"),
        build_isotropic(QQ, 4, 2, "skew"),
    ):
        e1, e2, e3 = fam.members
        assert_refused(certify(fam.as_members().replace(members=(e2, e1, e3))), note)
    sym_2k = build_isotropic(QQ, 8, 4, "symmetric")
    assert_refused(certify(with_member(sym_2k, 0, constant_span(8, unit(8, 6)))), note)


def test_non_isotropic_member_reports_failure():
    # in the hyperbolic symmetric pairings coordinate i pairs with i + n/2
    # (n = 6) and 4 pairs with 6 (n = 8); in the IVa skew pairing 0 pairs with 2
    iso_fails = (True, False, False, False, False)
    sym = build_isotropic(QQ, 6, 2, "symmetric")
    bad = with_member(sym, 0, constant_span(6, (1, 0, 0, 1, 0, 0)))
    assert_refused(certify(bad), "a flag member is not isotropic", iso_fails)
    sym_2k = build_isotropic(QQ, 8, 4, "symmetric")
    bad = with_member(sym_2k, 0, constant_span(8, unit(8, 4), unit(8, 6)))
    assert_refused(certify(bad), "a flag member is not isotropic", iso_fails)
    skew = build_isotropic(QQ, 4, 2, "skew")
    bad = with_member(skew, 1, constant_span(4, unit(4, 0), unit(4, 2)))
    assert_refused(certify(bad), "a flag member below the top is not isotropic", iso_fails)


def test_skew_flag_with_unannihilated_top_reports_failure():
    # the line e1 pairs with e3, which the top member reaches
    bad = with_member(build_isotropic(QQ, 4, 2, "skew"), 0, constant_span(4, unit(4, 0)))
    assert_refused(
        certify(bad),
        "top member is not annihilated by the bottom member",
        (False, True, False, False, False),
    )


def test_flag_not_nested_reports_failure_for_every_rule():
    # each bottom (or skew middle) member is replaced by constant isotropic
    # vectors that the next member up does not contain
    note = "flag is not nested: E1 not contained in E2"
    classical = build_classical(QQ, 6, 2)
    sym = build_isotropic(QQ, 6, 2, "symmetric")
    sym_2k = build_isotropic(QQ, 8, 4, "symmetric")
    skew = build_isotropic(QQ, 4, 2, "skew")
    for bad in (
        with_member(classical, 0, constant_span(6, unit(6, 5))),
        with_member(sym, 0, constant_span(6, unit(6, 5))),
        with_member(sym_2k, 0, constant_span(8, unit(8, 6), unit(8, 7))),
        with_member(skew, 1, constant_span(4, unit(4, 0), unit(4, 1))),
    ):
        assert_refused(certify(bad), note)


def test_first_violation_names_the_first_false_predicate():
    assert certify(build_classical(QQ, 5, 2)).first_violation is None
    cert = certify(case_Ia(QQ, 4, "symmetric"))
    assert cert.first_violation == "tev_rank_positive"
    fam = build_isotropic(QQ, 6, 2, "symmetric")
    e1, e2, e3 = fam.members
    bad = FlagFamily("IIa-sym", 6, 2, "symmetric", (e2, e1, e3), (1, 2, 3), fam.pairing)
    # a failed flag clears every later predicate too; the first one is named
    assert certify(bad).first_violation == "flag_valid"


# ---------------------------------------------------------------------------
# inclusion witnesses

FIELDS = (QQ, PrimeField(10007))
ALL_FLAVORS = [None, "symmetric", "skew"]


def sweep_families(field, n_max):
    """The built family of every non-exceptional sweep point up to n_max."""
    for flavor, n, k in sweep_points(2, n_max, ALL_FLAVORS):
        if is_exceptional(flavor, n, k):
            continue
        if flavor is None:
            yield build_classical(field, n, k)
        else:
            yield build_isotropic(field, n, k, flavor)


def test_orbit_family_carries_no_witnesses():
    _, orbit = build_classical_orbit(QQ, 7, 3)
    assert type(orbit) is FlagFamily and not hasattr(orbit, "blocks")
    assert certify(orbit).very_twisting


def index_corruptions(rows, outer):
    """Wrong copies of the selection witness ``rows`` into ``outer``: an
    out-of-range index, -1 for the last one, one index missing, the
    indices as a list, and with two or more indices a repeated one and
    two swapped whose columns differ."""
    last = len(rows) - 1
    bad = [(*rows[:last], outer.ncols), (*rows[:last], -1), rows[:last], list(rows)]
    if last:
        bad.append((*rows[:last], rows[0]))
        j = next(j for j in range(1, len(rows)) if outer.column(rows[j]) != outer.column(rows[0]))
        swapped = list(rows)
        swapped[0], swapped[j] = rows[j], rows[0]
        bad.append(tuple(swapped))
    return bad


def combination_corruptions(witness, outer):
    """Wrong copies of a witness with a combination entry ((r1, s1), (r2,
    s2)), s1 a power of T0 and s2 of degree 1: a changed coefficient, the
    second entry T0 too (the column then vanishes at [0:1]), a row
    repeated, one-row and three-row combinations, a row out of range, and
    the entry as a dict.  All but the first are no witness."""
    j = next(j for j, entry in enumerate(witness) if not isinstance(entry, int))
    (r1, s1), (r2, s2) = witness[j]
    entries = [
        ((r1, s1), (r2, (*s2[:2], 2))),
        ((r1, s1), (r2, (s2[0], 0))),
        ((r1, s1), (r1, s2)),
        ((r1, s1),),
        ((r1, s1), (r2, s2), (r2, s2)),
        ((r1, s1), (outer.ncols, s2)),
        {r1: s1, r2: s2},
    ]
    bad = [(*witness[:j], entry, *witness[j + 1 :]) for entry in entries]
    assert all(families._lower(outer, w) is None for w in bad[1:])
    return bad


def read_or_refused(bad):
    """True if certify reads the family ``bad`` given by its blocks as the
    member path certifies the members they give; False if a witness is
    refused, so that it has no members and certify raises."""
    try:
        members = bad.members
    except ValueError:
        with pytest.raises(ValueError):
            certify(bad)
        return False
    assert certify(bad) == certify(bad.as_members()), bad.case
    return True


def test_wrong_witness_is_never_trusted():
    # a corrupted block witness is refused by _lower, or read as the
    # family it gives; a selection's -1 for its last index, the last
    # column of the chunk above, must not pass
    cases = [  # classical-II, Ib, IIb, IIIa, IIIb, IVa, IVb, skew Ib and IIa
        (None, 7, 3),
        ("symmetric", 12, 3),
        ("symmetric", 14, 4),
        ("symmetric", 12, 6),
        ("symmetric", 10, 5),
        ("skew", 8, 4),
        ("skew", 10, 5),
        ("skew", 10, 3),
        ("skew", 8, 2),
    ]
    stale = build_classical(QQ, 9, 4).blocks[-2].lower[-1]  # frames of another family
    aliased = combined = read = refused = 0
    for flavor, n, k in cases:
        fam = build_family(QQ, n, k, flavor)
        for b, part in enumerate(fam.blocks):
            chunks = families._chunks(part)[0]
            for j, lift in enumerate(part.lower):  # from the top down
                if not lift:
                    continue
                outer, corrupted = chunks[-1 - j].gen, [stale, "not a witness"]
                if all(isinstance(entry, int) for entry in lift):
                    corrupted += index_corruptions(lift, outer)
                    aliased += lift[-1] == outer.ncols - 1
                else:
                    combined += 1
                    corrupted += combination_corruptions(lift, outer)
                for bad in corrupted:
                    lower = (*part.lower[:j], bad, *part.lower[j + 1 :])
                    found = read_or_refused(with_part(fam, b, lower=lower))
                    read, refused = read + found, refused + (not found)
    assert aliased and combined == 2 and read and refused


def test_witnesses_leave_only_the_perp_lifts_to_elimination(monkeypatch):
    # over the n <= 16 sweep on QQ, every solve under certify lifts a member
    # into a perp; the member inclusions are all settled by their witnesses
    perp_gens, lifting_into_perp, solves = [], [], []
    real_perp, real_lift, real_solve = verify.perp, sheaves._lift, linalg.solve_many

    def kept_perp(e, beta):
        result = real_perp(e, beta)
        perp_gens.append(result.gen)
        return result

    def lift(phi, target):
        lifting_into_perp.append(any(phi is gen for gen in perp_gens))
        try:
            return real_lift(phi, target)
        finally:
            lifting_into_perp.pop()

    def solve_many(*args, **kwargs):
        solves.append((rule, lifting_into_perp[-1]))
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(verify, "perp", kept_perp)
    monkeypatch.setattr(sheaves, "_lift", lift)
    monkeypatch.setattr(linalg, "solve_many", solve_many)
    for fam in sweep_families(QQ, 16):
        rule = (fam.flavor, len(fam.members))
        certify(fam)
    # the E(2a, 2b) and skew cubic blocks read perp/top from their
    # witnesses and lift nothing (166 solves without the E(2a, 2b)
    # witnesses, 93 with them, 32 before the skew cubic witness and the R3
    # block's shape rule); neither does an empty chunk, nor a block whose
    # witness is its top chunk with the identity: the symmetric cubic
    # block's Lagrangian top chunk and the R3 block's low chunk
    assert len(solves) == 0
    assert all(into_perp for _, into_perp in solves)
    assert not [r for r, _ in solves if r in ((None, 3), ("symmetric", 2))]


# ---------------------------------------------------------------------------
# witnesses read by families._lower, and the members built without a
# re-check


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
def test_lower_witnesses_give_the_elimination_quotient(field, monkeypatch):
    # each witness, a selection or one with a combination, is checked by
    # _lower and its quotient read from frames; elimination must find the
    # same quotient, and _built must not fall back to it
    fallbacks = []
    real_quotient_type = sheaves.quotient_type

    def quotient_type(inner, outer):
        fallbacks.append((inner, outer))
        return real_quotient_type(inner, outer)

    monkeypatch.setattr(verify, "quotient_type", quotient_type)
    witnesses = 0
    for fam in sweep_families(field, 16):
        quotients = verify._built(fam)[2]
        for i, inner in enumerate(fam.members[:-1]):
            witnesses += 1
            assert quotients[i] == real_quotient_type(inner, fam.members[i + 1])
    assert witnesses > 100
    assert fallbacks == []


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
def test_flag_quotients_to_24_run_no_cokernel_scan(field, monkeypatch):
    # every witness quotient is read from frames, the two-row combinations
    # of classical II and case IVa included
    scans = first_arguments(monkeypatch, sheaves, "_scan_cokernel")
    quotients = 0
    for fam in sweep_families(field, 24):
        quotients += len(verify._built(fam)[2])
    assert (quotients, len(scans)) == (700, 0)


def with_part(fam, i, **fields):
    """fam given by its blocks with block i's ``fields`` replaced."""
    parts = list(fam.blocks)
    parts[i] = parts[i]._replace(**fields)
    return fam.replace(blocks=tuple(parts))


def with_witnesses(fam, change):
    """fam given by its blocks with each perp witness w made change(w)."""
    parts = [p if p.witness is None else p._replace(witness=change(p.witness)) for p in fam.blocks]
    return fam.replace(blocks=tuple(parts))


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
def test_a_family_given_by_its_blocks_is_its_member_path(field, monkeypatch):
    # every builder family with n <= 12 is a block family, read by its
    # blocks with no elimination, and neither certify nor repr assembles a
    # member; a replace of a header field keeps it a block family, and a
    # replace of its members or pairing is refused; its members, assembled
    # on first read, are the n-row direct sums of the blocks' chunks, each
    # the builder's top cut down by the witness matrices; its member family
    # (as_members) takes the member path, which lifts each member into the
    # next, to the same certificate, also with a header field replaced
    lifted, real = [], verify.quotient_type
    monkeypatch.setattr(verify, "quotient_type", lambda *args: lifted.append(args) or real(*args))
    made, members = [], families.BlockFamily.members
    real_members = members.func
    monkeypatch.setattr(members, "func", lambda fam: made.append(fam) or real_members(fam))
    families_seen = 0
    for fam in sweep_families(field, 12):
        families_seen += 1
        cert = certify(fam)
        repr(fam)
        changes = [
            {"notes": fam.notes + ("moved",)},
            {"requested": (fam.n + 1, fam.k)},
            {"shape": tuple(fam.shape)},
            {"case": fam.case + "*"},
        ]
        moved = [certify(fam.replace(**change)) for change in changes]
        assert lifted == made == [], (fam.case, fam.n, fam.k)
        for name in ("members", "pairing"):
            with pytest.raises(TypeError):
                fam.replace(**{name: getattr(fam, name)})
        given = fam.as_members()
        for change, moved_cert in zip(changes, moved):
            assert certify(given.replace(**change)) == moved_cert, (fam.case, fam.n, fam.k, change)
        del lifted[:]
        per_block = []
        for part in fam.blocks:
            chunks = [GradedMatrix.direct_sum(field, *part.top)]
            for witness in part.lower:
                chunks.insert(0, chunks[0] @ witness_matrix(field, chunks[0].src, witness))
            per_block.append(chunks)
            # equal chunks of a block are one object, so certify tests it once
            read = families._chunks(part)[0]
            assert all((e is o) == (e.gen == o.gen) for e in read for o in read), fam.case
        assembled = [GradedMatrix.direct_sum(field, *chunks) for chunks in zip(*per_block)]
        assert [m.gen for m in fam.members] == assembled, (fam.case, fam.n, fam.k)
        assert certify(fam) == cert and not lifted and made == [fam]
        assert certify(given) == cert, (fam.case, fam.n, fam.k)
        ids = [id(m) for m in fam.members]
        flag = [(id(a), id(b)) for a, b in lifted if id(a) in ids and id(b) in ids]
        assert flag == list(zip(ids, ids[1:])), (fam.case, fam.n, fam.k)
        del lifted[:], made[:]
    assert families_seen == 87


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
def test_a_corrupted_block_is_refused_or_read_as_the_family_it_gives(field):
    # in the first block of classical-II, Ib, IVa and IIa-skew: a witness
    # _lower refuses, a top block with a zero column, or (beside other
    # blocks) a missing witness gives no members, and certify raises as
    # reading them does; a bottom witness that _lower takes but drops every
    # column gives another family, certified as the member path certifies
    # it; a doubled entry in any block's perp witness is refused, and the
    # certificate is the one with no witness
    for flavor, n, k in [(None, 9, 3), ("symmetric", 12, 3), ("skew", 8, 4), ("skew", 6, 2)]:
        fam = build_family(field, n, k, flavor)
        part = fam.blocks[0]
        above = len(part.lower[-2]) if len(part.lower) > 1 else part.top[0].ncols
        top = part.top[0]
        zero = (top.src[0], [BinaryForm.zero(field, b - top.src[0]) for b in top.dst])
        others = [top.column(j) for j in range(1, top.ncols)]
        zeroed = GradedMatrix.from_columns(field, top.dst, [zero, *others])
        ragged = [with_part(fam, 0, lower=part.lower[:-1])] if len(fam.blocks) > 1 else []
        for bad in (
            with_part(fam, 0, lower=(*part.lower[:-1], (above,))),
            with_part(fam, 0, top=(zeroed,)),
            *ragged,
        ):
            with pytest.raises(ValueError):
                bad.members
            with pytest.raises(ValueError):
                certify(bad)
        emptied = with_part(fam, 0, lower=(*part.lower[:-1], ()))
        shape = (fam.shape[0] - len(part.lower[-1]), *fam.shape[1:])
        emptied = emptied.replace(shape=shape)
        assert certify(emptied) == certify(emptied.as_members()), (n, k)
        plain = certify(fam)
        for i, part in enumerate(fam.blocks):
            if part.witness is not None:
                m, *rest = part.witness
                r, c = next((r, c) for r, row in enumerate(m.entries) for c, e in enumerate(row) if e)
                doubled = (with_entry(m, r, c, m.entries[r][c] + m.entries[r][c]), *rest)
                assert certify(with_part(fam, i, witness=doubled)) == plain, (flavor, n, k, i)
                assert certify(with_part(fam, i, witness=None)) == plain, (flavor, n, k, i)


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
def test_members_built_without_a_check_are_everywhere_injective(field, monkeypatch):
    unchecked = []

    class Recording(Subbundle):
        def __init__(self, gen, check=True):
            if not check:
                unchecked.append(gen)
            super().__init__(gen, check)

    monkeypatch.setattr(families, "Subbundle", Recording)
    for fam in sweep_families(field, 16):
        fam.members  # assembled from the blocks on first read
    assert len(unchecked) > 100
    for gen in unchecked:
        assert gen.rank_everywhere() == (gen.ncols, True)


# ---------------------------------------------------------------------------
# the pairing stages run block by block; the whole-member calls they
# replaced are the oracle


def whole_member_certify(fam):
    """``certify`` with isotropy, perp, the lift into perp(low) and the
    quotient perp(top)/top run on the whole members."""
    members = fam.members
    rule = verify._RULES[(fam.flavor, len(members))]
    if tuple(m.rank for m in members) != fam.shape:
        return verify._failed(fam, "flag member ranks do not match the expected shape")
    if not all(sheaves.is_isotropic(m, fam.pairing) for m in members[: rule.isotropic]):
        return verify._failed(fam, rule.isotropy_note, flag_valid=True)
    low, top = members[0], members[-1]
    if rule.beside_top == "perp(low)":
        try:
            rest_lift = sub_lift(top, sheaves.perp(low, fam.pairing))
        except ValueError:
            return verify._failed(
                fam, "top member is not annihilated by the bottom member", isotropy_ok=True
            )
    beside_top = None
    try:
        quotients = [sheaves.quotient_type(*members[i : i + 2]) for i in range(len(members) - 1)]
        if rule.beside_top == "perp(top)":
            beside_top = sheaves.quotient_type(top, sheaves.perp(top, fam.pairing))
        elif rule.beside_top == "perp(low)":
            beside_top = sheaves._lift_quotient_type(rest_lift)
    except ValueError as exc:
        return verify._failed(fam, f"flag is not nested: {exc}")
    if rule.beside_top == "ambient":
        beside_top = sheaves.cokernel_type(top.gen)
    pieces, psi = rule.formula(low.type, *quotients, beside_top)
    return verify._finish(fam, [low.type, *quotients], pieces, psi, rule.notes)


T0 = BinaryForm.monomial(QQ, 1, 0)
T1 = BinaryForm.monomial(QQ, 1, 1)
ZERO1 = BinaryForm.zero(QQ, 1)


def hyperbolic_planes(flavor, *extra):
    """Hyperbolic planes on coordinates (0, 1) and (2, 3), then ``extra``."""
    plane = Pairing.hyperbolic(QQ, 1, flavor)
    return Pairing.orthogonal_sum(plane, plane, *extra)


def test_a_column_across_two_gram_blocks_merges_them():
    # mid is T0 e0 + T1 e1, with e0, e1 in two hyperbolic planes, beside
    # the identity filler on coordinates 4 and 5; the member path reads it
    # as one block of whole members
    pairing = hyperbolic_planes("symmetric", Pairing.diagonal_ones(QQ, 2))
    low = Subbundle.zero(QQ, trivial_frame(6))
    mid_col = (-1, [T0, ZERO1, T1] + [ZERO1] * 3)
    mid = Subbundle(GradedMatrix.from_columns(QQ, trivial_frame(6), [mid_col]))
    top = constant_span(6, unit(6, 0), unit(6, 2))
    fam = FlagFamily("hand", 6, 1, "symmetric", (low, mid, top), (0, 1, 2), pairing)
    cert = certify(fam)
    assert cert == whole_member_certify(fam)
    assert cert.flag_quotients == (st(), st(-1), st(1))
    # perp(top)/top = {0, 0}, beside the top quotient {1}
    assert cert.tev_pieces[0] == st(-1, -1)


def test_a_block_with_no_member_column_contributes_the_whole_block():
    # skew planes on (0, 1), (2, 3), (4, 5) and (6, 7), and only the
    # last holds no column
    plane = Pairing.hyperbolic(QQ, 1, "skew")
    pairing = hyperbolic_planes("skew", plane, plane)
    col = (-1, [ZERO1] * 4 + [T0, T1, ZERO1, ZERO1])
    e0, e2 = ((0, [BinaryForm.constant(QQ, c) for c in unit(8, j)]) for j in (0, 2))
    members = [
        GradedMatrix.from_columns(QQ, trivial_frame(8), cols)
        for cols in ([e0], [e0, col], [e0, col, e2])
    ]
    fam = FlagFamily("hand", 8, 2, "skew", tuple(map(Subbundle, members)), (1, 2, 3), pairing)
    cert = certify(fam)
    assert cert == whole_member_certify(fam)
    # perp(low)/top: {} on (0, 1), {0} on (2, 3), {1} on (4, 5), {0, 0} on (6, 7)
    quotients = cert.flag_quotients
    assert cert.tev_pieces[0] == quotients[2].dual().tensor(st(1, 0, 0, 0))


def test_a_chunk_that_is_not_isotropic_in_one_block_only():
    # mid's e0 is isotropic in its plane; e1 + x1 pairs with itself
    pairing = hyperbolic_planes("symmetric", Pairing.diagonal_ones(QQ, 2))
    low = constant_span(6, unit(6, 0))
    mid = constant_span(6, unit(6, 0), (0, 0, 1, 1, 0, 0))
    top = constant_span(6, unit(6, 0), (0, 0, 1, 1, 0, 0), unit(6, 4))
    fam = FlagFamily("hand", 6, 2, "symmetric", (low, mid, top), (1, 2, 3), pairing)
    cert = certify(fam)
    assert cert == whole_member_certify(fam)
    assert_refused(cert, "a flag member is not isotropic", (True, False, False, False, False))


def test_no_pairing_map_is_wider_than_its_block(monkeypatch):
    # case IIb at n = 20, k = 8 is the cubic block (6 coordinates) plus a
    # hyperbolic block of 14: every perp scans a map from one block.  The
    # perp witnesses are dropped, so both blocks are scanned
    scans = first_arguments(monkeypatch, sheaves, "kernel_free")
    fam = build_isotropic(QQ, 20, 8, "symmetric")
    assert certify(with_witnesses(fam, lambda w: None)).very_twisting
    assert scans and max(m.ncols for m in scans) == 14


# ---------------------------------------------------------------------------
# perp witnesses of the E(2a, 2b) blocks; perp and quotient_type are the
# oracle and the fallback


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
def test_a_malformed_perp_witness_is_refused(field):
    # on the small E(1,2) block and the big (a, b) = (1, 4) block of
    # symmetric (12, 3), and on the skew cubic block of (6, 2): anything but
    # a tuple of matrices of the stage's length is no witness, and certify
    # falls back as with none
    malformed = [
        lambda w: "junk",
        lambda w: (),
        lambda w: (None,),
        lambda w: (None, None),
        lambda w: (None, None, None),
        list,
        lambda w: w[:-1],
        lambda w: (*w, w[-1]),
    ]
    for fam in (build_isotropic(field, 12, 3, "symmetric"), build_isotropic(field, 6, 2, "skew")):
        plain = certify(with_witnesses(fam, lambda w: None))
        assert plain.very_twisting and plain == certify(fam)
        for change in malformed:
            assert certify(with_witnesses(fam, change)) == plain, (fam.case, change)


def with_big_witness(fam, i, m):
    """fam with matrix i of the big block's perp witness (psi', inner,
    psi'') replaced by m; the big block is block 1, after the small one."""
    witness = fam.blocks[1].witness
    return with_part(fam, 1, witness=(*witness[:i], m, *witness[i + 1 :]))


def with_entry_doubled(fam, i):
    """fam with entry (0, 0) of the big block's witness matrix i doubled,
    or None if that matrix has no entries."""
    m = fam.blocks[1].witness[i]
    if not m.entries or not m.entries[0]:
        return None
    return with_big_witness(fam, i, with_entry(m, 0, 0, m.entries[0][0] + m.entries[0][0]))


def of_another_block(fam, i):
    """fam with the big block's witness matrix i taken from E(2a, 2b'),
    b' = b + 1."""
    psi, inner, _ = fam.blocks[1].witness
    a, c = inner.ncols, inner.nrows
    other = families._e2a2b(psi.field, fam.flavor, a, a + c + 1)[2][i]
    return with_big_witness(fam, i, other)


def doubled_psi_entry(fam):
    return with_entry_doubled(fam, 0)


def inner_of_another_block(fam):
    return of_another_block(fam, 1)


def doubled_psi_inner_entry(fam):
    # psi'' has no rows when the block is Lagrangian, b = 2a
    return with_entry_doubled(fam, 2)


def psi_inner_of_another_block(fam):
    return of_another_block(fam, 2)


# the corruptions of an E(2a, 2b) witness that the tests below refuse
BIG_WITNESS_CORRUPTIONS = [
    doubled_psi_entry,
    inner_of_another_block,
    doubled_psi_inner_entry,
    psi_inner_of_another_block,
]


def flipped_gram(fam, pairs):
    """fam given by its blocks with the sign of <e_i, x_i> and <x_i, e_i>
    flipped in the big block's summand for i in ``pairs``, which the
    checked constructor finds a valid pairing of its flavor."""
    big = fam.blocks[1]
    rows = [list(row) for row in big.pairing.matrix]
    for i in pairs:
        e, x = i, big.witness[0].ncols + i
        rows[e][x], rows[x][e] = -rows[e][x], -rows[x][e]
    return with_part(fam, 1, pairing=Pairing(fam.flavor, rows, big.top[0].field))


def gram_negated(fam):
    # the big block's Gram matrix times -1: the chunk is still isotropic
    # with the same perp, but the block is not hyperbolic
    return flipped_gram(fam, range(fam.blocks[1].witness[0].ncols))


def low_chunk_not_the_top_chunk(fam):
    # skew: perp(low)/top with one big-block column left out of low, so the
    # big block's low chunk is not its top chunk
    if fam.flavor != "skew":
        return None
    mid, low = fam.blocks[1].lower
    bad = with_part(fam, 1, lower=(mid, low[:-1]))
    return bad.replace(shape=(fam.shape[0] - 1, *fam.shape[1:]))


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
@pytest.mark.parametrize(
    "corrupt", [*BIG_WITNESS_CORRUPTIONS, gram_negated, low_chunk_not_the_top_chunk]
)
def test_a_refused_perp_witness_falls_back_to_the_kernel_scan(field, corrupt, monkeypatch):
    scans = first_arguments(monkeypatch, sheaves, "kernel_free")
    # Ib with a big block (a, b) = (3, 8), IIb with (1, 4), Ib with (1, 3),
    # on both flavors: each b > 2a, so the block is not Lagrangian and its
    # perp/top is not decided by its shape
    cases = [("symmetric", 20, 7), ("skew", 14, 4), ("symmetric", 10, 3), ("skew", 10, 3)]
    for flavor, n, k in cases:
        fam = build_isotropic(field, n, k, flavor)
        bad = corrupt(fam)
        if bad is None:
            continue
        plain = certify(with_witnesses(bad, lambda w: None))
        del scans[:]
        assert certify(bad) == plain, (flavor, n, k)
        # the big block is scanned: the small E(1,2) block's witness holds
        psi = fam.blocks[1].witness[0]
        assert [m.ncols for m in scans].count(2 * psi.ncols) == 1, (flavor, n, k)
        if corrupt is not low_chunk_not_the_top_chunk:
            assert plain == certify(fam) and plain.very_twisting, (flavor, n, k)


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
def test_a_perp_witness_needs_the_hyperbolic_gram_matrix(field):
    # one sign flipped makes the chunk not isotropic, and the oracle raises;
    # the witness is refused, so certify's fallback raises the same
    fam = build_isotropic(field, 20, 7, "symmetric")
    for bad in (flipped_gram(fam, [0]), flipped_gram(fam, [3])):
        b = verify._built(bad)[0][1]
        assert b.witness is fam.blocks[1].witness
        assert verify._witnessed_quotient(b.chunks[-1], b.pairing, b.witness) is None
        assert verify._isotropy([b], 3) is None
        with pytest.raises(ValueError, match="not contained"):
            verify._perp_over_top([b], -1, [None])
        plain = certify(with_witnesses(bad, lambda w: None))
        assert certify(bad) == plain and not plain.isotropy_ok


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
def test_a_serial_sweep_scans_no_hyperbolic_block(field, monkeypatch):
    # 55 kernel scans before the perp witnesses, and 3 with them; the
    # symmetric cubic and R3 blocks have their top chunk with the identity
    # as their witness, and the skew cubic block a lift witness, so none
    # is left
    scans = first_arguments(monkeypatch, sheaves, "kernel_free")
    assert sweep_consistent(run_sweep(field, 2, 24, SWEEP_FLAVORS))
    assert scans == []


# ---------------------------------------------------------------------------
# the two witness stages, each given an input that exactly one of their
# checks refuses


def e2a2b_block(field, flavor, a=2, b=5):
    """The top chunk, pairing and witness of an E(2a, 2b) block, b > 2a."""
    beta, gen, witness = families._e2a2b(field, flavor, a, b)
    return gen, beta, witness


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
@pytest.mark.parametrize("flavor", ["symmetric", "skew"])
def test_a_witnessed_quotient_refuses_a_changed_minus_half(field, flavor):
    # the minus half's first entry off zero doubled: its support stays in
    # the x-half and both exact pairs still hold, but psi'^T inner differs
    gen, beta, witness = e2a2b_block(field, flavor)
    assert verify._witnessed_quotient(Subbundle(gen), beta, witness) == st(0, 0)
    a, b = witness[1].ncols, witness[0].ncols
    i = next(i for i in range(b, 2 * b) if gen.entries[i][a])
    bad = with_entry(gen, i, a, gen.entries[i][a] + gen.entries[i][a])
    assert verify._witnessed_quotient(Subbundle(bad, check=False), beta, witness) is None


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
@pytest.mark.parametrize("flavor", ["symmetric", "skew"])
def test_a_witnessed_quotient_refuses_a_plus_half_off_its_exact_pair(field, flavor):
    # the plus half's first entry off zero doubled: psi' no longer kills
    # it; the minus half and the support are unchanged
    gen, beta, witness = e2a2b_block(field, flavor)
    i = next(i for i in range(witness[0].ncols) if gen.entries[i][0])
    bad = with_entry(gen, i, 0, gen.entries[i][0] + gen.entries[i][0])
    assert verify._witnessed_quotient(Subbundle(bad, check=False), beta, witness) is None


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
@pytest.mark.parametrize("flavor", ["symmetric", "skew"])
def test_a_witnessed_quotient_refuses_an_entry_in_the_wrong_half(field, flavor):
    # a plus column given an entry in the x-half, which neither the plus
    # half (its e-half rows) nor the minus half (the minus columns) holds
    gen, beta, witness = e2a2b_block(field, flavor)
    b = witness[0].ncols
    assert gen.entries[b][0].is_zero()
    bad = with_entry(gen, b, 0, BinaryForm.monomial(field, gen.entries[b][0].degree, 0))
    assert verify._witnessed_quotient(Subbundle(bad, check=False), beta, witness) is None


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
def test_a_lifted_quotient_refuses_a_lift_onto_another_top(field):
    # the skew cubic block's (P, L) against its top with f1 and f2 swapped:
    # (P, pairing_map(g)) is still an exact pair, but P @ L is not the top
    beta, gen, basis = families._cubic_block(field, "skew")
    low = Subbundle(GradedMatrix.from_columns(field, gen.dst, [gen.column(0)]))
    assert verify._lifted_quotient(low, Subbundle(gen), beta, basis) == st(1, 1)
    swapped = GradedMatrix.from_columns(field, gen.dst, [gen.column(j) for j in (0, 2, 1)])
    assert verify._lifted_quotient(low, Subbundle(swapped), beta, basis) is None


# ---------------------------------------------------------------------------
# blocks whose perp/top a checked fact decides: an empty chunk, a
# witnessed E(2a, 2b) top chunk and a perp basis, the top chunk itself
# or the skew cubic block's lift witness; perp and quotient_type are the
# oracle


def with_cubic_witness(fam, p, lift):
    """fam with the skew cubic block's lift witness replaced by (P, L)."""
    return with_part(fam, 0, witness=(p, lift))


def with_entry(m, i, j, form):
    entries = [list(row) for row in m.entries]
    entries[i][j] = form
    return GradedMatrix(m.field, m.src, m.dst, entries)


def p_column_doubled(fam):
    p, lift = fam.blocks[0].witness
    return with_cubic_witness(fam, with_entry(p, 0, 0, p.entries[0][0] + p.entries[0][0]), lift)


def p_pairing_with_g(fam):
    # x0 in place of e0: <g, x0> = -T0^2, which the first product check,
    # pairing_map(g) @ P = 0, refuses
    p, lift = fam.blocks[0].witness
    one, zero = p.entries[0][0], p.entries[3][0]
    return with_cubic_witness(fam, with_entry(with_entry(p, 0, 0, zero), 3, 0, one), lift)


def l_entry_doubled(fam):
    p, lift = fam.blocks[0].witness
    doubled = lift.entries[4][1] + lift.entries[4][1]
    return with_cubic_witness(fam, p, with_entry(lift, 4, 1, doubled))


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
@pytest.mark.parametrize("corrupt", [p_column_doubled, p_pairing_with_g, l_entry_doubled])
def test_a_refused_lift_witness_falls_back_to_the_kernel_scan(field, corrupt, monkeypatch):
    scans = first_arguments(monkeypatch, sheaves, "kernel_free")
    for n, k in [(6, 2), (14, 4), (20, 8)]:
        fam = build_isotropic(field, n, k, "skew")
        assert fam.case in ("IIa-skew", "IIb") and len(fam.blocks[0].witness) == 2
        bad = corrupt(fam)
        b = verify._built(bad)[0][0]
        assert verify._lifted_quotient(b.chunks[0], b.chunks[-1], b.pairing, b.witness) is None
        plain = certify(fam)
        assert plain.very_twisting and not scans
        assert certify(bad) == plain == certify(with_part(fam, 0, witness=None)), (n, k)
        # the cubic block's low chunk, and only it, is scanned
        assert [(m.nrows, m.ncols) for m in scans] == [(1, 6)] * 2, (n, k)
        del scans[:]


def top_column_replaced(fam, j, column):
    """fam given by its blocks with column j of the first block's top replaced."""
    top = fam.blocks[0].top[0]
    cols = [column if i == j else top.column(i) for i in range(top.ncols)]
    return with_part(fam, 0, top=(GradedMatrix.from_columns(top.field, top.dst, cols),))


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
def test_a_top_not_orthogonal_to_the_low_chunk_is_refused_as_the_oracle_refuses(field):
    # the skew cubic block with f2 = T1 x1 + T0 x2, <g, f2> = T0 T1^2, and
    # the R3 block with col_a = e1 + x1, <e1, col_a> = 2 T0 T1: each top
    # chunk is everywhere injective and holds the mid chunk, but does not
    # lie in perp(low); the block's witness refuses, and so does the top
    # chunk itself with the identity
    t0, t1 = BinaryForm.monomial(field, 1, 0), BinaryForm.monomial(field, 1, 1)
    z1 = BinaryForm.zero(field, 1)
    one, z0 = BinaryForm.constant(field, 1), BinaryForm.zero(field, 0)
    cubic = top_column_replaced(
        build_isotropic(field, 6, 2, "skew"), 2, (-1, [z1, z1, z1, z1, t1, t0])
    )
    r3 = top_column_replaced(build_isotropic(field, 4, 2, "skew"), 0, (0, [z0, one, z0, one]))
    for bad in (cubic, r3):
        b = verify._built(bad)[0][0]
        low, top = b.chunks[0], b.chunks[-1]
        assert not (sheaves.pairing_map(low, b.pairing) @ top.gen).is_zero()
        for basis in (b.witness, (top.gen, GradedMatrix.identity(field, top.gen.src))):
            assert verify._lifted_quotient(low, top, b.pairing, basis) is None
        cert = certify(bad)
        assert cert == whole_member_certify(bad) == certify(with_witnesses(bad, lambda w: None))
        assert_refused(
            cert,
            "top member is not annihilated by the bottom member",
            (False, True, False, False, False),
        )


@pytest.mark.parametrize("flavor", ["symmetric", "skew"])
def test_a_non_isotropic_top_chunk_of_half_its_block_is_refused_as_the_oracle_refuses(flavor):
    # symmetric, on the hyperbolic 4-space: the top holds e0 + x0, which
    # pairs with itself.  Skew, on the hyperbolic 6-space: the top holds
    # e0 and x0 + e1, and <e0, x0 + e1> = 1, so the perp of low, e0, does
    # not hold the top
    if flavor == "symmetric":
        dim, low = 4, Subbundle.zero(QQ, trivial_frame(4))
        mid = constant_span(4, unit(4, 1))
        top = constant_span(4, unit(4, 1), (1, 0, 1, 0))
        shape, note = (0, 1, 2), "a flag member is not isotropic"
        flags = (True, False, False, False, False)
    else:
        dim, low = 6, constant_span(6, unit(6, 0))
        mid = constant_span(6, unit(6, 0), unit(6, 2))
        top = constant_span(6, unit(6, 0), (0, 1, 0, 1, 0, 0), unit(6, 2))
        shape, note = (1, 2, 3), "top member is not annihilated by the bottom member"
        flags = (False, True, False, False, False)
    pairing = Pairing.hyperbolic(QQ, dim // 2, flavor)
    fam = FlagFamily("hand", dim, 1, flavor, (low, mid, top), shape, pairing)
    assert not sheaves.is_isotropic(top, pairing)
    cert = certify(fam)
    assert cert == whole_member_certify(fam)
    assert_refused(cert, note, flags)


def test_an_isotropic_top_chunk_below_half_its_block_takes_the_oracle():
    # a hyperbolic plane on (0, 1), then a hyperbolic 4-space, where the
    # top holds e0 + e1: isotropic, not Lagrangian, so perp/top is {0, 0}
    # there, and {} on the plane
    pairing = Pairing.orthogonal_sum(
        Pairing.hyperbolic(QQ, 1, "symmetric"), Pairing.hyperbolic(QQ, 2, "symmetric")
    )
    low = Subbundle.zero(QQ, trivial_frame(6))
    mid = constant_span(6, unit(6, 0))
    top = constant_span(6, unit(6, 0), (0, 0, 1, 1, 0, 0))
    fam = FlagFamily("hand", 6, 1, "symmetric", (low, mid, top), (0, 1, 2), pairing)
    assert verify._perp_over_top([Block(pairing, fam.members)], -1, [None]) == st(0, 0)
    cert = certify(fam)
    assert cert == whole_member_certify(fam)
    assert cert.tev_pieces[0] == cert.flag_quotients[2].dual().tensor(st(0, 0))


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
@pytest.mark.parametrize("corrupt", [*BIG_WITNESS_CORRUPTIONS, gram_negated])
def test_a_refused_perp_witness_falls_back_to_is_isotropic(field, corrupt, monkeypatch):
    # a witness that passes proves the big block's top chunk isotropic, and
    # is_isotropic never sees it; a refused one leaves it to is_isotropic.
    # The (8, 3) big blocks, E(1, 2) pulled back by T -> T^2, are Lagrangian
    checked = []
    real_is_isotropic = sheaves.is_isotropic

    def is_isotropic(e, beta):
        checked.append(e.gen)
        return real_is_isotropic(e, beta)

    monkeypatch.setattr(verify, "is_isotropic", is_isotropic)
    cases = [("symmetric", 20, 7), ("skew", 14, 4), ("symmetric", 8, 3), ("skew", 8, 3)]
    for flavor, n, k in cases:
        fam = build_isotropic(field, n, k, flavor)
        big_top = verify._built(fam)[0][1].chunks[-1].gen
        del checked[:]
        plain = certify(fam)
        assert plain.very_twisting and big_top not in checked, (flavor, n, k)
        bad = corrupt(fam)
        if bad is None:
            continue
        del checked[:]
        cert = certify(bad)
        assert big_top in checked, (flavor, n, k)
        assert cert == certify(with_witnesses(bad, lambda w: None)) == plain, (flavor, n, k)
