import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graded_strategies import (
    ALL_FIELDS,
    FIELDS,
    FRACTION_COEFFS,
    assert_canonical,
    evaluate,
    graded_matrices,
    reference_add,
    reference_mul,
)
from twistlines import frames, linalg
from twistlines.fields import QQ
from twistlines.forms import BinaryForm, _trim, poly_divmod, random_form
from twistlines.frames import (
    DegreePiece,
    GradedMatrix,
    RankProfile,
    trivial_frame,
)
from twistlines.sheaves import Pairing, kernel_free

T0 = BinaryForm.monomial(QQ, 1, 0)
T1 = BinaryForm.monomial(QQ, 1, 1)
ONE, ZERO0, ZERO1 = BinaryForm.constant(QQ, 1), BinaryForm.zero(QQ, 0), BinaryForm.zero(QQ, 1)


def coords_column():
    # [T0; T1] : O(-1) -> O^2
    return GradedMatrix.from_columns(QQ, trivial_frame(2), [(-1, [T0, T1])])


def random_graded(rng, max_rank=3, twist_span=2, field=QQ):
    src = tuple(rng.randint(-twist_span, twist_span) for _ in range(rng.randint(1, max_rank)))
    dst = tuple(rng.randint(-twist_span, twist_span) for _ in range(rng.randint(1, max_rank)))
    rows = []
    for b in dst:
        row = []
        for a in src:
            d = b - a
            row.append(random_form(field, d, rng) if d >= 0 else BinaryForm.zero(field, d))
        rows.append(row)
    return GradedMatrix(field, src, dst, rows)


def test_frame_helpers():
    assert trivial_frame(2) == (0, 0)


def test_constructor_rejects_degree_violation():
    with pytest.raises(ValueError):
        GradedMatrix(QQ, (-1,), (0, 0), [[T0], [BinaryForm.constant(QQ, 1)]])


def test_constructor_rejects_nonzero_in_negative_gap():
    with pytest.raises(ValueError):
        GradedMatrix(QQ, (1,), (0,), [[T0]])


def test_equal_matrices_built_separately_hash_equal():
    # the hash is kept on first use; every constructor path must start
    # without one, and a pickled copy must carry a valid one
    built = GradedMatrix(QQ, (-1,), (0, 0), [[T0], [T1]])
    hash(built)
    others = [
        coords_column(),
        GradedMatrix.identity(QQ, trivial_frame(2)) @ built,
        built.transpose_dual().transpose_dual(),
        built.twist(1).twist(-1),
        pickle.loads(pickle.dumps(built)),
    ]
    for other in others:
        assert other == built and hash(other) == hash(built)
        assert hash(other) == hash(other)
    assert len({built: 1, **{m: 2 for m in others}}) == 1
    assert hash(built) == hash((built.src, built.dst, built.entries))


@st.composite
def block_lists(draw):
    """Up to four blocks over one field, some with no columns or no rows."""
    field = draw(st.sampled_from(FIELDS))
    frames = st.lists(st.integers(-6, 6), min_size=1, max_size=3)
    blocks = []
    for kind in draw(st.lists(st.sampled_from(["full", "no columns", "no rows"]), max_size=4)):
        if kind == "full":
            blocks.append(draw(graded_matrices(field=field)))
        elif kind == "no columns":
            dst = draw(frames)
            blocks.append(GradedMatrix(field, (), dst, [[] for _ in dst]))
        else:
            blocks.append(GradedMatrix(field, draw(frames), (), []))
    return field, blocks


def zero_padded(field, blocks):
    """The block-diagonal matrix, each block column padded with zero forms."""
    dst = tuple(b for m in blocks for b in m.dst)
    cols, offset = [], 0
    for m in blocks:
        for j in range(m.ncols):
            tw, forms = m.column(j)
            full = [BinaryForm.zero(field, b - tw) for b in dst]
            full[offset : offset + len(forms)] = forms
            cols.append((tw, full))
        offset += m.nrows
    return GradedMatrix.from_columns(field, dst, cols)


@settings(max_examples=200, deadline=None)
@given(block_lists())
def test_direct_sum_matches_zero_padded_columns(case):
    # the checked constructor is the oracle for the unchecked direct sum
    field, blocks = case
    total = GradedMatrix.direct_sum(field, *blocks)
    assert total == zero_padded(field, blocks)
    assert GradedMatrix(field, total.src, total.dst, total.entries) == total


@settings(max_examples=150, deadline=None)
@given(block_lists(), st.booleans())
def test_direct_sum_composes_the_blocks_profiles(case, profiled):
    # with every block profiled, the sum keeps the profile a fresh Smith
    # form of the whole matrix finds; with one block that has rows and
    # columns unprofiled, it keeps none
    field, blocks = case
    if profiled:
        for m in blocks:
            m.rank_everywhere()
    total = GradedMatrix.direct_sum(field, *blocks)
    fresh = GradedMatrix(field, total.src, total.dst, total.entries)
    if profiled or not any(m.src and m.dst for m in blocks):
        assert total._profile == fresh._rank_profile() == reference_rank_profile(fresh)
    else:
        assert total._profile is None


@settings(max_examples=100, deadline=None)
@given(graded_matrices(), st.integers(2, 3))
def test_pullback_keeps_the_profile(m, d):
    profile = m.rank_everywhere()
    pulled = m.pullback_power(d)
    fresh = GradedMatrix(m.field, pulled.src, pulled.dst, pulled.entries)
    assert pulled._profile == profile == fresh._rank_profile()
    assert GradedMatrix(m.field, m.src, m.dst, m.entries).pullback_power(d)._profile is None


def test_direct_sum_needs_one_field():
    m = GradedMatrix.identity(FIELDS[1], (0,))
    with pytest.raises(ValueError, match="one field"):
        GradedMatrix.direct_sum(QQ, GradedMatrix.identity(QQ, (0,)), m)


def test_zero_and_identity_match_the_checked_constructor():
    for field in FIELDS:
        for m in (
            GradedMatrix.zero(field, (2, -1), (0, 3, -2)),
            GradedMatrix.zero(field, (), (0, 0)),
            GradedMatrix.identity(field, (1, 0, -3)),
            GradedMatrix.identity(field, ()),
        ):
            fresh = GradedMatrix(field, m.src, m.dst, m.entries)
            assert fresh == m
            # both keep their profile, (0, True) and (n, True), unasked
            assert m._profile == fresh._rank_profile()


def test_degree_piece_empty_source():
    piece = coords_column().degree_piece(0)
    assert piece.ncols == 0
    assert piece.nrows == 2


def test_degree_piece_identity():
    ident = GradedMatrix.identity(QQ, trivial_frame(3))
    for n in (0, 1, 2):
        piece = ident.degree_piece(n)
        size = 3 * (n + 1)
        assert piece.ncols == piece.nrows == size
        assert all(
            piece.matrix[i][j] == (1 if i == j else 0)
            for i in range(size)
            for j in range(size)
        )


def test_degree_piece_coords_column_n1():
    piece = coords_column().degree_piece(1)
    # source basis: the single monomial of degree 0; hand expansion gives
    # T0*(1) = T0 in summand 1 and T1*(1) = T1 in summand 2
    assert piece.ncols == 1
    assert [row[0] for row in piece.matrix] == [1, 0, 0, 1]


def test_degree_piece_functoriality():
    rng = random.Random(11)
    trials = 0
    while trials < 12:
        m = random_graded(rng)
        n_mat = random_graded(rng)
        if n_mat.dst != m.src:
            # force composability by rebuilding n with matching target
            n_mat = GradedMatrix.from_columns(
                QQ,
                m.src,
                [
                    (
                        tw,
                        [
                            random_form(QQ, a - tw, rng)
                            if a - tw >= 0
                            else BinaryForm.zero(QQ, a - tw)
                            for a in m.src
                        ],
                    )
                    for tw in (rng.randint(-2, 2) for _ in range(rng.randint(1, 3)))
                ],
            )
        comp = m @ n_mat
        for n in range(-3, 6):
            left = comp.degree_piece(n)
            pm = m.degree_piece(n)
            pn = n_mat.degree_piece(n)
            assert pm.ncols == pn.nrows
            prod = [
                [
                    sum(
                        (pm.matrix[i][k] * pn.matrix[k][j] for k in range(pm.ncols)),
                        Fraction(0),
                    )
                    for j in range(pn.ncols)
                ]
                for i in range(pm.nrows)
            ]
            assert left.nrows == pm.nrows and left.ncols == pn.ncols
            assert [list(r) for r in left.matrix] == prod
        trials += 1


def dense_degree_piece(m, n):
    """Reference degree piece: a dense loop over every entry and
    coefficient that uses neither the cached support nor cached terms."""
    f = m.field
    src_dims = tuple(max(0, n + a + 1) for a in m.src)
    dst_dims = tuple(max(0, n + b + 1) for b in m.dst)
    ncols = sum(src_dims)
    rows = [[f.zero] * ncols for _ in range(sum(dst_dims))]
    dst_off = []
    off = 0
    for d in dst_dims:
        dst_off.append(off)
        off += d
    col = 0
    for j, a in enumerate(m.src):
        for i_exp in range(src_dims[j]):
            for i, b in enumerate(m.dst):
                e = m.entries[i][j]
                if e.degree < 0 or all(f.is_zero(c) for c in e.coeffs):
                    continue
                base = dst_off[i]
                for s, cf in enumerate(e.coeffs):
                    if not f.is_zero(cf):
                        rows[base + s + i_exp][col] = f.add(rows[base + s + i_exp][col], cf)
            col += 1
    return DegreePiece(n, src_dims, dst_dims, tuple(tuple(r) for r in rows))


@settings(max_examples=150, deadline=None)
@given(graded_matrices(), st.lists(st.integers(-8, 8), min_size=1, max_size=4))
def test_sparse_scatter_matches_the_dense_reference(m, degrees):
    # degree_piece is the dense view of sparse_piece, whose rows hold the
    # nonzero entries only, columns ascending
    f = m.field
    for n in degrees:
        dense = dense_degree_piece(m, n)
        assert m.degree_piece(n) == dense
        sparse = m.sparse_piece(n)
        assert sparse == dense._replace(
            matrix=[{c: v for c, v in enumerate(row) if v} for row in dense.matrix]
        )
        assert all(list(row) == sorted(row) for row in sparse.matrix)
    assert m.value_at_infinity() == evaluate(m, f.one, f.zero)
    for row in m.entries:
        for e in row:
            nonzero = tuple((i, c) for i, c in enumerate(e.coeffs) if not f.is_zero(c))
            assert e.terms() == nonzero
            assert e.is_zero() == (not nonzero)
    assert m.support() == tuple(
        tuple((i, row[j].terms()) for i, row in enumerate(m.entries) if not row[j].is_zero())
        for j in range(m.ncols)
    )
    assert m.is_zero() == all(f.is_zero(c) for row in m.entries for e in row for c in e.coeffs)


# -- the generic diagonalization, kept as the reference for the native one


def dehomogenize(e):
    """Coefficient list of e(x, 1) indexed by x-power, trimmed."""
    f = e.field
    low = next((i for i, c in enumerate(e.coeffs) if not f.is_zero(c)), len(e.coeffs))
    return list(reversed(e.coeffs[low:]))


def reference_poly_mul(field, a, b):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            if not field.is_zero(y):
                out[i + j] = field.add(out[i + j], field.mul(x, y))
    return _trim(field, out)


def reference_poly_divmod(field, a, b):
    b = _trim(field, list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    _trim(field, r)
    q = [field.zero] * max(0, len(r) - len(b) + 1)
    inv_lead = field.inv(b[-1])
    while len(r) >= len(b):
        c = field.mul(r[-1], inv_lead)
        shift = len(r) - len(b)
        q[shift] = c
        for i, bc in enumerate(b):
            r[shift + i] = field.sub(r[shift + i], field.mul(c, bc))
        _trim(field, r)
        if not r:
            break
    return q, r


def reference_poly_sub(field, a, b):
    n = max(len(a), len(b))
    out = [field.zero] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = field.sub(out[i], y)
    return _trim(field, out)


def reference_poly_diagonal(field, m):
    """Diagonalization with one field-method call per coefficient operation."""
    m = [row[:] for row in m]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    deg = len
    diag = []
    k = 0
    while k < min(nr, nc):
        pi = pj = -1
        best = -1
        for i in range(k, nr):
            for j in range(k, nc):
                if m[i][j]:
                    d = deg(m[i][j])
                    if best < 0 or d < best:
                        best, pi, pj = d, i, j
        if best < 0:
            break
        m[k], m[pi] = m[pi], m[k]
        for row in m:
            row[k], row[pj] = row[pj], row[k]
        while True:
            # kill column k below the pivot
            dirty = False
            for i in range(k + 1, nr):
                if m[i][k]:
                    q, rem = reference_poly_divmod(field, m[i][k], m[k][k])
                    if q:
                        for j in range(k, nc):
                            prod = reference_poly_mul(field, q, m[k][j])
                            m[i][j] = reference_poly_sub(field, m[i][j], prod)
                    m[i][k] = rem
                    if rem:
                        dirty = True
            if dirty:
                best_i = k
                for i in range(k, nr):
                    if m[i][k] and deg(m[i][k]) < deg(m[best_i][k]):
                        best_i = i
                m[k], m[best_i] = m[best_i], m[k]
                continue
            # kill row k right of the pivot
            dirty = False
            for j in range(k + 1, nc):
                if m[k][j]:
                    q, rem = reference_poly_divmod(field, m[k][j], m[k][k])
                    if q:
                        for i in range(k, nr):
                            prod = reference_poly_mul(field, q, m[i][k])
                            m[i][j] = reference_poly_sub(field, m[i][j], prod)
                    m[k][j] = rem
                    if rem:
                        dirty = True
            if not dirty:
                break
            best_j = k
            for j in range(k, nc):
                if m[k][j] and deg(m[k][j]) < deg(m[k][best_j]):
                    best_j = j
            for row in m:
                row[k], row[best_j] = row[best_j], row[k]
        diag.append(m[k][k])
        k += 1
    return diag


def reference_rank_profile(m):
    if not m.src or not m.dst:
        return RankProfile(0, True)
    f = m.field
    diag = reference_poly_diagonal(f, [[dehomogenize(e) for e in row] for row in m.entries])
    r = len(diag)
    if not all(len(d) == 1 for d in diag):
        return RankProfile(r, False)
    return RankProfile(r, linalg.rank(f, evaluate(m, f.one, f.zero), m.ncols) == r)


def mixed_graded_matrices(**kwargs):
    """Graded matrices over QQ, GF(10007) and GF(7), with rational entries
    that have denominators (reduced mod p over the prime fields)."""
    return graded_matrices(fields=ALL_FIELDS, coeffs=FRACTION_COEFFS, **kwargs)


@settings(max_examples=200, deadline=None)
@given(mixed_graded_matrices())
def test_native_diagonalization_matches_the_generic_reference(m):
    f = m.field
    assert m.rank_everywhere() == reference_rank_profile(m)
    if not m.src or not m.dst:
        return
    polys = [[dehomogenize(e) for e in row] for row in m.entries]
    assert m._dehomogenized() == polys
    diag = frames._poly_diagonal(f, m._dehomogenized())
    # the same pivots, hence the same diagonal entries, not only degrees
    assert diag == reference_poly_diagonal(f, polys)
    for d in diag:
        assert d and d[-1]
        assert_canonical(f, d)


@st.composite
def polynomial_pairs(draw):
    field = draw(st.sampled_from(ALL_FIELDS))
    poly = st.lists(FRACTION_COEFFS.map(field.of), max_size=8)
    a = draw(poly)
    b = draw(poly.filter(lambda b: any(b)))
    return field, a, b


@settings(max_examples=200, deadline=None)
@given(polynomial_pairs())
def test_native_poly_divmod_matches_the_generic_reference(case):
    # untrimmed inputs, and dividends shorter than the divisor, included
    field, a, b = case
    q, r = poly_divmod(field, a, b)
    assert (q, r) == reference_poly_divmod(field, a, b)
    assert_canonical(field, q + r)


def reference_matmul(a, b):
    """The product as chains of field-method form products and sums from
    zero forms."""
    f = a.field
    rows = []
    for i, t in enumerate(a.dst):
        row = []
        for j, s in enumerate(b.src):
            acc = BinaryForm.zero(f, t - s)
            for k in range(len(a.src)):
                acc = reference_add(acc, reference_mul(a.entries[i][k], b.entries[k][j]))
            row.append(acc)
        rows.append(row)
    return GradedMatrix(f, b.src, a.dst, rows)


@st.composite
def composable_pairs(draw):
    a = draw(mixed_graded_matrices())
    b = draw(mixed_graded_matrices(field=a.field, dst=a.src))
    return a, b


@settings(max_examples=150, deadline=None)
@given(composable_pairs())
def test_native_product_matches_the_form_arithmetic_reference(pair):
    a, b = pair
    prod = a @ b
    assert prod == reference_matmul(a, b)
    for row in prod.entries:
        for e in row:
            assert_canonical(a.field, e.coeffs)


@st.composite
def stacked_matrices(draw, field, src):
    """A matrix from ``src``: an identity block on src's own twists (or,
    one time in four, a random block there) and up to three random rows,
    its rows shuffled.  With the identity it is everywhere injective."""
    extra = draw(st.lists(st.integers(-3, 3), max_size=3))
    identity = draw(st.integers(0, 3)) > 0
    dst, rows = list(src) + extra, []
    for i, b in enumerate(dst):
        row = []
        for j, a in enumerate(src):
            d = b - a
            if identity and i < len(src):
                row.append(BinaryForm.constant(field, 1) if i == j else BinaryForm.zero(field, d))
            elif d < 0 or draw(st.integers(0, 3)) == 3:
                row.append(BinaryForm.zero(field, d))
            else:
                values = [draw(st.integers(-3, 3)) for _ in range(d + 1)]
                row.append(BinaryForm(field, d, values))
        rows.append(row)
    order = draw(st.permutations(range(len(dst))))
    return GradedMatrix(field, src, [dst[i] for i in order], [rows[i] for i in order])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_product_keeps_the_profile_of_everywhere_injective_factors(data):
    # the product keeps (ncols, True) iff both factors have (ncols, True),
    # and then a fresh Smith form of the product agrees
    field = data.draw(st.sampled_from(ALL_FIELDS))
    src = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    inner = data.draw(stacked_matrices(field, src))
    outer = data.draw(stacked_matrices(field, inner.dst))
    for m in (inner, outer):
        if data.draw(st.booleans()):
            m.rank_everywhere()
    product = outer @ inner
    kept = inner._profile == (inner.ncols, True) and outer._profile == (outer.ncols, True)
    assert (product._profile is not None) == kept
    fresh = GradedMatrix(field, product.src, product.dst, product.entries)
    assert fresh == product
    if kept:
        assert product._profile == (inner.ncols, True) == fresh._rank_profile()


def test_a_unit_column_of_a_product_is_the_factors_column():
    # a column of the right factor with one entry, the constant 1, gives
    # the left factor's column with the same form objects
    m = GradedMatrix.from_columns(
        QQ, trivial_frame(3), [(-1, [T0, ZERO1, T1]), (0, [ONE, ONE, ZERO0])]
    )
    pick = GradedMatrix.from_columns(
        QQ, m.src, [(0, [BinaryForm.zero(QQ, -1), ONE]), (-1, [ONE, ZERO1])]
    )
    prod = m @ pick
    assert [prod.column(j) for j in range(2)] == [m.column(1), m.column(0)]
    assert all(
        prod.entries[i][j] is m.entries[i][1 - j] for i in range(3) for j in range(2)
    )


def test_rank_everywhere_coords():
    assert coords_column().rank_everywhere() == (1, True)


def test_rank_everywhere_common_factor():
    # [T0^2; T0*T1] : O(-2) -> O^2 drops rank at [0:1]
    m = GradedMatrix.from_columns(
        QQ,
        trivial_frame(2),
        [(-2, [BinaryForm.monomial(QQ, 2, 0), BinaryForm.monomial(QQ, 2, 1)])],
    )
    assert m.rank_everywhere() == (1, False)
    at_01 = evaluate(m, QQ.zero, QQ.one)
    assert linalg.rank(QQ, at_01, 1) == 0


def test_rank_everywhere_phi23():
    from twistlines.families import build_phi_psi

    phi, _ = build_phi_psi(QQ, 2, 3)
    assert phi.rank_everywhere() == (2, True)


def test_rank_everywhere_zero_and_empty():
    z = GradedMatrix.zero(QQ, (0,), (1,))
    assert z.rank_everywhere() == (0, True)
    empty = GradedMatrix.zero(QQ, (), (0, 0))
    assert empty.rank_everywhere() == (0, True)


def test_constant_rank_matches_evaluations():
    rng = random.Random(23)
    checked = 0
    while checked < 10:
        m = random_graded(rng)
        profile = m.rank_everywhere()
        if not profile.constant:
            continue
        for i in range(20):
            t0, t1 = rng.randint(-30, 30), rng.randint(-30, 30)
            if t0 == 0 and t1 == 0:
                t1 = 1
            vals = evaluate(m, t0, t1)
            assert linalg.rank(QQ, vals, m.ncols) == profile.generic_rank
        checked += 1


def test_transpose_shape():
    t = coords_column().transpose_dual()
    assert t.src == (0, 0)
    assert t.dst == (1,)
    assert t.entries == ((T0, T1),)


def test_transpose_involution():
    rng = random.Random(5)
    for _ in range(10):
        m = random_graded(rng)
        assert m.transpose_dual().transpose_dual() == m


@settings(max_examples=150, deadline=None)
@given(graded_matrices())
def test_transpose_carries_the_rank_profile(m):
    # a matrix and its transpose have the same rank at every point, so the
    # profile handed to the transpose is the one a fresh matrix computes
    t = m.transpose_dual()
    fresh = GradedMatrix(t.field, t.src, t.dst, t.entries)
    assert m.rank_everywhere() == fresh.rank_everywhere()
    assert m.transpose_dual().rank_everywhere() == fresh.rank_everywhere()
    assert t.rank_everywhere() == fresh.rank_everywhere()


def test_pairing_block_transpose_symmetry():
    for flavor, sign in (("symmetric", 1), ("skew", -1)):
        beta = Pairing.hyperbolic(QQ, 3, flavor)
        rows = [[BinaryForm.constant(QQ, c) for c in row] for row in beta.matrix]
        m = GradedMatrix(QQ, trivial_frame(6), trivial_frame(6), rows)
        t = m.transpose_dual()
        expected = [
            [BinaryForm.constant(QQ, sign * c) for c in row] for row in beta.matrix
        ]
        assert t.entries == GradedMatrix(QQ, trivial_frame(6), trivial_frame(6), expected).entries


def test_pullback_identity_and_squares():
    m = coords_column()
    assert m.pullback_power(1) == m
    sq = m.pullback_power(2)
    assert sq.src == (-2,)
    assert sq.entries == (
        (BinaryForm.monomial(QQ, 2, 0),),
        (BinaryForm.monomial(QQ, 2, 2),),
    )
    with pytest.raises(ValueError):
        m.pullback_power(0)


def test_pullback_composes():
    rng = random.Random(3)
    for _ in range(6):
        m = random_graded(rng)
        assert m.pullback_power(2).pullback_power(3) == m.pullback_power(6)
        pulled = m.pullback_power(2)
        assert GradedMatrix(QQ, pulled.src, pulled.dst, pulled.entries) == pulled


def test_pullback_scales_kernel_type():
    # splitting types of computed bundles scale degreewise under pullback
    rng = random.Random(17)
    for _ in range(6):
        src = tuple(rng.randint(-2, 1) for _ in range(3))
        dst = tuple(rng.randint(0, 2) for _ in range(2))
        rows = []
        for b in dst:
            rows.append(
                [
                    random_form(QQ, b - a, rng) if b - a >= 0 else BinaryForm.zero(QQ, b - a)
                    for a in src
                ]
            )
        m = GradedMatrix(QQ, src, dst, rows)
        base = kernel_free(m).type
        doubled = kernel_free(m.pullback_power(2)).type
        assert doubled == base.scaled(2)


def test_composition_requires_matching_frames():
    m = coords_column()
    with pytest.raises(ValueError, match="frames do not match"):
        m @ m
