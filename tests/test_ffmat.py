import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modtalg.errors import DimensionMismatch, NotPrime, PrimeTooLarge
from modtalg.ffmat import (
    _is_prime,
    Subspace,
    charpoly_coeffs,
    field_ctx,
    kernel_array,
    matmul_mod,
    pairwise_mod,
    rref_array,
    solve_array,
)
from modtalg.oracles import charpoly_leibniz, rank_by_minors


def test_field_ctx_accepts_primes():
    assert field_ctx(5).p == 5
    assert field_ctx(2).p == 2


def test_field_ctx_rejects_composites():
    with pytest.raises(NotPrime):
        field_ctx(4)
    with pytest.raises(NotPrime):
        field_ctx(1)


def _prime_by_trial_division(p):
    return p >= 2 and all(p % f for f in range(2, int(p**0.5) + 1))


def test_primality_matches_trial_division_below_1e5():
    assert [p for p in range(10**5) if _is_prime(p)] == [
        p for p in range(10**5) if _prime_by_trial_division(p)
    ]


def test_primality_is_exact_on_large_inputs():
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to bases 2, 3, 5, 7
    assert not _is_prime(3215031751)
    assert _is_prime(2**61 - 1)
    assert _is_prime(2**64 - 59)  # the largest prime below 2^64
    assert not _is_prime((2**32 - 5) * (2**32 - 17))


def test_field_ctx_rejects_primes_from_2_64():
    assert field_ctx(2**64 - 59).p == 2**64 - 59
    for p in (2**64, 2**64 + 13, 2**89 - 1):
        with pytest.raises(PrimeTooLarge):
            field_ctx(p)


def test_rref_identity_fixed():
    eye = np.eye(3, dtype=np.int64)
    reduced, rank, pivots = rref_array(eye, 2)
    assert np.array_equal(reduced, eye)
    assert rank == 3 and pivots == [0, 1, 2]


def test_rref_all_ones_gf2():
    reduced, rank, _ = rref_array(np.ones((2, 2), dtype=np.int64), 2)
    assert np.array_equal(reduced, [[1, 1], [0, 0]])
    assert rank == 1


def test_rref_rank_matches_minor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(6):
        a = rng.integers(0, 3, size=(6, 6))
        _, rank, _ = rref_array(a, 3)
        assert rank == rank_by_minors(a, 3)


small_prime = st.sampled_from([2, 3, 5])


@settings(max_examples=40, deadline=None)
@given(
    p=small_prime,
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    data=st.data(),
)
def test_rref_idempotent_and_transpose_rank(p, rows, cols, data):
    flat = data.draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
    a = np.array(flat, dtype=np.int64).reshape(rows, cols)
    reduced, rank, _ = rref_array(a, p)
    again, rank2, _ = rref_array(reduced, p)
    assert np.array_equal(reduced, again) and rank == rank2
    assert rank == rref_array(a.T, p)[1]


def test_kernel_fixed_cases():
    assert kernel_array(np.eye(3, dtype=np.int64), 2).shape == (0, 3)
    assert np.array_equal(kernel_array(np.zeros((2, 3), dtype=np.int64), 2), np.eye(3))
    assert np.array_equal(kernel_array(np.array([[1, 1]]), 2), [[1, 1]])


def _matrix(p, rows, cols, data):
    flat = data.draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=np.int64).reshape(rows, cols)


def _kernel_by_loop(a, p):
    # reference: one null-space vector per free column, filled entry by entry
    reduced, rank, pivots = rref_array(a, p)
    free = [c for c in range(a.shape[1]) if c not in set(pivots)]
    if not free:
        return np.zeros((0, a.shape[1]), dtype=np.int64)
    vecs = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    for row, fc in enumerate(free):
        vecs[row, fc] = 1
        for i, pc in enumerate(pivots):
            vecs[row, pc] = (-reduced[i, fc]) % p
    return rref_array(vecs, p)[0][: len(free)]


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), rows=st.integers(0, 6), cols=st.integers(1, 7),
       data=st.data())
def test_kernel_equals_the_loop_version(p, rows, cols, data):
    a = _matrix(p, rows, cols, data)
    assert np.array_equal(kernel_array(a, p), _kernel_by_loop(a, p))


def _kernel_by_two_eliminations(a, p):
    # reference: the kernel read off the reduced form of a, reduced again
    reduced, rank, pivots = rref_array(a, p)
    n = reduced.shape[1]
    free = np.delete(np.arange(n), pivots)
    if not free.size:
        return np.zeros((0, n), dtype=np.int64)
    vecs = np.zeros((len(free), n), dtype=np.int64)
    vecs[np.arange(len(free)), free] = 1
    vecs[:, pivots] = (-reduced[:rank, free].T) % p
    return rref_array(vecs, p)[0]


def _ragged_items(p, data):
    # items of up to 5 x 5, each zero, of full rank, or drawn entry by entry
    items = []
    for _ in range(data.draw(st.integers(0, 5))):
        rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        kind = data.draw(st.sampled_from(["zero", "full", "drawn"]))
        if kind == "zero":
            items.append(np.zeros((rows, cols), dtype=np.int64))
        elif kind == "full":
            k = min(rows, cols)
            perm = data.draw(st.permutations(range(cols)))
            item = np.zeros((rows, cols), dtype=np.int64)
            item[:k] = np.eye(cols, dtype=np.int64)[list(perm[:k])]
            upper = np.triu(_matrix(p, rows, rows, data), 1) + np.eye(rows, dtype=np.int64)
            items.append(upper @ item % p)
        else:
            items.append(_matrix(p, rows, cols, data))
    return items


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3, 3037000493]), data=st.data())
def test_stacked_elimination_equals_item_by_item(p, data):
    items = _ragged_items(p, data)
    m, n = max([0] + [x.shape[0] for x in items]), max([0] + [x.shape[1] for x in items])
    stack = np.zeros((len(items), m, n), dtype=np.int64)
    for i, x in enumerate(items):
        stack[i, : x.shape[0], : x.shape[1]] = x
    reduced, rank, pivots = rref_array(stack, p)
    rows, item, kernel_rank = kernel_array(stack, p, [x.shape[1] for x in items])
    assert np.array_equal(kernel_rank, rank) and (np.diff(item) >= 0).all()
    for i, x in enumerate(items):
        want, k, cols = rref_array(x, p)
        assert rank[i] == k and pivots[i, :k].tolist() == cols and (pivots[i, k:] == n).all()
        assert np.array_equal(reduced[i, : x.shape[0], : x.shape[1]], want)
        assert not reduced[i, x.shape[0] :].any() and not reduced[i, :, x.shape[1] :].any()
        kernel = _kernel_by_two_eliminations(x, p)
        assert np.array_equal(kernel_array(x, p), kernel)
        assert np.array_equal(rows[item == i], np.pad(kernel, ((0, 0), (0, n - x.shape[1]))))


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), rows=st.integers(1, 6), cols=st.integers(1, 6),
       data=st.data())
def test_rref_leaves_its_input_unchanged(p, rows, cols, data):
    a = _matrix(p, rows, cols, data)
    reduced, rank, _ = rref_array(a, p)
    # already reduced input takes the early return and must still be copied
    for x in (a, reduced[:rank], np.eye(cols, dtype=np.int64)):
        before = x.copy()
        out = rref_array(x, p)[0]
        kernel_array(x, p)
        assert np.array_equal(x, before)
        assert out is not x and not np.shares_memory(out, x)


def _rref_by_column_scan(a, p):
    # reference: the column-by-column elimination rref_array replaced, verbatim
    a = np.asarray(a, dtype=np.int64) % p
    m, n = a.shape
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, r, pivots


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 2**31 - 1]), rows=st.integers(0, 7), cols=st.integers(0, 8),
       form=st.sampled_from(["as drawn", "reduced", "reduced with zero rows", "reduced, rows permuted"]),
       data=st.data())
def test_rref_equals_the_column_scan(p, rows, cols, form, data):
    entry = st.one_of(st.just(0), st.just(1), st.integers(-p, 2 * p - 1))
    a = np.array(data.draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)),
                 dtype=np.int64).reshape(rows, cols)
    if cols:
        a[:, data.draw(st.lists(st.integers(0, cols - 1), max_size=cols))] = 0
    if rows:
        a = np.concatenate([a, a[data.draw(st.lists(st.integers(0, rows - 1), max_size=3))]])
    if form != "as drawn":
        reduced, rank, _ = _rref_by_column_scan(a, p)
        a = reduced if form == "reduced with zero rows" else reduced[:rank]
        if form == "reduced, rows permuted":
            a = a[data.draw(st.permutations(range(rank)))]
    want_r, want_rank, want_pivots = _rref_by_column_scan(a, p)
    got_r, got_rank, got_pivots = rref_array(a, p)
    assert np.array_equal(got_r, want_r) and got_r.shape == want_r.shape
    assert (got_rank, got_pivots) == (want_rank, want_pivots)
    assert all(type(c) is int for c in got_pivots)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), cols=st.integers(1, 7), data=st.data())
def test_adjoin_is_the_span_of_both(p, cols, data):
    f = field_ctx(p)
    old = _matrix(p, data.draw(st.integers(0, 5)), cols, data)
    rows = _matrix(p, data.draw(st.integers(0, 5)), cols, data)
    space = Subspace.span(f, old, ambient_dim=cols)
    grown, block = space.adjoin(rows)
    want = Subspace.span(f, np.concatenate([old, rows]), ambient_dim=cols)
    assert grown == want and grown.pivots == want.pivots
    assert not grown.basis.flags.writeable
    # the block spans a complement of the old subspace in the sum
    assert block.shape[0] == want.dim - space.dim
    assert space.sum(Subspace.span(f, block, ambient_dim=cols)).dim == space.dim + len(block)


def test_array_functions_refuse_primes_that_overflow_int64():
    # (p-1)^2 >= 2^63: a single product of residues leaves int64
    p = 4294967291
    f = field_ctx(p)
    square = [[p - 1, p - 2], [p - 3, p - 5]]
    for call in (
        lambda: rref_array(square, p),
        lambda: kernel_array(square, p),
        lambda: solve_array(square, [1, 0], p),
        lambda: Subspace.span(f, [p - 1, p - 2]),
        lambda: charpoly_coeffs(square, p),
    ):
        with pytest.raises(PrimeTooLarge):
            call()


def test_int64_bounds_scale_with_the_contraction_length():
    # 2 (p-1)^2 < 2^63 <= 3 (p-1)^2 for p = 2^31 - 1
    p = 2**31 - 1
    f = field_ctx(p)
    plane = Subspace.span(f, [[1, 0, 0], [0, 1, 0]])
    full = Subspace.span(f, np.eye(3, dtype=np.int64))
    assert plane.outside([[p - 1, p - 2, 0], [0, 0, 1]]).tolist() == [1]
    assert full.contains(plane) and plane.outside(full.basis).tolist() == [2]
    assert charpoly_coeffs([[p - 1]], p).tolist() == [[1, 1]]
    # the residual of a 3-dimensional subspace sums 3 products: `matmul_mod`
    # takes it in int64 chunks of 2 terms
    for vec in ([1, 2, 3], [p - 1, p - 2, p - 3]):
        assert not full.outside([vec]).size and full.coords(vec).tolist() == [int(x) % p for x in vec]
    with pytest.raises(PrimeTooLarge):
        charpoly_coeffs(np.eye(2, dtype=np.int64), p)


# Primes at the bounds of `matmul_mod`: float64 BLAS while k (p-1)^2 < 2^53
# (up to k = 100 for 9490601, k = 99 for 9490631, k = 1 for 94906249, never
# for 94906297), int64 chunks of c = floor((2^63 - 1) / (p-1)^2) terms
# otherwise (c = 100, 99, 1 for 303700003, 303700063, 3037000493), and
# 3037000507 has (p-1)^2 >= 2^63.
KERNEL_PRIMES = (2, 3, 9490601, 9490631, 94906249, 94906297, 303700003, 303700063, 3037000493)


def _matmul_by_python_ints(a, b, p):
    rows = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
    return np.array(rows, dtype=np.int64).reshape(a.shape[0], b.shape[1])


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from(KERNEL_PRIMES), m=st.sampled_from([0, 1, 3, 120]),
       n=st.sampled_from([0, 1, 4]), high=st.booleans(), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_matmul_mod_matches_python_integers(p, m, n, high, seed, data):
    floats = -(-(2**53) // (p - 1) ** 2)  # the first k that leaves float64
    chunk = (2**63 - 1) // (p - 1) ** 2
    edges = [k for k in (0, floats - 1, floats, chunk, chunk + 1, 2 * chunk + 1) if 0 <= k <= 300]
    k = data.draw(st.one_of(st.integers(0, 300), st.sampled_from(edges)))
    rng = np.random.default_rng(seed)
    low = max(0, p - 4) if high else 0  # residues near p make the sums largest
    a, b = rng.integers(low, p, size=(m, k)), rng.integers(low, p, size=(k, n))
    assert np.array_equal(matmul_mod(a, b, p), _matmul_by_python_ints(a, b, p))


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(KERNEL_PRIMES), s=st.sampled_from([0, 1, 7]), m=st.sampled_from([0, 1, 3]),
       n=st.sampled_from([0, 2]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_matmul_mod_multiplies_stacks_item_by_item(p, s, m, n, seed, data):
    chunk = (2**63 - 1) // (p - 1) ** 2  # the int64 path sums chunks of this many terms
    k = data.draw(st.one_of(st.integers(0, 40), st.sampled_from([min(chunk, 300), min(chunk + 1, 301)])))
    rng = np.random.default_rng(seed)
    a, b = rng.integers(max(0, p - 4), p, size=(s, m, k)), rng.integers(0, p, size=(s, k, n))
    got = matmul_mod(a, b, p)
    assert got.shape == (s, m, n)
    for item in range(s):
        assert np.array_equal(got[item], _matmul_by_python_ints(a[item], b[item], p))


def test_matmul_mod_refuses_only_products_that_leave_int64():
    p = 3037000507
    one = np.ones((2, 1), dtype=np.int64)
    with pytest.raises(PrimeTooLarge):
        matmul_mod(one, one.T, p)
    assert matmul_mod(np.zeros((2, 0)), np.zeros((0, 3)), p).tolist() == [[0] * 3] * 2
    with pytest.raises(DimensionMismatch):
        matmul_mod(one, one, 2)
    with pytest.raises(DimensionMismatch):
        matmul_mod(np.ones((2, 1, 3)), np.ones((3, 3, 1)), 2)


@pytest.mark.parametrize("shapes", [((0, 2, 3), (4, 3, 2)), ((3, 2, 3), (0, 3, 2)),
                                    ((3, 0, 3), (2, 3, 2)), ((3, 2, 0), (2, 0, 2)),
                                    ((3, 2, 3), (2, 3, 0)), ((5, 4, 3), (2, 3, 6))])
def test_pairwise_mod_on_empty_and_rectangular_stacks(shapes):
    p = 7
    rng = np.random.default_rng(5)
    left, right = rng.integers(0, p, size=shapes[0]), rng.integers(0, p, size=shapes[1])
    want = np.einsum("aik,bkl->abil", left, right) % p
    assert np.array_equal(pairwise_mod(left, right, p), want)
    out = np.empty(want.shape[:2][::-1] + want.shape[2:], dtype=np.int64)
    pairwise_mod(left, right, p, out=out.transpose(1, 0, 2, 3))
    assert np.array_equal(out.transpose(1, 0, 2, 3), want)


def test_kernel_vectors_annihilate():
    rng = np.random.default_rng(3)
    for p in (2, 3, 5):
        a = rng.integers(0, p, size=(4, 6))
        basis = kernel_array(a, p)
        assert basis.shape[0] == 6 - rref_array(a, p)[1]
        assert not ((a % p) @ basis.T % p).any()


def test_subspace_membership_of_basis():
    f = field_ctx(3)
    s = Subspace.span(f, [[1, 2, 0], [0, 1, 1]])
    assert not s.outside(s.basis).size
    assert s.outside([[0, 0, 1]]).tolist() == [0] or s.dim == 3


def test_subspace_axis_intersection_zero():
    f = field_ctx(2)
    e1 = Subspace.span(f, [[1, 0]])
    e2 = Subspace.span(f, [[0, 1]])
    assert e1.outside(e2.basis).tolist() == [0] and e2.outside(e1.basis).tolist() == [0]
    assert e1.sum(e2).dim == 2


@settings(max_examples=60, deadline=None)
@given(p=small_prime, cols=st.integers(1, 6), data=st.data())
def test_outside_matches_membership_row_by_row(p, cols, data):
    f = field_ctx(p)
    space = Subspace.span(f, _matrix(p, data.draw(st.integers(0, 4)), cols, data), ambient_dim=cols)
    rows = _matrix(p, data.draw(st.integers(0, 6)), cols, data)
    # members too: combinations of the basis
    rows = np.concatenate([rows, _matrix(p, 2, space.dim, data) @ space.basis % p])
    # reference: v lies outside iff adjoining it raises the rank
    want = [i for i, v in enumerate(rows)
            if Subspace.span(f, np.vstack([space.basis, v]), ambient_dim=cols).dim > space.dim]
    assert space.outside(rows).tolist() == want


def test_dimension_mismatch_raises():
    f = field_ctx(2)
    s1 = Subspace.span(f, [[1, 0]])
    s2 = Subspace.span(f, [[1, 0, 0]])
    with pytest.raises(DimensionMismatch):
        s1.sum(s2)
    with pytest.raises(DimensionMismatch):
        s1.contains(s2)


def _enumerate_vectors(basis, p):
    from itertools import product

    dim, amb = basis.shape
    out = set()
    for coeffs in product(range(p), repeat=dim):
        v = (np.array(coeffs, dtype=np.int64) @ basis) % p
        out.add(tuple(int(x) for x in v))
    return out


def test_grassmann_identity_against_enumeration():
    # dim(A+B) + dim(A ∩ B) = dim A + dim B, checked against raw vector sets
    rng = np.random.default_rng(11)
    p = 3
    f = field_ctx(p)
    for _ in range(8):
        a = Subspace.span(f, rng.integers(0, p, size=(2, 6)))
        b = Subspace.span(f, rng.integers(0, p, size=(2, 6)))
        total = a.sum(b)
        va, vb = _enumerate_vectors(a.basis, p), _enumerate_vectors(b.basis, p)
        sums = {tuple((np.array(x) + np.array(y)) % p) for x in va for y in vb}
        assert len(sums) == p**total.dim
        assert len(va & vb) == p ** (a.dim + b.dim - total.dim)


@settings(max_examples=25, deadline=None)
@given(p=small_prime, data=st.data())
def test_grassmann_identity_random(p, data):
    f = field_ctx(p)
    amb = data.draw(st.integers(2, 6))
    va = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=amb, max_size=amb), min_size=1, max_size=3))
    vb = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=amb, max_size=amb), min_size=1, max_size=3))
    a = Subspace.span(f, np.array(va, dtype=np.int64))
    b = Subspace.span(f, np.array(vb, dtype=np.int64))
    meet = _enumerate_vectors(a.basis, p) & _enumerate_vectors(b.basis, p)
    assert len(meet) == p ** (a.dim + b.dim - a.sum(b).dim)


def test_span_of_reduced_rows_keeps_one_copy():
    # rows in reduced row-echelon form: the copy `rref_array` makes is the
    # basis, with no second copy; a rank-deficient span copies only its rows
    f = field_ctx(3)
    rows = np.zeros((40, 25_000), dtype=np.int64)
    rows[np.arange(40), np.arange(40) * 600] = 1
    rows[:, -1] = 2
    tracemalloc.start()
    try:
        space = Subspace.span(f, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * rows.nbytes
    deficient = Subspace.span(f, np.concatenate([rows, rows[:1]]))
    for s in (space, deficient):
        assert np.array_equal(s.basis, rows) and s.basis.base is None
        assert not s.basis.flags.writeable and not np.shares_memory(s.basis, rows)


def test_subspace_contains_and_equality():
    f = field_ctx(5)
    big = Subspace.span(f, [[1, 0, 0], [0, 1, 0]])
    small = Subspace.span(f, [[2, 3, 0]])
    assert big.contains(small)
    assert not small.contains(big)
    assert Subspace.span(f, [[2, 0, 0], [2, 1, 0]]) == big


def test_solve_array():
    p = 7
    a = np.array([[1, 2], [3, 4], [4, 6]])
    x_true = np.array([5, 6])
    b = (a @ x_true) % p
    x = solve_array(a, b, p)
    assert x is not None
    assert np.array_equal((a @ x) % p, b)
    assert solve_array(np.array([[1, 1], [1, 1]]), np.array([0, 1]), p) is None


def test_charpoly_against_leibniz_oracle():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            m = rng.integers(0, p, size=(n, n))
            fast = charpoly_coeffs(m[None], p)[0]
            assert fast.tolist() == charpoly_leibniz(m, p)


def test_charpoly_at_the_largest_prime_it_accepts():
    # 1358187913 is the largest prime with 5 (p-1)^2 < 2^63, the bound for
    # 4 x 4 matrices, 1358187923 the next; entries near p make every product
    # of the recurrence and of its Toeplitz factors as large as it can be
    p = 1358187913
    rng = np.random.default_rng(21)
    mats = np.concatenate([rng.integers(p - 4, p, size=(3, 4, 4)), rng.integers(0, p, size=(3, 4, 4))])
    coeffs = charpoly_coeffs(mats, p)
    assert [row.tolist() for row in coeffs] == [charpoly_leibniz(m, p) for m in mats]
    assert np.array_equal(charpoly_coeffs(mats, p, upto=2), coeffs[:, :3])
    with pytest.raises(PrimeTooLarge):
        charpoly_coeffs(mats, 1358187923)


def test_charpoly_truncation_is_prefix():
    rng = np.random.default_rng(9)
    m = rng.integers(0, 3, size=(4, 5, 5))
    full = charpoly_coeffs(m, 3)
    part = charpoly_coeffs(m, 3, upto=2)
    assert np.array_equal(full[:, :3], part)


def test_charpoly_cayley_hamilton():
    rng = np.random.default_rng(13)
    for p in (2, 3):
        m = rng.integers(0, p, size=(4, 4))
        coeffs = charpoly_coeffs(m[None], p)[0]
        acc = np.zeros((4, 4), dtype=np.int64)
        power = np.eye(4, dtype=np.int64)
        for c in coeffs[::-1]:
            acc = (acc + int(c) * power) % p
            power = (power @ m) % p
        assert not acc.any()
