import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modtalg.errors import (
    BasePointOutOfRange,
    IndexOutOfRange,
    InternalInconsistency,
    NotPPrimeValenced,
    PrimeTooLarge,
)
from modtalg.ffmat import GfpMatrix, Subspace, field_ctx, kernel_array, rref_array
from modtalg.oracles import word_closure_dim
from modtalg.scheme import gen_cyclic, gen_hamming, gen_thin, validate_axioms
from modtalg import talg
from modtalg.talg import (
    AlgebraBasis,
    _assert_nilpotent,
    _quotient_regular_rep,
    _stage_gram,
    algebra_closure,
    annihilator_W0,
    assert_two_sided_ideal,
    b0_b1,
    b0_identity,
    build_context,
    check_radical_postconditions,
    generate_algebra,
    is_central,
    is_two_sided_ideal,
    radical,
    triple_product,
)

PRIMES = (2, 3, 5, 7)


def test_context_identities_hold(schemes):
    # the defining identities are asserted inside build_context
    for name, s in schemes.items():
        for p in (2, 3):
            ctx = build_context(s, field_ctx(p), 0)
            total = np.zeros((s.n, s.n), dtype=np.int64)
            for a in ctx.A:
                total += a.a
            assert np.array_equal(total % p, ctx.J.a), name


def test_context_base_point_bounds():
    s = validate_axioms(gen_cyclic(5))
    with pytest.raises(BasePointOutOfRange):
        build_context(s, field_ctx(2), 5)


def test_prime_bound_is_enforced_before_arithmetic():
    # 607400093 is the largest prime with 5^2 (p-1)^2 < 2^63, 607400137 the next
    s = validate_axioms(gen_cyclic(5))
    assert build_context(s, field_ctx(607400093), 0).n == 5
    for p in (607400137, 4294967311):
        with pytest.raises(PrimeTooLarge):
            build_context(s, field_ctx(p), 0)


def test_one_point_context_and_algebra():
    s = validate_axioms(gen_cyclic(1))
    ctx = build_context(s, field_ctx(3), 0)
    eye = GfpMatrix.identity(ctx.field, 1)
    assert ctx.A[0] == ctx.Estar[0] == ctx.J == eye
    assert generate_algebra(ctx).dim == 1


def test_dual_idempotent_support_is_valency():
    s = validate_axioms(gen_cyclic(5))
    ctx = build_context(s, field_ctx(2), 0)
    assert int(np.count_nonzero(np.diagonal(ctx.Estar[1].a))) == 2


def test_triple_product_with_identity_relation(schemes):
    for name, s in schemes.items():
        ctx = build_context(s, field_ctx(3), 0)
        for i in range(s.d + 1):
            assert triple_product(ctx, i, 0, i) == ctx.Estar[i], name


def test_triple_product_action_on_ones(schemes):
    # E_i* A_j E_l* 1 = (p_{l j'}^i mod p) E_i* 1, both sides independently
    for name, s in schemes.items():
        for p in (2, 3):
            ctx = build_context(s, field_ctx(p), 0)
            for i in range(s.d + 1):
                for j in range(s.d + 1):
                    for l in range(s.d + 1):
                        lhs = triple_product(ctx, i, j, l).apply(ctx.ones)
                        coef = s.p(l, int(s.converse[j]), i) % p
                        rhs = (coef * ctx.Estar[i].apply(ctx.ones)) % p
                        assert np.array_equal(lhs, rhs), (name, p, i, j, l)


def test_triple_product_thin_collapse(schemes):
    # nonzero E_i* A_j E_l* with a thin end equals E_i* J E_l*
    for name, s in schemes.items():
        ctx = build_context(s, field_ctx(2), 0)
        k = s.valencies
        for i in range(s.d + 1):
            for j in range(s.d + 1):
                for l in range(s.d + 1):
                    if min(int(k[i]), int(k[l])) != 1:
                        continue
                    t = triple_product(ctx, i, j, l)
                    if not t.is_zero():
                        assert t == ctx.eje(i, l), (name, i, j, l)


def test_triple_product_bounds():
    ctx = build_context(validate_axioms(gen_cyclic(5)), field_ctx(2), 0)
    with pytest.raises(IndexOutOfRange):
        triple_product(ctx, 0, 3, 0)


def test_thin_z2_algebra_is_full_and_matches_word_oracle():
    s = validate_axioms(gen_thin([[0, 1], [1, 0]]))
    for p in (2, 3, 5):
        ctx = build_context(s, field_ctx(p), 0)
        t = generate_algebra(ctx)
        assert t.dim == 4
        assert word_closure_dim(ctx) == 4


def test_algebra_dim_matches_word_oracle_small(schemes):
    for name in ("cyclic-5", "hamming-2-2", "thin-z3"):
        for p in (2, 3):
            ctx = build_context(schemes[name], field_ctx(p), 0)
            assert generate_algebra(ctx).dim == word_closure_dim(ctx), (name, p)


def test_algebra_contains_b0_lower_bound(artifacts, schemes):
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            assert art.talgebra.dim >= (art.scheme.d + 1) ** 2, (name, p)


def test_b0_dimension_is_square(artifacts, schemes):
    for name, s in schemes.items():
        for p in PRIMES:
            assert artifacts(name, p).b0.dim == (s.d + 1) ** 2


def test_order12_b0_dim_25(artifacts):
    assert artifacts("as12-no21", 2).b0.dim == 25


def test_b1_empty_iff_pprime(artifacts, schemes):
    for name, s in schemes.items():
        for p in PRIMES:
            art = artifacts(name, p)
            if art.strata.p_prime_valenced:
                assert art.b1.dim == 0, (name, p)
            else:
                assert art.b1.dim > 0, (name, p)


def test_hamming22_b1_dim_is_pair_count(artifacts):
    art = artifacts("hamming-2-2", 2)
    k = art.scheme.valencies
    pairs = sum(
        1
        for i in range(3)
        for j in range(3)
        if (int(k[i]) * int(k[j])) % 2 == 0
    )
    assert pairs == 5
    assert art.b1.dim == 5


def test_b0_identity_thin_scheme():
    s = validate_axioms(gen_thin([[0, 1], [1, 0]]))
    ctx = build_context(s, field_ctx(3), 0)
    t = generate_algebra(ctx)
    b0, b1 = b0_b1(ctx, t)
    e = b0_identity(ctx, t, b0)
    want = ctx.eje(0, 0) + ctx.eje(1, 1)
    assert e == want


def test_b0_identity_cyclic5_p3_central():
    s = validate_axioms(gen_cyclic(5))
    ctx = build_context(s, field_ctx(3), 0)
    t = generate_algebra(ctx)
    b0, _ = b0_b1(ctx, t)
    e = b0_identity(ctx, t, b0)  # verification happens inside
    tm = t.mats()
    assert np.array_equal((e.a @ tm) % 3, (tm @ e.a) % 3)


def test_b0_identity_not_pprime():
    s = validate_axioms(gen_hamming(2, 2))
    ctx = build_context(s, field_ctx(2), 0)
    t = generate_algebra(ctx)
    b0, _ = b0_b1(ctx, t)
    with pytest.raises(NotPPrimeValenced):
        b0_identity(ctx, t, b0)


def _closure_of(f, mats):
    return algebra_closure(f, np.array(mats, dtype=np.int64), include_identity=True)


def test_radical_upper_triangular():
    for p in (2, 3, 5):
        f = field_ctx(p)
        alg = _closure_of(f, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
        assert alg.dim == 3
        rad = radical(alg)
        assert rad.dim == 1
        assert rad.member(np.array([0, 1, 0, 0]))


def test_radical_full_matrix_algebra():
    for p in (2, 3, 5):
        f = field_ctx(p)
        alg = _closure_of(
            f,
            [
                [[0, 1], [0, 0]],
                [[0, 0], [1, 0]],
            ],
        )
        assert alg.dim == 4
        assert radical(alg).dim == 0


def test_radical_group_algebra_c2_mod2():
    s = validate_axioms(gen_thin([[0, 1], [1, 0]]))
    ctx = build_context(s, field_ctx(2), 0)
    alg = _closure_of(ctx.field, [ctx.A[1].a])
    assert alg.dim == 2
    rad = radical(alg)
    assert rad.dim == 1
    assert rad.member((np.eye(2, dtype=np.int64) + ctx.A[1].a).reshape(-1) % 2)


def test_radical_cyclic5_p3_is_zero(artifacts):
    assert artifacts("cyclic-5", 3).rad.dim == 0


def test_radical_postconditions_reject_corruption(artifacts):
    art = artifacts("cyclic-5", 2)
    extra = next(row for row in art.talgebra.space.basis if not art.rad.member(row))
    corrupted = Subspace.span(
        art.field,
        np.concatenate([art.rad.basis, extra[None, :]]),
        ambient_dim=art.ctx.n**2,
    )
    with pytest.raises(InternalInconsistency):
        check_radical_postconditions(art.talgebra, corrupted)


@pytest.mark.parametrize("name,p", [("cyclic-5", 2), ("hamming-3-2", 3)])
def test_radical_postconditions_reject_deficient_candidates(artifacts, name, p):
    # subspaces strictly inside the radical leave the trace kernel larger
    # than themselves, so the short-cut cannot pass them
    art = artifacts(name, p)
    without_last = Subspace.span(art.field, art.rad.basis[:-1], ambient_dim=art.ctx.n**2)
    for candidate in (Subspace.zero(art.field, art.ctx.n**2), without_last):
        with pytest.raises(InternalInconsistency):
            check_radical_postconditions(art.talgebra, candidate)


def test_radical_postconditions_reject_candidates_outside_the_algebra():
    # T = GF(2) I in 2 x 2 matrices: Tr(xy) = 2xy = 0, so ker G = T has
    # dimension 1, like span{E_12}, a nilpotent subspace that I preserves
    scalars = algebra_closure(field_ctx(2), np.eye(2, dtype=np.int64)[None])
    outside = Subspace.span(scalars.field, [[0, 1, 0, 0]], ambient_dim=4)
    with pytest.raises(InternalInconsistency):
        check_radical_postconditions(scalars, outside)


def test_quotient_rerun_only_when_trace_kernel_exceeds_the_radical(artifacts, monkeypatch):
    def unreachable(*args):
        raise AssertionError("quotient re-run reached")

    monkeypatch.setattr(talg, "_quotient_regular_rep", unreachable)
    art = artifacts("cyclic-5", 3)
    check_radical_postconditions(art.talgebra, art.rad)
    full = _closure_of(field_ctx(2), [[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    check_radical_postconditions(full, radical(full))

    calls = []

    def recorded(*args):
        calls.append(args)
        return _quotient_regular_rep(*args)

    monkeypatch.setattr(talg, "_quotient_regular_rep", recorded)
    art = artifacts("cyclic-5", 2)
    check_radical_postconditions(art.talgebra, art.rad)
    assert len(calls) == 1


def _passes(check, alg, candidate):
    try:
        check(alg, candidate)
    except InternalInconsistency:
        return False
    return True


def _check_by_quotient_rerun(alg, candidate):
    # the three certificates with the quotient always re-run
    assert_two_sided_ideal(alg, candidate, "radical")
    _assert_nilpotent(alg, candidate)
    quotient = _quotient_regular_rep(alg, candidate)
    if quotient is not None and radical(quotient, _verify=False).dim != 0:
        raise InternalInconsistency("quotient has a nonzero radical")


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3]), n=st.sampled_from([3, 4]), data=st.data())
def test_trace_kernel_shortcut_agrees_with_quotient_rerun(p, n, data):
    count = data.draw(st.integers(2, 4))
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    gens = np.array(data.draw(st.lists(entries, min_size=count, max_size=count)))
    gens = gens.reshape(count, n, n)
    if data.draw(st.booleans()):
        gens = np.triu(gens)  # closures with a radical, most of the time
    alg = algebra_closure(field_ctx(p), gens)
    for candidate in (radical(alg, _verify=False), Subspace.zero(alg.field, n * n)):
        assert _passes(check_radical_postconditions, alg, candidate) == _passes(
            _check_by_quotient_rerun, alg, candidate
        )


def test_b1_cubed_vanishes(artifacts, schemes):
    for name, s in schemes.items():
        for p in PRIMES:
            art = artifacts(name, p)
            if art.b1.dim == 0:
                continue
            n = art.ctx.n
            mats = art.b1.mats()
            sq = np.einsum("aij,bjk->abik", mats, mats).reshape(-1, n, n) % p
            span2 = Subspace.span(art.field, sq.reshape(-1, n * n), ambient_dim=n * n)
            cubes = (
                np.einsum("aij,bjk->abik", span2.basis.reshape(-1, n, n), mats) % p
            )
            assert not cubes.any(), (name, p)


def test_b1_inside_radical(artifacts, schemes):
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            assert art.rad.contains(art.b1.space), (name, p)


def test_mixed_block_square_identity(artifacts, schemes):
    # non-p'-valenced: some i with p | k_i gives
    # (E_i*JE_0* + E_0*JE_i*)^2 = E_i*JE_i* != O
    for name, s in schemes.items():
        for p in PRIMES:
            art = artifacts(name, p)
            if art.strata.p_prime_valenced:
                continue
            ctx = art.ctx
            hits = []
            for i in range(s.d + 1):
                if int(s.valencies[i]) % p != 0:
                    continue
                mixed = ctx.eje(i, 0) + ctx.eje(0, i)
                sq = mixed @ mixed
                if sq == ctx.eje(i, i) and not sq.is_zero():
                    hits.append(i)
            assert hits, (name, p)


def test_zero_radical_implies_pprime(artifacts, schemes):
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            if art.rad.dim == 0:
                assert art.strata.p_prime_valenced, (name, p)


def test_dim_T_constant_on_vertex_transitive_fixtures(schemes):
    for name in ("cyclic-5", "cyclic-6"):
        s = schemes[name]
        dims = set()
        for x in range(s.n):
            ctx = build_context(s, field_ctx(2), x)
            dims.add(generate_algebra(ctx).dim)
        assert len(dims) == 1, name


def test_annihilator_one_point():
    s = validate_axioms(gen_cyclic(1))
    ctx = build_context(s, field_ctx(5), 0)
    t = generate_algebra(ctx)
    assert annihilator_W0(ctx, t).dim == 0


def test_annihilator_cyclic5_p3_contains_difference(artifacts):
    art = artifacts("cyclic-5", 3)
    z = triple_product(art.ctx, 1, 1, 2) - triple_product(art.ctx, 1, 2, 2)
    assert not z.is_zero()
    assert art.ann.member(z.vec())
    # radical is zero here, so Ann is strictly larger than Rad
    assert art.rad.dim == 0 and art.ann.dim > 0


def test_annihilator_right_thin_kill(artifacts, schemes):
    # Z E_i* = O for every Z in Ann and every thin i, unconditionally
    for name, s in schemes.items():
        for p in PRIMES:
            art = artifacts(name, p)
            if art.ann.dim == 0:
                continue
            mats = art.ann.basis.reshape(-1, art.ctx.n, art.ctx.n)
            for i in art.strata.thin:
                assert not ((mats @ art.ctx.Estar[i].a) % p).any(), (name, p, i)


def test_radical_inside_annihilator_when_pprime(artifacts, schemes):
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            if art.strata.p_prime_valenced:
                assert art.ann.contains(art.rad), (name, p)


def test_radical_matches_exhaustive_search():
    # exhaustive nilpotent-ideal search on small random closures
    rng = np.random.default_rng(17)
    from modtalg.oracles import radical_brute

    total = 0
    for p, n_gens, want, dim_cap in ((2, 2, 6, 6), (3, 1, 6, 4)):
        f = field_ctx(p)
        checked = 0
        trials = 0
        while checked < want and trials < 80:
            trials += 1
            gens = rng.integers(0, p, size=(n_gens, 3, 3))
            alg = algebra_closure(f, gens)
            if alg.dim > dim_cap:
                continue
            fast = radical(alg)
            brute = radical_brute(alg)
            assert fast == brute, (p, gens.tolist())
            checked += 1
        total += checked
    assert total >= 12


def _ideal_by_full_basis(alg, space):
    # the definition: every product with every basis element of the algebra
    n, p = alg.n, alg.field.p
    if space.dim == 0:
        return True
    tm = alg.mats()
    im = space.basis.reshape(-1, n, n)
    left = np.einsum("aij,bjk->abik", tm, im) % p
    right = np.einsum("bij,ajk->abik", im, tm) % p
    prods = np.concatenate([left.reshape(-1, n * n), right.reshape(-1, n * n)])
    return space.coords(prods) is not None


def _central_by_full_basis(alg, m):
    tm = alg.mats()
    p = alg.field.p
    return np.array_equal((m @ tm) % p, (tm @ m) % p)


def test_generator_ideal_test_matches_full_basis(artifacts, schemes):
    for name, s in schemes.items():
        for p in (2, 3):
            art = artifacts(name, p)
            tal, n = art.talgebra, s.n
            for what, space in (("B0", art.b0.space), ("B1", art.b1.space),
                                ("Rad", art.rad), ("Ann", art.ann)):
                assert is_two_sided_ideal(tal, space), (name, p, what)
                assert _ideal_by_full_basis(tal, space), (name, p, what)
            if s.d == 0:
                continue
            # T E_0* is a left ideal; E_0* A_1 is outside it, so it is not a right ideal
            left = (tal.mats() @ art.ctx.Estar[0].a) % p
            left_ideal = Subspace.span(art.field, left.reshape(-1, n * n), ambient_dim=n * n)
            assert not is_two_sided_ideal(tal, left_ideal), (name, p)
            assert not _ideal_by_full_basis(tal, left_ideal), (name, p)
            # the span of the A_i is closed under the A_i but not under the E_i*
            bose_mesner = Subspace.span(art.field, [a.vec() for a in art.ctx.A], ambient_dim=n * n)
            assert not is_two_sided_ideal(tal, bose_mesner), (name, p)
            assert not _ideal_by_full_basis(tal, bose_mesner), (name, p)
            # E_1* commutes with the E_i* only, J with the A_i only
            for m in (art.ctx.Estar[1].a, art.ctx.J.a):
                assert not is_central(tal, m), (name, p)
                assert not _central_by_full_basis(tal, m), (name, p)
            assert is_central(tal, np.eye(n, dtype=np.int64)), (name, p)


def test_trace_gram_reduces_before_int64_overflow():
    # 4^2 (p-1)^2 > 2^63 for p = 2^31 - 1, so one unreduced contraction wraps
    p, n, k = 2147483647, 4, 5
    rng = np.random.default_rng(3)
    basis = rng.integers(p - 1000, p, size=(k, n * n))
    mats = basis.astype(object).reshape(k, n, n)
    want = np.array([[int(np.trace(a @ b)) % p for b in mats] for a in mats])
    assert np.array_equal(_stage_gram(basis, n, p, 1), want)


def _one_block(alg):
    # the same algebra with the trivial grading
    return AlgebraBasis(alg.field, alg.n, alg.space, alg.generators, alg.contains_identity)


def test_derived_blocks_are_the_subconstituents(schemes):
    for name, s in schemes.items():
        for x in sorted({0, s.n - 1}):
            ctx = build_context(s, field_ctx(2), x)
            blocks = generate_algebra(ctx).blocks
            derived = {frozenset(np.flatnonzero(blocks == b).tolist()) for b in set(blocks.tolist())}
            row = s.table.entries[x]
            want = {frozenset(np.flatnonzero(row == i).tolist()) for i in range(s.d + 1)}
            assert derived == want, (name, x)


def test_graded_stage_gram_equals_one_block_gram(artifacts, schemes):
    # on T and on the candidate of every stage, for every p^k <= n
    for name, s in schemes.items():
        for p in PRIMES:
            tal = artifacts(name, p).talgebra
            n, basis, power = s.n, tal.space.basis, 1
            while power <= n and basis.shape[0] > 0:
                graded = _stage_gram(basis, n, p, power, tal.blocks)
                assert np.array_equal(graded, _stage_gram(basis, n, p, power)), (name, p, power)
                ker = kernel_array(graded.T, p)
                reduced, rank, _ = rref_array((ker @ basis) % p, p)
                basis, power = reduced[:rank], power * p
            assert Subspace.span(tal.field, basis, ambient_dim=n * n) == artifacts(name, p).rad


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3]), n=st.sampled_from([3, 4, 5]), data=st.data())
def test_radical_with_derived_blocks_equals_one_block(p, n, data):
    count = data.draw(st.integers(1, 3))
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    gens = np.array(data.draw(st.lists(entries, min_size=count, max_size=count))).reshape(count, n, n)
    if data.draw(st.booleans()):
        gens = np.triu(gens)
    supports = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    idempotents = [np.diag(d) for d in data.draw(st.lists(supports, min_size=1, max_size=3))]
    alg = algebra_closure(field_ctx(p), np.concatenate([gens, idempotents]),
                          include_identity=data.draw(st.booleans()))
    assert radical(alg) == radical(_one_block(alg))


def test_non_homogeneous_claim_is_rejected_with_its_witness(artifacts):
    art = artifacts("cyclic-5", 2)
    ctx, blocks, n = art.ctx, art.talgebra.blocks, art.ctx.n
    mixed = (ctx.Estar[0] + ctx.Estar[1]).vec()
    want_pairs = sorted({(int(blocks[y]), int(blocks[y])) for y in np.flatnonzero(np.diagonal(mixed.reshape(n, n)))})
    claim = Subspace.span(art.field, mixed, ambient_dim=n * n)
    with pytest.raises(InternalInconsistency) as err:
        check_radical_postconditions(art.talgebra, claim)
    assert err.value.witness == ("claimed radical", 0, want_pairs)
    # a stage candidate with a mixed element is rejected the same way
    basis = np.concatenate([art.rad.basis, mixed[None]])
    with pytest.raises(InternalInconsistency) as err:
        _stage_gram(basis, n, 2, 2, blocks)
    assert err.value.witness == (2, len(art.rad.basis), want_pairs)


def _quotient_by_pivot_loop(algebra, ideal):
    # reference: every product of complement representatives, reduced
    # modulo the ideal one pivot at a time
    p, n, k = algebra.field.p, algebra.n, algebra.dim
    if ideal.dim == k:
        return None
    if ideal.dim == 0:
        icoords, ipivots = np.zeros((0, k), dtype=np.int64), []
    else:
        reduced, rank, ipivots = rref_array(algebra.space.coords(ideal.basis), p)
        icoords = reduced[:rank]
    comp = [c for c in range(k) if c not in set(ipivots)]
    q = len(comp)
    reps = algebra.space.basis[comp].reshape(q, n, n)
    prods = np.einsum("aij,bjk->abik", reps, reps) % p
    coords = algebra.space.coords(prods.reshape(q * q, n * n)) % p
    for row, pc in zip(icoords, ipivots):
        coords = (coords - np.outer(coords[:, pc], row)) % p
    reg = coords[:, comp].reshape(q, q, q).transpose(0, 2, 1)
    return Subspace.span(algebra.field, reg.reshape(q, q * q), ambient_dim=q * q)


def test_quotient_elimination_equals_the_pivot_loop(artifacts, schemes):
    for name in schemes:
        for p in (2, 3):
            art = artifacts(name, p)
            zero = Subspace.zero(art.field, art.ctx.n ** 2)
            for ideal in (art.rad, art.b1.space, art.ann, zero):
                fast = _quotient_regular_rep(art.talgebra, ideal)
                want = _quotient_by_pivot_loop(art.talgebra, ideal)
                assert (fast is None) == (want is None), (name, p)
                if want is not None:
                    assert fast.space == want, (name, p)
