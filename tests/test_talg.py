import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modtalg.errors import (
    BasePointOutOfRange,
    IndexOutOfRange,
    InternalInconsistency,
    PrimeTooLarge,
)
from modtalg import analysis
from modtalg.analysis import compute_artifacts, scheme_artifacts
from modtalg.characterize import _thin_kills, b0_unit_element
from modtalg.ffmat import (
    Subspace,
    charpoly_coeffs,
    field_ctx,
    kernel_array,
    matmul_mod,
    pairwise_mod,
    rref_array,
)
from modtalg.oracles import word_closure_dim
from modtalg.primary import build_primary, filtration
from modtalg.scheme import (
    RelationTable,
    SchemeData,
    gen_cyclic,
    gen_hamming,
    gen_thin,
    strata,
    validate_axioms,
)
from modtalg import talg
from modtalg.talg import (
    AlgebraBasis,
    _stage_gram,
    algebra_closure,
    annihilator_W0,
    assert_two_sided_ideal,
    b0_b1,
    block_relations,
    build_context,
    check_radical_postconditions,
    generate_algebra,
    radical,
    triple_product,
)

PRIMES = (2, 3, 5, 7)


def _filtration(ctx):
    return filtration(ctx, strata(ctx.scheme, ctx.field), build_primary(ctx.scheme, ctx.field))


def test_context_identities_hold(schemes):
    # the defining identities are asserted inside build_context
    for name, s in schemes.items():
        for p in (2, 3):
            ctx = build_context(s, field_ctx(p), 0)
            assert ctx.gens.shape == (2 * (s.d + 1), s.n, s.n), name
            assert np.array_equal(ctx.A.sum(axis=0) % p, np.ones((s.n, s.n))), name
            assert np.array_equal(np.diagonal(ctx.Estar, axis1=1, axis2=2), ctx.u), name


def _scheme(entries, converse, valencies, d=None):
    # a SchemeData taken as given, without validate_axioms
    entries = np.array(entries, dtype=np.int64)
    table = RelationTable(n=len(entries), d=int(entries.max()) if d is None else d, entries=entries)
    return SchemeData(table, np.array(converse), np.array(valencies), tensor=None)


Z5 = gen_cyclic(5).entries  # converse (0, 1, 2), valencies (1, 2, 2)

# (scheme, base point, message, witness) for each identity a corrupted
# scheme can break.  "E_i* is not symmetric" and "dual idempotents not
# orthogonal" cannot be reached this way: the E_i* are diagonal 0/1
# matrices over a partition of the points.
CORRUPTED_SCHEMES = {
    "converse": (_scheme(Z5, [0, 2, 1], [1, 2, 2]), 0, "A_1^t != A_(i')",
                 ("A_i^t != A_(i')", 1)),
    "valencies": (_scheme(Z5, [0, 1, 2], [1, 2, 3]), 0, "J E_2* 1 != k_2 1",
                  ("J E_i* 1 != k_i 1", 2)),
    "identity relation": (_scheme([[1, 0], [0, 1]], [0, 1], [1, 1]), 0, "A_0 != I",
                          ("A_0 != I", (0, 0))),
    "d understated": (_scheme(Z5, [0, 1], [1, 2], d=1), 0, "sum of dual idempotents != I",
                      ("sum of dual idempotents != I", (2, 2))),
    "d understated off the base row": (
        _scheme([[0, 1, 1], [1, 0, 2], [1, 2, 0]], [0, 1], [1, 2], d=1), 0,
        "sum of adjacency matrices != J", ("sum of adjacency matrices != J", (1, 2))),
    "relation missing from the base row": (
        _scheme([[0, 1, 2], [1, 0, 1], [2, 1, 0]], [0, 1, 2], [1, 1, 1]), 1,
        "E_0* J E_2* vanished", ("E_i* J E_j* vanished", (0, 2))),
}


@pytest.mark.parametrize("corruption", CORRUPTED_SCHEMES)
def test_context_rejects_a_corrupted_scheme(corruption):
    s, x, message, witness = CORRUPTED_SCHEMES[corruption]
    with pytest.raises(InternalInconsistency, match=f"^{re.escape(message)}$") as err:
        build_context(s, field_ctx(3), x)
    assert err.value.witness == witness


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
    assert ctx.gens.tolist() == [[[1]], [[1]]]
    assert generate_algebra(ctx).dim == 1


def test_dual_idempotent_support_is_valency():
    s = validate_axioms(gen_cyclic(5))
    ctx = build_context(s, field_ctx(2), 0)
    assert int(np.count_nonzero(np.diagonal(ctx.Estar[1]))) == 2


def test_triple_product_with_identity_relation(schemes):
    for name, s in schemes.items():
        ctx = build_context(s, field_ctx(3), 0)
        for i in range(s.d + 1):
            assert np.array_equal(triple_product(ctx, i, 0, i), ctx.Estar[i]), name


def test_triple_product_action_on_ones(schemes):
    # E_i* A_j E_l* 1 = (p_{l j'}^i mod p) E_i* 1, both sides independently
    for name, s in schemes.items():
        for p in (2, 3):
            ctx = build_context(s, field_ctx(p), 0)
            for i in range(s.d + 1):
                for j in range(s.d + 1):
                    for l in range(s.d + 1):
                        ones = np.ones(s.n, dtype=np.int64)
                        lhs = triple_product(ctx, i, j, l) @ ones % p
                        coef = s.p(l, int(s.converse[j]), i) % p
                        rhs = coef * (ctx.Estar[i] @ ones) % p
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
                    if t.any():
                        assert np.array_equal(t, ctx.eje(i, l)), (name, i, j, l)


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


def _closure_by_full_rounds(f, gens):
    # reference: multiply the whole basis by every generator on both sides
    # and re-echelonize the whole stack until the dimension stops growing
    p, n = f.p, gens.shape[1]
    gens = gens % p
    seed = np.concatenate([gens.reshape(len(gens), -1), np.eye(n, dtype=np.int64).reshape(1, -1)])
    space = Subspace.span(f, seed, ambient_dim=n * n)
    while True:
        mats = space.basis.reshape(-1, n, n)
        left = np.einsum("gij,bjk->gbik", gens, mats) % p
        right = np.einsum("bij,gjk->gbik", mats, gens) % p
        stacked = np.concatenate([space.basis, left.reshape(-1, n * n), right.reshape(-1, n * n)])
        grown = Subspace.span(f, stacked, ambient_dim=n * n)
        if grown.dim == space.dim:
            return space
        space = grown


def _assert_closed(alg):
    # independent of how the closure ran, and of `Subspace.reduce`: adding
    # I, the generators g and every g b and b g (b in the basis) to the
    # basis leaves the rank unchanged
    n, p, basis = alg.n, alg.field.p, alg.expand().basis
    mats = basis.reshape(-1, n, n)
    left = np.einsum("gij,bjk->gbik", alg.generators, mats) % p
    right = np.einsum("bij,gjk->gbik", mats, alg.generators) % p
    everything = [basis, np.eye(n, dtype=np.int64).reshape(1, -1),
                  alg.generators.reshape(-1, n * n), left.reshape(-1, n * n),
                  right.reshape(-1, n * n)]
    assert rref_array(np.concatenate(everything), p)[1] == alg.dim


def _assert_closure_matches_full_rounds(f, gens):
    alg = algebra_closure(f, gens)
    want = _closure_by_full_rounds(f, gens)
    assert alg.expand().pivots == want.pivots
    assert alg.expand().basis.tobytes() == want.basis.tobytes()
    _assert_closed(alg)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), n=st.sampled_from([1, 2, 3, 4, 5]), data=st.data())
def test_worklist_closure_equals_the_full_round_fixpoint(p, n, data):
    count = data.draw(st.integers(1, 3))
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    gens = np.array(data.draw(st.lists(entries, min_size=count, max_size=count))).reshape(count, n, n)
    if data.draw(st.booleans()):
        gens = np.triu(gens)
    if data.draw(st.booleans()):
        supports = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        idempotents = [np.diag(d) for d in data.draw(st.lists(supports, min_size=1, max_size=3))]
        gens = np.concatenate([gens, idempotents])
    _assert_closure_matches_full_rounds(field_ctx(p), gens)


def test_worklist_closure_equals_the_full_round_fixpoint_on_the_corpus(schemes):
    for name, s in schemes.items():
        for p in PRIMES:
            for x in sorted({0, s.n - 1}):
                ctx = build_context(s, field_ctx(p), x)
                _assert_closure_matches_full_rounds(ctx.field, ctx.gens)


def _flat_worklist_closure(f, gens):
    # reference: the closure on flat n^2-long vectors.  Each round multiplies
    # the new elements on the left by every generator and reduces the
    # products against the whole span; `pairwise_mod` and `Subspace` keep it
    # exact at every prime `rref_array` accepts
    p, n = f.p, gens.shape[1]
    gens = np.asarray(gens, dtype=np.int64) % p
    seed = np.concatenate([gens.reshape(len(gens), -1), np.eye(n, dtype=np.int64).reshape(1, -1)])
    space = Subspace.span(f, seed, ambient_dim=n * n)
    frontier = space.basis
    while len(frontier):
        prods = pairwise_mod(gens, frontier.reshape(-1, n, n), p)
        space, frontier = space.adjoin(prods.reshape(-1, n * n))
    return space


def _assert_closure_matches_flat_worklist(f, gens):
    alg = algebra_closure(f, gens)
    want = _flat_worklist_closure(f, gens)
    assert alg.expand().pivots == want.pivots
    assert alg.expand().basis.tobytes() == want.basis.tobytes()


def _graded_stack(p, data):
    # diagonal 0/1 idempotents over a random partition whose blocks are not
    # contiguous (or none at all), plus random matrices with random supports
    if data.draw(st.booleans()):
        sizes = [1, data.draw(st.integers(10, 12))] + data.draw(st.lists(st.integers(1, 2), max_size=2))
    else:
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    labels = np.array(data.draw(st.permutations(np.repeat(np.arange(len(sizes)), sizes).tolist())))
    n = len(labels)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    unions = data.draw(st.lists(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)),
                                max_size=3))
    idempotents = [np.diag(np.array(chosen)[labels].astype(np.int64)) for chosen in unions]
    count = data.draw(st.integers(1, 3))
    density = data.draw(st.sampled_from([0.05, 0.2, 1.0]))
    mats = rng.integers(0, p, size=(count, n, n)) * (rng.random((count, n, n)) < density)
    if data.draw(st.booleans()):
        mats = np.triu(mats, 1)
    return np.concatenate([np.zeros((0, n, n), dtype=np.int64), mats, *[[e] for e in idempotents]])


# 3037000493 is the largest prime with (p-1)^2 < 2^63, the bound of `rref_array`
@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3, 3037000493]), data=st.data())
def test_piece_closure_equals_the_flat_worklist_closure(p, data):
    _assert_closure_matches_flat_worklist(field_ctx(p), _graded_stack(p, data))


def test_piece_closure_at_the_largest_prime_rref_accepts():
    p = 3037000493
    f = field_ctx(p)
    shift = np.eye(4, k=1, dtype=np.int64) * (p - 1)
    # one block, no idempotent: the seed spans I and N, and N^2 and N^3 take a round each
    alg = algebra_closure(f, shift[None])
    assert alg.dim == 4 and alg.blocks.tolist() == [0, 0, 0, 0]
    _assert_closure_matches_flat_worklist(f, shift[None])
    rng = np.random.default_rng(3)
    high = rng.integers(p - 5, p, size=(2, 5, 5))
    _assert_closure_matches_flat_worklist(f, np.concatenate([high, [np.diag([1, 0, 1, 0, 0])]]))


def test_piece_closure_equals_the_flat_worklist_closure_on_stretch_inputs():
    for s, p, x in ((gen_cyclic(16), 2, 1), (gen_cyclic(14), 3, 0), (gen_hamming(6, 2), 2, 0),
                    (gen_hamming(4, 3), 3, 0)):
        ctx = build_context(validate_axioms(s), field_ctx(p), x)
        _assert_closure_matches_flat_worklist(ctx.field, ctx.gens)


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
    art = compute_artifacts(scheme_artifacts(validate_axioms(gen_thin([[0, 1], [1, 0]])), field_ctx(3)), 0)
    e = b0_unit_element(art)
    assert np.array_equal(e, art.ctx.eje(0, 0) + art.ctx.eje(1, 1))


def test_b0_identity_cyclic5_p3_central():
    art = compute_artifacts(scheme_artifacts(validate_axioms(gen_cyclic(5)), field_ctx(3)), 0)
    e = b0_unit_element(art)
    bm = art.b0.expand().basis.reshape(-1, art.ctx.n, art.ctx.n)
    assert np.array_equal((e @ bm) % 3, bm) and np.array_equal((bm @ e) % 3, bm)
    tm = art.talgebra.expand().basis.reshape(-1, art.ctx.n, art.ctx.n)
    assert np.array_equal((e @ tm) % 3, (tm @ e) % 3)


def test_b0_identity_not_pprime():
    # hamming(2,2) at p=2: k_1 = 2, so K = (u_i . u_j) is singular
    art = compute_artifacts(scheme_artifacts(validate_axioms(gen_hamming(2, 2)), field_ctx(2)), 0)
    assert b0_unit_element(art) is None


def _cyclic5_p3():
    ctx = build_context(validate_axioms(gen_cyclic(5)), field_ctx(3), 0)
    return ctx, generate_algebra(ctx)


def test_dependent_b0_spanning_set_is_witnessed():
    # E_2* 1 replaced by E_1* 1, so E_0* J E_2* = E_0* J E_1* would be the
    # first dependent pair; T's block 0, the points {2, 3} of relation 2, is
    # now no support, and its first point lies in none: the block check that
    # b0_b1 rests on names point 0 of u_0, which that block lacks
    ctx, t = _cyclic5_p3()
    ctx.u = ctx.u[[0, 1, 1]]
    with pytest.raises(InternalInconsistency, match="^the blocks of T are not the supports") as err:
        block_relations(ctx, t)
    assert err.value.witness == ("Ann_T(W0) blocks", 0, 0)


def test_b0_outside_the_algebra_is_witnessed():
    # the algebra of the E_i* alone has the blocks of T(x), but it is
    # diagonal: it holds E_0* J E_0* = e_x e_x^T and misses E_0* J E_1*
    ctx, _ = _cyclic5_p3()
    diagonal = algebra_closure(ctx.field, ctx.Estar)
    with pytest.raises(InternalInconsistency, match="^B0 not contained in T$") as err:
        b0_b1(diagonal, block_relations(ctx, diagonal), _filtration(ctx))
    assert err.value.witness == ("B0 not contained in T", (0, 1))


def _closure_of(f, mats):
    return algebra_closure(f, np.array(mats, dtype=np.int64))


def test_radical_upper_triangular():
    for p in (2, 3, 5):
        f = field_ctx(p)
        alg = _closure_of(f, [[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
        assert alg.dim == 3
        rad = radical(alg)
        assert rad.dim == 1
        assert not rad.expand().outside([[0, 1, 0, 0]]).size


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
    alg = _closure_of(ctx.field, [ctx.A[1]])
    assert alg.dim == 2
    rad = radical(alg)
    assert rad.dim == 1
    assert not rad.expand().outside([(np.eye(2, dtype=np.int64) + ctx.A[1]).reshape(-1) % 2]).size


def test_radical_cyclic5_p3_is_zero(artifacts):
    assert artifacts("cyclic-5", 3).rad.dim == 0


def test_radical_postconditions_reject_corruption(artifacts):
    art = artifacts("cyclic-5", 2)
    rad = art.rad.expand()
    extra = next(row for row in art.talgebra.expand().basis if rad.outside([row]).size)
    corrupted = Subspace.span(
        art.field,
        np.concatenate([rad.basis, extra[None, :]]),
        ambient_dim=art.ctx.n**2,
    )
    with pytest.raises(InternalInconsistency):
        check_radical_postconditions(art.talgebra, corrupted)


@pytest.mark.parametrize("name,p", [("cyclic-5", 2), ("hamming-3-2", 3)])
def test_radical_postconditions_reject_deficient_candidates(artifacts, name, p):
    # subspaces strictly inside the radical: their flag is not invariant,
    # or is annihilated by more than them, or leaves a non-semisimple quotient
    art = artifacts(name, p)
    without_last = Subspace.span(art.field, art.rad.expand().basis[:-1], ambient_dim=art.ctx.n**2)
    for candidate in (Subspace.zero(art.field, art.ctx.n**2), without_last):
        with pytest.raises(InternalInconsistency):
            check_radical_postconditions(art.talgebra, candidate)


def test_radical_postconditions_reject_candidates_outside_the_algebra():
    # T = GF(2) I in 2 x 2 matrices: span{E_12} is nilpotent, and I
    # preserves its flag, but it does not lie in T
    scalars = algebra_closure(field_ctx(2), np.eye(2, dtype=np.int64)[None])
    outside = Subspace.span(scalars.field, [[0, 1, 0, 0]], ambient_dim=4)
    with pytest.raises(InternalInconsistency, match="not contained in the algebra") as err:
        check_radical_postconditions(scalars, outside)
    assert err.value.witness == ("containment", 0)


def _first_flag_escape(alg, claim):
    # reference: the flag V_(k+1) = claim V_k from the products r v, one
    # vector at a time, and the first (k, g, v) with generator g sending
    # basis vector v of V_k outside V_k; None if the flag stalls above 0
    # or every V_k is invariant
    n, p = alg.n, alg.field.p
    flag = [Subspace.span(alg.field, np.eye(n, dtype=np.int64))]
    while flag[-1].dim:
        pushed = [r @ v % p for r in claim.basis.reshape(-1, n, n) for v in flag[-1].basis]
        below = Subspace.span(alg.field, np.array(pushed).reshape(-1, n), ambient_dim=n)
        if below.dim == flag[-1].dim:
            return None
        flag.append(below)
    for k, vk in enumerate(flag):
        for g, gen in enumerate(alg.generators):
            for v, vec in enumerate(vk.basis):
                if vk.outside([gen @ vec % p]).size:
                    return "flag", g, k, v
    return None


def test_non_ideal_radical_claim_is_witnessed(artifacts):
    # nilpotent claims inside the radical (one basis element, every other
    # one, all but the first, all but the last): the first that fails on
    # its flag is named as the reference finds it, the others fail later
    witnesses = []
    for name in ("cyclic-5", "hamming-2-2", "as12-no21"):
        for p in (2, 3):
            art = artifacts(name, p)
            tal, n, rad = art.talgebra, art.ctx.n, art.rad.expand().basis
            for rows in (rad[:1], rad[-1:], rad[::2], rad[1:], rad[:-1]):
                if len(rows) == 0 or len(rows) == len(rad):
                    continue
                claim = Subspace.span(tal.field, rows, ambient_dim=n * n)
                want = _first_flag_escape(tal, claim)
                with pytest.raises(InternalInconsistency) as err:
                    check_radical_postconditions(tal, claim)
                if want is None:
                    assert err.value.witness[0] in ("annihilator", "quotient"), (name, p, err.value.witness)
                    continue
                assert err.value.witness == want, (name, p, claim.dim)
                witnesses.append(want)
    # every coordinate of the witness varies over the cases
    assert [len({w[k] for w in witnesses}) > 1 for k in range(1, 4)] == [True] * 3


@pytest.mark.parametrize("name,p", [("cyclic-5", 2), ("cyclic-6", 2), ("hamming-3-2", 3),
                                    ("as12-no21", 2)])
def test_claim_annihilating_less_than_its_flag_is_witnessed(artifacts, name, p):
    # the radical less its first or its last basis element: a nilpotent
    # claim with an invariant flag (checked by the reference), so the
    # annihilator N of the flag lies in J(T), contains the claim and differs
    # from it; N = J(T), whose first or last basis element is the witness
    art = artifacts(name, p)
    tal, n, rad = art.talgebra, art.ctx.n, art.rad.expand().basis
    for rows, index in ((rad[1:], 0), (rad[:-1], len(rad) - 1)):
        claim = Subspace.span(tal.field, rows, ambient_dim=n * n)
        assert _first_flag_escape(tal, claim) is None
        with pytest.raises(InternalInconsistency) as err:
            check_radical_postconditions(tal, claim)
        assert err.value.witness == ("annihilator", index)


def test_square_of_the_radical_is_witnessed_by_its_annihilator():
    # upper triangular 3 x 3 matrices: J^2 = span{E_13} has the flag
    # V > span{e_1} > 0, annihilated by span{E_12, E_13}; E_12 is outside
    for p in (2, 3, 5):
        units = np.zeros((4, 3, 3), dtype=np.int64)
        for u, (i, j) in enumerate(((0, 0), (1, 1), (0, 1), (1, 2))):
            units[u, i, j] = 1
        alg = _closure_of(field_ctx(p), units)
        assert alg.dim == 6
        claim = Subspace.span(alg.field, [[0, 0, 1, 0, 0, 0, 0, 0, 0]], ambient_dim=9)
        with pytest.raises(InternalInconsistency) as err:
            check_radical_postconditions(alg, claim)
        assert err.value.witness == ("annihilator", 0)


@pytest.mark.parametrize("name,p", [("cyclic-5", 2), ("hamming-3-2", 3), ("as12-no21", 2)])
def test_zero_claim_on_a_non_semisimple_algebra_is_witnessed(artifacts, name, p):
    # the zero claim has the flag V > 0, so Phi is T itself and the stage
    # radical of the quotient is J(T)
    art = artifacts(name, p)
    assert art.rad.dim > 0
    with pytest.raises(InternalInconsistency) as err:
        check_radical_postconditions(art.talgebra, Subspace.zero(art.field, art.ctx.n ** 2))
    assert err.value.witness == ("quotient", art.rad.dim)


def test_quotient_rerun_is_on_n_by_n_matrices(artifacts, monkeypatch):
    # the certificate runs the stage radical once more, unverified, on the
    # action of T on the factors of the flag: matrices of T's own size
    calls = []

    def recorded(algebra, *, _verify=True):
        calls.append((algebra.n, algebra.dim, _verify))
        return radical(algebra, _verify=_verify)

    monkeypatch.setattr(talg, "radical", recorded)
    for name, p in (("cyclic-5", 3), ("cyclic-5", 2), ("hamming-3-2", 3)):
        art = artifacts(name, p)
        calls.clear()
        check_radical_postconditions(art.talgebra, art.rad)
        assert calls == [(art.ctx.n, art.talgebra.dim - art.rad.dim, False)], (name, p)


def _passes(check, alg, candidate):
    try:
        check(alg, candidate)
    except InternalInconsistency:
        return False
    return True


def _assert_nilpotent(algebra, ideal):
    # reference: the powers ideal^m, spanned by flat products, reach zero
    if ideal.dim == 0:
        return
    n, p = algebra.n, algebra.field.p
    imats = ideal.basis.reshape(-1, n, n)
    current = ideal
    for _ in range(algebra.dim + 1):
        if current.dim == 0:
            return
        prods = pairwise_mod(current.basis.reshape(-1, n, n), imats, p)
        nxt = Subspace.span(algebra.field, prods.reshape(-1, n * n), ambient_dim=n * n)
        if nxt.dim >= current.dim:
            break
        current = nxt
    if current.dim != 0:
        raise InternalInconsistency("claimed radical is not nilpotent", witness="nilpotency")


def _quotient_regular_rep(algebra, ideal):
    # reference: the left regular representation of algebra/ideal (ideal a
    # two-sided ideal inside the algebra), None for the zero quotient; the
    # coordinates modulo the ideal come from one product with its fully
    # reduced echelon basis
    field, p, n, k = algebra.field, algebra.field.p, algebra.n, algebra.dim
    if ideal.dim == k:
        return None
    flat = algebra.expand()
    icoords, _, ipivots = rref_array(flat.coords(ideal.basis), p)
    comp = np.delete(np.arange(k), ipivots)
    q = len(comp)
    reps = flat.basis[comp].reshape(q, n, n)
    coords = flat.coords(pairwise_mod(reps, reps, p).reshape(q * q, n * n))
    assert coords is not None
    qcoords = (coords[:, comp] - matmul_mod(coords[:, ipivots], icoords[:, comp], p)) % p
    # reg(a)[:, b] = quotient coordinates of rep_a rep_b
    reg = qcoords.reshape(q, q, q).transpose(0, 2, 1)
    space = Subspace.span(field, reg.reshape(q, q * q), ambient_dim=q * q)
    assert space.dim == q
    return _one_block(field, space, space.basis.reshape(q, q, q))


def _check_by_quotient_rerun(alg, candidate):
    # reference: the certificate on the quotient's regular representation
    # (two-sided ideal, nilpotent, and a zero stage radical of T/candidate)
    assert_two_sided_ideal(alg, candidate, "radical")
    _assert_nilpotent(alg, candidate)
    quotient = _quotient_regular_rep(alg, candidate)
    if quotient is not None and radical(quotient, _verify=False).dim != 0:
        raise InternalInconsistency("quotient has a nonzero radical")


def _flat_factor_action(flag, mats, p):
    # the action of each n x n matrix on the factors V_k / V_(k+1) of an
    # invariant flag, block diagonal, each factor in the basis of the rows
    # of V_k's echelon basis whose pivots V_(k+1) lacks
    n = mats.shape[-1]
    phi = np.zeros_like(mats)
    start = 0
    for upper, lower in zip(flag, flag[1:]):
        top = ~np.isin(upper.pivots, lower.pivots)
        rows, cols = upper.basis[top], np.array(upper.pivots)[top]
        images = pairwise_mod(mats, rows[:, :, None], p).reshape(-1, n)
        coords = lower.reduce(images)[1][:, cols].reshape(len(mats), len(rows), len(rows))
        phi[:, start : start + len(rows), start : start + len(rows)] = coords.transpose(0, 2, 1)
        start += len(rows)
    return phi


def _flat_flag_certificate(algebra, rad):
    # reference: the Loewy-flag certificate on flat vectors of length n,
    # Phi(T) from a second closure of the Phi(g); the witness of the first
    # step that fails, None when the claim passes
    field, n, p, flat = algebra.field, algebra.n, algebra.field.p, algebra.expand()
    outside = flat.outside(rad.basis)
    if outside.size:
        return "containment", int(outside[0])
    rmats = rad.basis.reshape(-1, n, n)
    flag = [Subspace.span(field, np.eye(n, dtype=np.int64))]
    while flag[-1].dim:
        pushed = pairwise_mod(rmats, flag[-1].basis[:, :, None], p).reshape(-1, n)
        below = Subspace.span(field, pushed, ambient_dim=n)
        if below.dim == flag[-1].dim:
            return "nilpotency", len(flag) - 1, below.dim
        flag.append(below)
    gens = algebra.generators
    for k, vk in enumerate(flag[1:-1], start=1):
        escaped = vk.outside(pairwise_mod(gens, vk.basis[:, :, None], p).reshape(-1, n))
        if escaped.size:
            g, v = divmod(int(escaped[0]), vk.dim)
            return "flag", g, k, v
    quotient = algebra
    if rad.dim:
        quotient = algebra_closure(field, _flat_factor_action(flag, gens, p))
        if quotient.dim + rad.dim != algebra.dim:
            image = _flat_factor_action(flag, flat.basis.reshape(-1, n, n), p).reshape(algebra.dim, n * n)
            kernel = matmul_mod(kernel_array(image.T, p), flat.basis, p)
            return "annihilator", int(rad.outside(Subspace.span(field, kernel, ambient_dim=n * n).basis)[0])
    again = radical(quotient, _verify=False)
    return ("quotient", again.dim) if again.dim else None


def _witness(alg, claim):
    try:
        check_radical_postconditions(alg, claim)
    except InternalInconsistency as err:
        return err.witness
    return None


def _assert_certificates_agree(alg):
    # the radical, 0, the radical less its first or its last row, and the
    # radical plus the first row of T outside it: the same verdict and the
    # same witness on pieces as on flat vectors
    field, n, flat = alg.field, alg.n, alg.expand()
    rad = radical(alg, _verify=False).expand()
    extra = flat.basis[rad.outside(flat.basis)[:1]]
    claims = [rad, Subspace.zero(field, n * n)] + [
        Subspace.span(field, rows, ambient_dim=n * n)
        for rows in (rad.basis[1:], rad.basis[:-1], np.concatenate([rad.basis, extra]))]
    for claim in claims:
        assert _witness(alg, claim) == _flat_flag_certificate(alg, claim), claim.dim
    assert _witness(alg, rad) is None


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 3037000493]), data=st.data())
def test_piece_certificate_equals_the_flat_certificate(p, data):
    _assert_certificates_agree(algebra_closure(field_ctx(p), _graded_stack(p, data)))


def test_piece_certificate_equals_the_flat_certificate_on_the_corpus(schemes):
    for name, s in schemes.items():
        for p in (2, 3):
            _assert_certificates_agree(generate_algebra(build_context(s, field_ctx(p), 0)))


def test_claim_with_a_row_of_two_grades_is_witnessed(artifacts):
    # inside the radical, so in T and nilpotent, but its echelon row i joins
    # radical rows i < j of different grades: J(T) is graded, so the claim
    # is rejected at once, and the flat certificate rejects it too
    rows = []
    for name, p in (("cyclic-5", 2), ("hamming-2-2", 2), ("hamming-3-2", 3), ("as12-no21", 2)):
        art = artifacts(name, p)
        tal, rad, n = art.talgebra, art.rad.expand().basis, art.ctx.n
        blocks = tal.blocks
        grades = [{(int(blocks[r]), int(blocks[c])) for r, c in zip(*np.nonzero(row.reshape(n, n)))}
                  for row in rad]
        assert all(len(g) == 1 for g in grades)
        i, j = max((i, j) for i in range(len(rad)) for j in range(i + 1, len(rad)) if grades[i] != grades[j])
        rows.append(i)
        mixed = np.concatenate([rad[:i], [(rad[i] + rad[j]) % p]])
        claim = Subspace.span(tal.field, mixed, ambient_dim=n * n)
        assert np.array_equal(claim.basis, mixed)
        message = f"^row {i} of the claimed radical is not homogeneous$"
        with pytest.raises(InternalInconsistency, match=message) as err:
            check_radical_postconditions(tal, claim)
        assert err.value.witness == ("graded", i)
        assert _flat_flag_certificate(tal, claim) is not None
    assert len(set(rows)) > 1


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3]), n=st.sampled_from([3, 4]), data=st.data())
def test_flag_certificate_agrees_with_quotient_rerun(p, n, data):
    count = data.draw(st.integers(2, 4))
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    gens = np.array(data.draw(st.lists(entries, min_size=count, max_size=count)))
    gens = gens.reshape(count, n, n)
    if data.draw(st.booleans()):
        gens = np.triu(gens)  # closures with a radical, most of the time
    if data.draw(st.booleans()):
        supports = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        gens = np.concatenate([gens, [np.diag(d) for d in data.draw(st.lists(supports, min_size=1, max_size=2))]])
    alg = algebra_closure(field_ctx(p), gens)
    rad, flat = radical(alg, _verify=False).expand(), alg.expand()
    candidates = [rad, Subspace.zero(alg.field, n * n)]
    if rad.dim:
        candidates.append(Subspace.span(alg.field, rad.basis[1:], ambient_dim=n * n))
    extra = rad.outside(flat.basis)
    candidates.append(Subspace.span(alg.field, np.vstack([rad.basis, flat.basis[extra[-1:]]]),
                                    ambient_dim=n * n))
    for candidate in candidates:
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
            mats = art.b1.expand().basis.reshape(-1, n, n)
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
            assert art.rad.expand().contains(art.b1.expand()), (name, p)


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
                sq = mixed @ mixed % p
                if np.array_equal(sq, ctx.eje(i, i)) and sq.any():
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
    assert annihilator_W0(t).dim == 0


def _flat_stage_kernels(alg):
    # reference: every stage kernel ker G^T solved as one system as wide as
    # the candidate, the stage loop of the radical before its graded solve
    p, sizes = alg.field.p, np.bincount(alg.blocks)
    pieces, grade, kers, power = alg.pieces, alg.grades, [], 1
    while power <= sizes.max() and len(pieces):
        ker = kernel_array(_stage_gram(pieces, grade, sizes, p, power).T, p)
        kers.append(ker)
        if len(ker) < len(pieces):
            pieces = matmul_mod(ker, pieces.reshape(len(pieces), -1), p).reshape(-1, *pieces.shape[1:])
            grade = grade[(ker != 0).argmax(axis=1)]
        power *= p
    return kers


def _flat_annihilator(ctx, alg):
    # reference: the kernel of Z -> (Z u_i)_i over all of T's basis, with the
    # rank of the images from a second elimination
    n, p = ctx.n, ctx.field.p
    basis = alg.expand().basis
    images = matmul_mod(basis.reshape(-1, n), ctx.u.T, p).reshape(alg.dim, -1)
    ker = kernel_array(images.T, p)
    ann = Subspace.span(ctx.field, matmul_mod(ker, basis, p), ambient_dim=n * n)
    return ker, rref_array(images.T, p)[1], ann


def _graded_solves(call):
    # the result of call() and every (ker, rank) its graded solves return
    graded_kernel, solved = talg._graded_kernel, []

    def recorded(images, grade, p, elements=False):
        solved.append(graded_kernel(images, grade, p, elements))
        return solved[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(talg, "_graded_kernel", recorded)
        return call(), solved


def _assert_graded_solves_are_the_flat_ones(alg, ctx=None):
    _, solved = _graded_solves(lambda: radical(alg, _verify=False))
    flat = _flat_stage_kernels(alg)
    assert len(solved) == len(flat)
    for (ker, _), want in zip(solved, flat):
        assert ker.dtype == want.dtype and ker.tobytes() == want.tobytes() and ker.shape == want.shape
    if ctx is not None:
        ann, [(ker, rank)] = _graded_solves(lambda: annihilator_W0(alg))
        want_ker, want_rank, want_ann = _flat_annihilator(ctx, alg)
        assert ker.shape == want_ker.shape and ker.tobytes() == want_ker.tobytes()
        ann = ann.expand()
        assert rank == want_rank and ann.basis.tobytes() == want_ann.basis.tobytes() and ann == want_ann


def test_graded_solves_equal_the_flat_solves_on_the_corpus(schemes):
    for name, s in schemes.items():
        for p in PRIMES:
            for x in range(s.n):
                ctx = build_context(s, field_ctx(p), x)
                _assert_graded_solves_are_the_flat_ones(generate_algebra(ctx), ctx)


@pytest.mark.parametrize("s", [gen_cyclic(16), gen_hamming(4, 3)], ids=["cyclic-16", "hamming-4-3"])
def test_graded_solves_equal_the_flat_solves_at_p3(s):
    ctx = build_context(validate_axioms(s), field_ctx(3), 0)
    _assert_graded_solves_are_the_flat_ones(generate_algebra(ctx), ctx)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 3037000493]), data=st.data())
def test_graded_stage_kernels_equal_the_flat_ones_on_graded_stacks(p, data):
    _assert_graded_solves_are_the_flat_ones(algebra_closure(field_ctx(p), _graded_stack(p, data)))


def test_annihilator_needs_the_blocks_to_be_the_supports(schemes, monkeypatch):
    # the Bose-Mesner algebra has one block; u_0 = e_x covers only point 0
    # of it.  The pipeline runs the check once, before the annihilator,
    # b0_b1 and the thin-kill items, which take its result
    ctx, _ = _cyclic5_p3()
    bose_mesner = algebra_closure(ctx.field, ctx.A)
    monkeypatch.setattr(analysis, "generate_algebra", lambda ctx: algebra_closure(ctx.field, ctx.A))
    for check in (lambda: block_relations(ctx, bose_mesner),
                  lambda: compute_artifacts(scheme_artifacts(schemes["cyclic-5"], field_ctx(3)))):
        with pytest.raises(InternalInconsistency, match="^the blocks of T are not the supports") as err:
            check()
        assert err.value.witness == ("Ann_T(W0) blocks", 0, 1)


# the annihilator solves its grades in one stacked kernel_array, which
# returns (rows, item, rank); the corruptions act on that result


def _drop_a_row(kernel):
    def corrupted(a, p, widths):
        rows, item, rank = kernel(a, p, widths)
        return rows[:-1], item[:-1], rank
    return corrupted


def _add_a_non_kernel_row(kernel):
    def corrupted(a, p, widths):
        rows, item, rank = kernel(a, p, widths)
        i, _, c = np.argwhere(a)[0]
        extra = np.zeros((1, a.shape[2]), dtype=np.int64)
        extra[0, c] = 1
        return np.concatenate([rows, extra]), np.append(item, i), rank
    return corrupted


@pytest.mark.parametrize("corrupt, witness", [
    (_drop_a_row, lambda w: w == "Ann_T(W0) dimension"),
    (_add_a_non_kernel_row, lambda w: w[0] == "Ann_T(W0)" and len(w) == 3),
])
def test_corrupted_annihilator_kernel_is_rejected(artifacts, monkeypatch, corrupt, witness):
    art = artifacts("cyclic-5", 3)
    assert art.ann.dim > 0
    monkeypatch.setattr(talg, "kernel_array", corrupt(kernel_array))
    with pytest.raises(InternalInconsistency) as err:
        annihilator_W0(art.talgebra)
    assert witness(err.value.witness), err.value.witness


def _flat_b0_b1(ctx):
    # reference: the spans of the (d+1)^2 outer products u_i u_j^T as
    # n^2-long rows, and of those with p | k_i k_j
    n, p, u = ctx.n, ctx.field.p, ctx.u
    divisible = np.array([int(k) % p == 0 for k in ctx.scheme.valencies])
    outer = (u[:, None, :, None] * u[None, :, None, :]).reshape(-1, n * n)
    pairs = (divisible[:, None] | divisible[None, :]).reshape(-1)
    return (Subspace.span(ctx.field, outer, ambient_dim=n * n),
            Subspace.span(ctx.field, outer[pairs], ambient_dim=n * n))


def _flat_thin_kills(art, space):
    # reference: E_i* Z and Z E_i* on the n x n matrices of a flat space
    mats = space.basis.reshape(-1, art.ctx.n, art.ctx.n)
    for i in art.strata.thin:
        pts = np.flatnonzero(art.ctx.u[i])
        if mats[:, pts].any() or mats[:, :, pts].any():
            return False
    return True


def _flat_graded_outside(algebra, sub, rows):
    # reference: n^2-long rows cut into their pieces, each reduced against
    # the piece of its grade of sub, a flat space with homogeneous rows
    if not sub.dim or not len(rows):
        return np.flatnonzero(rows.any(axis=1))
    mats = np.concatenate([sub.basis, rows]).reshape(-1, algebra.n, algebra.n)
    owner, grade, pieces = talg._cut(mats, algebra.blocks)
    ours, nb = owner < sub.dim, int(algebra.blocks.max()) + 1
    out = talg._outside(pieces[ours], grade[ours], pieces[~ours], grade[~ours], nb, algebra.field.p)
    return np.unique(owner[~ours][out] - sub.dim)


def test_graded_spaces_equal_their_flat_references_on_the_corpus(artifacts, schemes):
    for name, s in schemes.items():
        for p in PRIMES:
            for x in range(s.n):
                art = artifacts(name, p, x)
                assert (art.b0.expand(), art.b1.expand()) == _flat_b0_b1(art.ctx), (name, p, x)
                for space in (art.ann, art.rad):
                    assert _thin_kills(art, space) == _flat_thin_kills(art, space.expand()), (name, p, x)
                pairs = ((art.rad, art.b1), (art.ann, art.rad), (art.rad, art.b0), (art.ann, art.b0))
                for sub, other in pairs:
                    flat = sub.expand()
                    want = _flat_graded_outside(art.talgebra, flat, other.expand().basis)
                    assert np.array_equal(sub.outside(other), want), (name, p, x)
                    assert np.array_equal(want, flat.outside(other.expand().basis)), (name, p, x)


def test_annihilator_cyclic5_p3_contains_difference(artifacts):
    art = artifacts("cyclic-5", 3)
    z = (triple_product(art.ctx, 1, 1, 2) - triple_product(art.ctx, 1, 2, 2)) % 3
    assert z.any()
    assert not art.ann.expand().outside([z.reshape(-1)]).size
    # radical is zero here, so Ann is strictly larger than Rad
    assert art.rad.dim == 0 and art.ann.dim > 0


def test_annihilator_right_thin_kill(artifacts, schemes):
    # Z E_i* = O for every Z in Ann and every thin i, unconditionally
    for name, s in schemes.items():
        for p in PRIMES:
            art = artifacts(name, p)
            if art.ann.dim == 0:
                continue
            mats = art.ann.expand().basis.reshape(-1, art.ctx.n, art.ctx.n)
            for i in art.strata.thin:
                assert not ((mats @ art.ctx.Estar[i]) % p).any(), (name, p, i)


def test_radical_inside_annihilator_when_pprime(artifacts, schemes):
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            if art.strata.p_prime_valenced:
                assert art.ann.expand().contains(art.rad.expand()), (name, p)


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
            assert fast.expand() == brute, (p, gens.tolist())
            checked += 1
        total += checked
    assert total >= 12


def _ideal_by_full_basis(alg, space):
    # the definition: every product with every basis element of the algebra
    n, p = alg.n, alg.field.p
    if space.dim == 0:
        return True
    tm = alg.expand().basis.reshape(-1, n, n)
    im = space.basis.reshape(-1, n, n)
    left = np.einsum("aij,bjk->abik", tm, im) % p
    right = np.einsum("bij,ajk->abik", im, tm) % p
    prods = np.concatenate([left.reshape(-1, n * n), right.reshape(-1, n * n)])
    return space.coords(prods) is not None


def _central_by_full_basis(alg, m):
    tm = alg.expand().basis.reshape(-1, alg.n, alg.n)
    p = alg.field.p
    return np.array_equal((m @ tm) % p, (tm @ m) % p)


def _ideal_check(alg, space):
    assert_two_sided_ideal(alg, space, "candidate")


def test_generator_ideal_test_matches_full_basis(artifacts, schemes):
    for name, s in schemes.items():
        for p in (2, 3):
            art = artifacts(name, p)
            tal, n = art.talgebra, s.n
            for what, graded in (("B0", art.b0), ("B1", art.b1),
                                 ("Rad", art.rad), ("Ann", art.ann)):
                space = graded.expand()
                assert_two_sided_ideal(tal, space, what)
                assert _ideal_by_full_basis(tal, space), (name, p, what)
            if s.d == 0:
                continue
            # T E_0* is a left ideal; E_0* A_1 is outside it, so it is not a right ideal
            left = (tal.expand().basis.reshape(-1, n, n) @ art.ctx.Estar[0]) % p
            left_ideal = Subspace.span(art.field, left.reshape(-1, n * n), ambient_dim=n * n)
            assert not _passes(_ideal_check, tal, left_ideal), (name, p)
            assert not _ideal_by_full_basis(tal, left_ideal), (name, p)
            # the span of the A_i is closed under the A_i but not under the E_i*
            bose_mesner = Subspace.span(art.field, art.ctx.A.reshape(-1, n * n), ambient_dim=n * n)
            assert not _passes(_ideal_check, tal, bose_mesner), (name, p)
            assert not _ideal_by_full_basis(tal, bose_mesner), (name, p)


def test_trace_gram_reduces_before_int64_overflow():
    # 4^2 (p-1)^2 > 2^63 for p = 2^31 - 1, so one unreduced contraction wraps
    p, n, k = 2147483647, 4, 5
    rng = np.random.default_rng(3)
    basis = rng.integers(p - 1000, p, size=(k, n * n))
    mats = basis.astype(object).reshape(k, n, n)
    want = np.array([[int(np.trace(a @ b)) % p for b in mats] for a in mats])
    assert np.array_equal(_stage_gram(basis.reshape(-1, n, n), np.zeros(len(basis), dtype=np.int64),
                                      np.array([n]), p, 1), want)


@pytest.mark.parametrize("p, n", [(3037000493, 3), (2147483647, 3), (1000000007, 5)])
def test_trace_gram_is_exact_when_one_sum_leaves_int64(p, n):
    # n^2 (p-1)^2 >= 2^63, with int64 chunks of 1, 2 and 9 terms
    assert n * n * (p - 1) ** 2 >= 2**63
    rng = np.random.default_rng(p % 1000)
    basis = rng.integers(p - 50, p, size=(6, n * n))
    mats = basis.astype(object).reshape(-1, n, n)
    want = np.array([[int(np.trace(a @ b)) % p for b in mats] for a in mats])
    assert np.array_equal(_stage_gram(basis.reshape(-1, n, n), np.zeros(len(basis), dtype=np.int64),
                                      np.array([n]), p, 1), want)


def test_generator_products_peak_is_the_output_plus_one_megabyte():
    # the float64 temporaries of the kernel stay in blocks, not whole stacks
    tal = generate_algebra(build_context(validate_axioms(gen_cyclic(16)), field_ctx(2), 0))
    assert tal.dim == 130
    mats = tal.expand().basis.reshape(-1, tal.n, tal.n)
    tracemalloc.start()
    try:
        prods = talg._generator_products(tal.generators, mats, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= prods.nbytes + 2**20, (peak, prods.nbytes)


def _one_block(field, space, generators):
    # the algebra with the trivial grading: its one piece is all of it
    n = generators.shape[-1]
    return AlgebraBasis(field, generators, np.zeros(n, dtype=np.int64), space.basis.reshape(-1, n, n),
                        np.zeros(space.dim, dtype=np.int64))


def test_derived_blocks_are_the_subconstituents(schemes):
    for name, s in schemes.items():
        for x in sorted({0, s.n - 1}):
            ctx = build_context(s, field_ctx(2), x)
            blocks = generate_algebra(ctx).blocks
            derived = {frozenset(np.flatnonzero(blocks == b).tolist()) for b in set(blocks.tolist())}
            row = s.table.entries[x]
            want = {frozenset(np.flatnonzero(row == i).tolist()) for i in range(s.d + 1)}
            assert derived == want, (name, x)


def _flat_stage_gram(basis, n, p, power):
    # reference: the stage Gram on flat n^2-long rows with no grading, the
    # trace form for power 1, else Berkowitz on every full n x n product
    # (a zero product has det(tI - 0) = t^n, so it is skipped)
    k = len(basis)
    mats = basis.reshape(k, n, n)
    if power == 1:
        return matmul_mod(basis, mats.transpose(0, 2, 1).reshape(k, n * n).T, p)
    prods = pairwise_mod(mats, mats, p).reshape(k * k, n, n)
    gram = np.zeros(k * k, dtype=np.int64)
    nonzero = np.flatnonzero(prods.any(axis=(1, 2)))
    gram[nonzero] = charpoly_coeffs(prods[nonzero], p, upto=power)[:, power]
    return gram.reshape(k, k)


def _flat_rows(pieces, grade, blocks):
    # each homogeneous element as an n^2-long row, in the order given
    n, nb = len(blocks), int(blocks.max()) + 1
    rows = np.zeros((len(pieces), n, n), dtype=np.int64)
    for e, (piece, g) in enumerate(zip(pieces, grade.tolist())):
        r, c = np.flatnonzero(blocks == g // nb), np.flatnonzero(blocks == g % nb)
        rows[e][np.ix_(r, c)] = piece[: len(r), : len(c)]
    return rows.reshape(len(pieces), n * n)


def _radical_with_checked_grams(alg):
    # the unverified radical, with the Gram of every stage compared with the
    # flat reference on that stage's candidate; returns it and the powers
    stage_gram, powers = talg._stage_gram, []

    def checked(pieces, grade, sizes, p, power):
        gram = stage_gram(pieces, grade, sizes, p, power)
        want = _flat_stage_gram(_flat_rows(pieces, grade, alg.blocks), alg.n, p, power)
        assert np.array_equal(gram, want), power
        powers.append(power)
        return gram

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(talg, "_stage_gram", checked)
        return radical(alg, _verify=False), powers


def test_graded_stage_gram_equals_one_block_gram(artifacts, schemes):
    # every stage p^k up to the largest block, on T and on every candidate
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            rad, powers = _radical_with_checked_grams(art.talgebra)
            assert rad.expand() == art.rad.expand(), (name, p)
            assert powers and powers[0] == 1, (name, p)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 3037000493]), data=st.data())
def test_stage_grams_equal_the_flat_grams_on_graded_stacks(p, data):
    alg = algebra_closure(field_ctx(p), _graded_stack(p, data))
    rad, _ = _radical_with_checked_grams(alg)
    one_block = _one_block(alg.field, alg.expand(), alg.generators)
    assert rad.expand() == radical(one_block, _verify=False).expand()


def test_stage_grams_at_the_largest_prime_rref_accepts():
    p = 3037000493
    rng = np.random.default_rng(5)
    upper = np.triu(rng.integers(p - 5, p, size=(2, 5, 5)), 1)
    alg = algebra_closure(field_ctx(p), np.concatenate([upper, [np.diag([1, 0, 1, 0, 0])]]))
    rad, powers = _radical_with_checked_grams(alg)
    assert rad.dim > 0 and powers == [1]


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
    alg = algebra_closure(field_ctx(p), np.concatenate([gens, idempotents]))
    assert radical(alg).expand() == radical(_one_block(alg.field, alg.expand(), alg.generators)).expand()


def test_radical_certifies_only_a_nonzero_result(artifacts, monkeypatch):
    # a zero result is the certificate's own step 4 on T, just computed
    calls = []

    def recorded(algebra, rad):
        calls.append(rad.dim)
        check_radical_postconditions(algebra, rad)

    monkeypatch.setattr(talg, "check_radical_postconditions", recorded)
    semisimple, graded = artifacts("cyclic-5", 3), artifacts("cyclic-5", 2)
    assert radical(semisimple.talgebra).dim == 0 and calls == []
    rad = radical(graded.talgebra)
    assert rad.dim > 0 and calls == [rad.dim]


def test_non_homogeneous_claim_is_rejected_with_its_witness(artifacts, monkeypatch):
    art = artifacts("cyclic-5", 2)
    ctx, n = art.ctx, art.ctx.n
    mixed = (ctx.Estar[0] + ctx.Estar[1]).reshape(-1)
    # the idempotent E_0* + E_1* has pieces of grades (0, 0) and (1, 1): it
    # is rejected as not homogeneous before its flag is built (the flat
    # certificate found that flag stalling at V_1 = E_0* V + E_1* V)
    claim = Subspace.span(art.field, mixed, ambient_dim=n * n)
    message = "^row 0 of the claimed radical is not homogeneous$"
    with pytest.raises(InternalInconsistency, match=message) as err:
        check_radical_postconditions(art.talgebra, claim)
    assert err.value.witness == ("graded", 0)
    assert _flat_flag_certificate(art.talgebra, claim) == ("nilpotency", 1, 1 + 2)
    # a stage kernel row that mixes two grades is rejected with (p^k, row):
    # at stage 2, a row joining the first candidate to one of another grade,
    # added to the rows the stacked graded solve assembled
    stage_gram, grades = talg._stage_gram, []
    graded_kernel = talg._graded_kernel

    def recorded(pieces, grade, sizes, p, power):
        grades.append(grade)
        return stage_gram(pieces, grade, sizes, p, power)

    def mixing(images, grade, p, elements=False):
        ker, rank = graded_kernel(images, grade, p, elements)
        if len(grades) < 2:
            return ker, rank
        row = np.zeros((1, ker.shape[1]), dtype=np.int64)
        row[0, [0, np.flatnonzero(grades[-1] != grades[-1][0])[0]]] = 1
        return np.concatenate([ker[:1], row, ker[1:]]), rank

    monkeypatch.setattr(talg, "_stage_gram", recorded)
    monkeypatch.setattr(talg, "_graded_kernel", mixing)
    with pytest.raises(InternalInconsistency, match="^kernel row 1 at stage 2 is not homogeneous$") as err:
        radical(art.talgebra)
    assert err.value.witness == (2, 1)


def _quotient_by_pivot_loop(algebra, ideal):
    # reference: every product of complement representatives, reduced
    # modulo the ideal one pivot at a time
    p, n, k = algebra.field.p, algebra.n, algebra.dim
    if ideal.dim == k:
        return None
    flat = algebra.expand()
    if ideal.dim == 0:
        icoords, ipivots = np.zeros((0, k), dtype=np.int64), []
    else:
        reduced, rank, ipivots = rref_array(flat.coords(ideal.basis), p)
        icoords = reduced[:rank]
    comp = [c for c in range(k) if c not in set(ipivots)]
    q = len(comp)
    reps = flat.basis[comp].reshape(q, n, n)
    prods = np.einsum("aij,bjk->abik", reps, reps) % p
    coords = flat.coords(prods.reshape(q * q, n * n)) % p
    for row, pc in zip(icoords, ipivots):
        coords = (coords - np.outer(coords[:, pc], row)) % p
    reg = coords[:, comp].reshape(q, q, q).transpose(0, 2, 1)
    return Subspace.span(algebra.field, reg.reshape(q, q * q), ambient_dim=q * q)


def test_quotient_elimination_equals_the_pivot_loop(artifacts, schemes):
    for name in schemes:
        for p in (2, 3):
            art = artifacts(name, p)
            zero = Subspace.zero(art.field, art.ctx.n ** 2)
            for ideal in (art.rad.expand(), art.b1.expand(), art.ann.expand(), zero):
                fast = _quotient_regular_rep(art.talgebra, ideal)
                want = _quotient_by_pivot_loop(art.talgebra, ideal)
                assert (fast is None) == (want is None), (name, p)
                if want is not None:
                    assert fast.expand() == want, (name, p)
