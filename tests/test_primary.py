import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modtalg.errors import IndexOutOfRange, InternalInconsistency, InvalidParameter
from modtalg import analysis
from modtalg.ffmat import Subspace, field_ctx, kernel_array, matmul_mod, rref_array
from modtalg.oracles import count_subspaces, enumerate_subspaces, module_lattice_analysis
from modtalg.primary import (
    GeneratorAction,
    _diagonal_intertwining_system,
    _reachability,
    build_primary,
    closure_digraph,
    composition_factors,
    factor_action,
    filtration,
    hom_space,
    is_selfcontragredient,
    radical_layers,
    selfcontra_W0,
    verify_Ml_iso,
)
from modtalg.scheme import SchemeData, gen_cyclic, strata, validate_axioms
from modtalg.talg import AlgebraBasis, build_context, triple_product

PRIMES = (2, 3, 5, 7)


def test_primary_dimension(artifacts, schemes):
    for name, s in schemes.items():
        art = artifacts(name, 2)
        assert art.module.dim == s.d + 1
        assert len(art.filt[0]) == s.d + 1


def test_J_action_on_basis(schemes):
    # J E_i* 1 = (k_i mod p) 1
    for name, s in schemes.items():
        for p in (2, 3):
            ctx = build_context(s, field_ctx(p), 0)
            ones = np.ones(s.n, dtype=np.int64)
            for i in range(s.d + 1):
                lhs = np.ones((s.n, s.n), dtype=np.int64) @ (ctx.Estar[i] @ ones) % p
                assert np.array_equal(lhs, (int(s.valencies[i]) * ones) % p), name


def test_one_point_primary_module():
    ctx = build_context(validate_axioms(gen_cyclic(1)), field_ctx(2), 0)
    m = build_primary(ctx)
    assert m.dim == 1 and m.vectors.tolist() == [[1]]


def test_action_matches_direct_arithmetic(schemes):
    # column h of the A_j action equals the coordinates of A_j (E_h* 1)
    for name in ("cyclic-5", "hamming-2-2", "thin-s3"):
        s = schemes[name]
        ctx = build_context(s, field_ctx(3), 0)
        m = build_primary(ctx)
        for j in range(s.d + 1):
            for h in range(s.d + 1):
                img = ctx.A[j] @ m.vectors[h] % 3
                assert np.array_equal(img, m.action.actA[j][:, h] @ m.vectors % 3)


def test_filtration_pprime_is_simple(artifacts, schemes):
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            if art.strata.p_prime_valenced:
                assert len(art.filt[1]) == 0, (name, p)
                assert len(art.filt) == 2


def test_filtration_dims_order12_p2(artifacts):
    art = artifacts("as12-no21", 2)
    assert [len(w) for w in art.filt] == [5, 3, 2, 0]


def test_filtration_quotient_dims_are_strata_sizes(artifacts, schemes):
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            for m, sn in enumerate(art.strata.sets):
                assert len(art.filt[m]) - len(art.filt[m + 1]) == len(sn), (name, p)


def test_rad_times_W0_is_W1(schemes):
    # flat oracle at every base point: W_m, spanned by the n-long u_i with
    # p^m | k_i, is invariant and spanned by the u_i of filt[m]; Rad(T) W_m,
    # spanned by the products of the expanded radical with those u_i, is
    # spanned by the u_i of rad_layers[m]; and Rad(T) W_0 = W_1
    for name, s in schemes.items():
        for p in PRIMES:
            f = field_ctx(p)
            for x in range(s.n):
                art = analysis.compute_artifacts(s, f, x)
                n, u = s.n, art.ctx.u
                rmats = art.rad.expand().basis.reshape(-1, n, n)
                for m, w in enumerate(art.filt):
                    keep = u[art.strata.valuations >= m]
                    flat = Subspace.span(f, keep, ambient_dim=n)
                    assert flat == Subspace.span(f, u[w], ambient_dim=n), (name, p, x, m)
                    images = np.einsum("gij,bj->gbi", art.ctx.gens, keep) % p
                    assert flat.contains(Subspace.span(f, images.reshape(-1, n), ambient_dim=n))
                for m, layer in enumerate(art.rad_layers):
                    images = np.einsum("rij,bj->rbi", rmats, u[art.filt[m]]) % p
                    pushed = Subspace.span(f, images.reshape(-1, n), ambient_dim=n)
                    assert pushed == Subspace.span(f, u[layer], ambient_dim=n), (name, p, x, m)
                assert np.array_equal(art.rad_layers[0], art.filt[1]), (name, p, x)


def test_radical_image_outside_W0_is_witnessed(artifacts):
    # one more entry in the second row of a radical piece: its row sums, the
    # image of a basis vector of W_0, are no longer constant on the block
    art = artifacts("hamming-2-2", 2)
    rad, p, n = art.rad, art.field.p, art.ctx.n
    rows = np.bincount(rad.blocks)[rad.grades // len(art.relation)]
    pieces = rad.pieces.copy()
    pieces[np.flatnonzero(rows > 1)[0], 1, 0] += 1
    corrupted = AlgebraBasis(rad.field, None, rad.blocks, pieces % p, rad.grades)
    with pytest.raises(InternalInconsistency, match="out of W_0$") as err:
        radical_layers(corrupted, art.relation, art.filt)
    check, e, v = err.value.witness
    assert check == "Rad(T) W_0"
    w0 = Subspace.span(art.field, art.ctx.u)
    images = corrupted.expand().basis.reshape(-1, n, n) @ w0.basis.T % p
    assert w0.outside(images[e].T[[v]]).size
    assert not w0.outside(images[:e].transpose(0, 2, 1).reshape(-1, n)).size


def test_digraph_order12_components():
    from modtalg.fixtures import load_order12_no21

    s = load_order12_no21()
    g3 = closure_digraph(s, field_ctx(3))
    assert g3.same_class(3, 4)
    g2 = closure_digraph(s, field_ctx(2))
    assert not g2.same_class(3, 4)


def test_digraph_self_loops(schemes):
    for name, s in schemes.items():
        g = closure_digraph(s, field_ctx(2))
        assert g.adj.diagonal().all()
        for i in range(s.d + 1):
            assert g.same_class(i, i)


def test_digraph_components_partition(schemes):
    for name, s in schemes.items():
        for p in (2, 3):
            g = closure_digraph(s, field_ctx(p))
            seen = sorted(v for comp in g.components for v in comp)
            assert seen == list(range(s.d + 1))


def test_digraph_bounds():
    g = closure_digraph(validate_axioms(gen_cyclic(5)), field_ctx(2))
    with pytest.raises(IndexOutOfRange):
        g.same_class(0, 3)


def test_composition_order12_p2(artifacts):
    art = artifacts("as12-no21", 2)
    assert art.comp.qn == [[(0, 1)], [(2,)], [(3,), (4,)]]
    assert art.comp.composition_length == 4
    assert sorted(f.dim for f in art.comp.factors) == [1, 1, 1, 2]


def test_composition_pprime_single_factor(artifacts, schemes):
    for name, s in schemes.items():
        for p in PRIMES:
            art = artifacts(name, p)
            if art.strata.p_prime_valenced:
                assert art.comp.composition_length == 1
                assert art.comp.qn[0] == [tuple(range(s.d + 1))]


def test_composition_against_lattice_oracle(artifacts, schemes):
    for name, s in schemes.items():
        if s.d > 3:
            continue
        for p in (2, 3):
            art = artifacts(name, p)
            mats = art.module.action.all_mats()
            length, dims, uniserial = module_lattice_analysis(mats, p)
            assert length == art.comp.composition_length, (name, p)
            assert dims == sorted(f.dim for f in art.comp.factors), (name, p)
            assert uniserial == art.uniserial, (name, p)


def test_subspace_count_matches_enumeration():
    for p in (2, 3, 5):
        for m in range(5):
            assert count_subspaces(p, m) == sum(1 for _ in enumerate_subspaces(p, m)), (p, m)


def test_factor_labels_distinct(artifacts, schemes):
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            labels = [(f.level, f.cls) for f in art.comp.factors]
            assert len(set(labels)) == len(labels)


def test_factor_bases_decompose_quotients(artifacts, schemes):
    # classes of each level partition the stratum
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            for level, classes in enumerate(art.comp.qn):
                flat = sorted(i for cls in classes for i in cls)
                assert flat == sorted(art.strata.sets[level])


def test_uniserial_d1_always(artifacts, schemes):
    for name, s in schemes.items():
        if s.d != 1:
            continue
        for p in PRIMES:
            assert artifacts(name, p).uniserial, (name, p)


def test_uniserial_verdicts(artifacts):
    assert artifacts("as12-no21", 2).uniserial is False
    assert artifacts("thin-z4", 2).uniserial is True
    assert artifacts("cyclic-5", 2).uniserial is True


def test_Ml_iso_zero_column(artifacts, schemes):
    for name in schemes:
        art = artifacts(name, 2)
        assert verify_Ml_iso(art.ctx, 0, art.module)


def test_Ml_iso_all_columns_cyclic5():
    s = validate_axioms(gen_cyclic(5))
    for p in (2, 3):
        ctx = build_context(s, field_ctx(p), 0)
        m = build_primary(ctx)
        for l in range(s.d + 1):
            assert verify_Ml_iso(ctx, l, m)


def test_Ml_iso_bounds(artifacts):
    art = artifacts("cyclic-5", 2)
    with pytest.raises(IndexOutOfRange):
        verify_Ml_iso(art.ctx, 3, art.module)


def test_b0_decomposes_into_columns(artifacts, schemes):
    # B0 = direct sum over l of span{E_i* J E_l*}, dims (d+1) each
    for name, s in schemes.items():
        art = artifacts(name, 2)
        n = art.ctx.n
        total = Subspace.zero(art.field, n * n)
        for l in range(s.d + 1):
            col = Subspace.span(
                art.field,
                np.stack([art.ctx.eje(i, l).reshape(-1) for i in range(s.d + 1)]),
                ambient_dim=n * n,
            )
            assert col.dim == s.d + 1
            grown = total.sum(col)
            assert grown.dim == total.dim + col.dim  # the sum is direct
            total = grown
        assert total == art.b0.expand()


def test_contragredient_identity_and_double_dual(artifacts):
    art = artifacts("cyclic-5", 3)
    act = art.module.action
    dual = act.contragredient()
    # A_0 = I acts as the identity on both sides
    assert np.array_equal(dual.actA[0], np.eye(act.dim, dtype=np.int64))
    double = dual.contragredient()
    assert np.array_equal(double.actA, act.actA)
    assert np.array_equal(double.actE, act.actE)


def test_selfcontra_W0_equals_flag(artifacts, schemes):
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            assert art.w0_selfcontra == art.strata.p_prime_valenced, (name, p)


def test_selfcontra_hamming22_p2_false(artifacts):
    assert artifacts("hamming-2-2", 2).w0_selfcontra is False


def test_selfcontra_crosscheck_raises_on_bug(artifacts):
    art = artifacts("cyclic-5", 3)
    wrong = strata(artifacts("cyclic-5", 2).scheme, field_ctx(2))
    with pytest.raises(InternalInconsistency, match="contradicts") as err:
        selfcontra_W0(art.module, wrong)
    assert err.value.witness == ("self-duality of W_0", True, False)


def test_trivial_one_dim_module_selfcontra():
    f = field_ctx(3)
    conv = np.array([0])
    act = GeneratorAction(
        field=f,
        converse=conv,
        actA=np.ones((1, 1, 1), dtype=np.int64),
        actE=np.ones((1, 1, 1), dtype=np.int64),
    )
    assert is_selfcontragredient(act) is True


def test_selfcontra_rejects_non_coordinate_projectors(artifacts):
    act = artifacts("cyclic-5", 3).module.action
    off_diagonal = act.actE.copy()
    off_diagonal[1, 0, 1] = 1
    merged = act.actE.copy()
    merged[1] = act.actE[1] + act.actE[2]
    merged[2] = 0
    scaled = (2 * act.actE) % 3
    short = act.actE.copy()
    short[0] = 0
    for actE in (off_diagonal, merged, scaled, short):
        with pytest.raises(InvalidParameter):
            is_selfcontragredient(GeneratorAction(act.field, act.converse, act.actA, actE))


def explicit_map_intertwines(art, fac):
    """The paper's map diag(k_i / p^level mod p) on one composition factor is
    invertible and solves the diagonal intertwining equations with its dual."""
    p = art.field.p
    q = np.array([int(art.scheme.valencies[i]) // p**fac.level % p for i in fac.cls])
    system = _diagonal_intertwining_system(factor_action(art.module, fac.cls))
    return bool(q.all()) and not matmul_mod(system, q[:, None], p).any()


def test_factor_selfcontra_explicit_map(artifacts, schemes):
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            for fac in art.comp.factors:
                assert explicit_map_intertwines(art, fac), (name, p, fac)


def test_hom_space_of_identical_actions(artifacts):
    art = artifacts("cyclic-5", 3)
    act = art.module.action
    homs = hom_space(act, act)
    m = act.dim
    span = Subspace.span(act.field, homs.reshape(-1, m * m), ambient_dim=m * m)
    assert not span.outside([np.eye(m, dtype=np.int64).reshape(-1)]).size


def test_dim_E0_of_top_quotient_is_one(artifacts, schemes):
    # E_0* (W_0/W_1) is one-dimensional
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            s0 = list(art.strata.sets[0])
            sub = art.module.action.actE[0][np.ix_(s0, s0)]
            assert rref_array(sub, p)[1] == 1, (name, p)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_thin_word_products_collapse(data):
    # generator words with a thin first or last idempotent index land in
    # the one-dimensional span of E_{i0} J E_{ln}
    s = validate_axioms(gen_cyclic(6))
    p = data.draw(st.sampled_from([2, 3]))
    ctx = build_context(s, field_ctx(p), 0)
    thin = [i for i in range(s.d + 1) if int(s.valencies[i]) == 1]
    length = data.draw(st.integers(1, 4))
    triples = [
        (
            data.draw(st.integers(0, s.d)),
            data.draw(st.integers(0, s.d)),
            data.draw(st.integers(0, s.d)),
        )
        for _ in range(length)
    ]
    if data.draw(st.booleans()):
        i0 = data.draw(st.sampled_from(thin))
        triples[0] = (i0, triples[0][1], triples[0][2])
    else:
        ln = data.draw(st.sampled_from(thin))
        triples[-1] = (triples[-1][0], triples[-1][1], ln)
    prod = None
    for i, j, l in triples:
        term = triple_product(ctx, i, j, l)
        prod = term if prod is None else prod @ term % ctx.field.p
    target = ctx.eje(triples[0][0], triples[-1][2])
    span = Subspace.span(ctx.field, target.reshape(-1), ambient_dim=ctx.n**2)
    assert not span.outside([prod.reshape(-1)]).size


def test_composition_report_has_strata(artifacts):
    art = artifacts("as12-no21", 2)
    assert art.comp.epsilon == 2
    assert art.comp.strata_sets == ((0, 1), (2,), (3, 4))


def test_strong_classes_match_networkx(schemes):
    import networkx as nx

    rng = np.random.default_rng(23)
    for name, s in schemes.items():
        for p in (2, 3):
            g = closure_digraph(s, field_ctx(p))
            nxg = nx.from_numpy_array(g.adj.astype(int), create_using=nx.DiGraph)
            expected = sorted(tuple(sorted(c)) for c in nx.strongly_connected_components(nxg))
            assert sorted(g.components) == expected, (name, p)
    # random digraphs, with and without self-loops, through the closure helper
    for loops in (True, False):
        for _ in range(20):
            m = int(rng.integers(1, 13))
            adj = rng.random((m, m)) < rng.uniform(0.05, 0.5)
            if loops:
                np.fill_diagonal(adj, True)
            reach = _reachability(adj)
            nxg = nx.from_numpy_array(adj.astype(int), create_using=nx.DiGraph)
            closure = nx.transitive_closure(nxg, reflexive=True)
            assert np.array_equal(reach, nx.to_numpy_array(closure, nodelist=range(m)) > 0)
            mine = sorted({tuple(np.flatnonzero(row).tolist()) for row in reach & reach.T})
            expected = sorted(tuple(sorted(c)) for c in nx.strongly_connected_components(nxg))
            assert mine == expected


def _cyclic_span(field, mats, seed):
    # reference: the submodule generated by seed, grown by rref until it stops
    m = mats.shape[1]
    space = Subspace.span(field, seed, ambient_dim=m)
    while True:
        images = np.einsum("gij,bj->gbi", mats, space.basis) % field.p
        grown = space.sum(Subspace.span(field, images.reshape(-1, m), ambient_dim=m))
        if grown.dim == space.dim:
            return space
        space = grown


def test_reachable_coordinates_span_the_cyclic_submodule(artifacts, schemes):
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            modules = [art.module.action] + [
                factor_action(art.module, fac.cls) for fac in art.comp.factors
            ]
            for act in modules:
                eye = np.eye(act.dim, dtype=np.int64)
                reach = _reachability((act.actA % p).any(axis=0))
                for h in range(act.dim):
                    cyclic = _cyclic_span(art.field, act.all_mats(), eye[h])
                    reachable = Subspace.span(art.field, eye[reach[:, h]], ambient_dim=act.dim)
                    assert cyclic == reachable, (name, p, act.dim, h)


def _with_edge(art, g, i, h):
    # a copy of W_0 whose A_g also sends e_h to e_i
    module = build_primary(art.ctx)
    act_a = module.action.actA.copy()
    act_a[g, i, h] = 1
    module.action = dataclasses.replace(module.action, actA=act_a)
    return module


def test_merged_classes_fail_the_irreducibility_check(artifacts):
    # at p=2 the classes (3,) and (4,) of as12-no21 share S_2 and no A_k joins them
    art = artifacts("as12-no21", 2)
    ids = art.digraph.scc_ids.copy()
    ids[4] = ids[3]
    merged = dataclasses.replace(art.digraph, scc_ids=ids)
    with pytest.raises(InternalInconsistency, match="not regenerated") as err:
        composition_factors(art.ctx, art.strata, merged, art.module)
    assert err.value.witness == ("composition", 2, (3, 4), 3)


def test_edge_out_of_a_class_fails_the_invariance_check(artifacts):
    art = artifacts("as12-no21", 2)
    module = _with_edge(art, 1, 4, 3)
    with pytest.raises(InternalInconsistency, match="not invariant") as err:
        composition_factors(art.ctx, art.strata, art.digraph, module)
    assert err.value.witness == ("composition", 2, (3,), (4, 3))


def test_edge_below_the_level_fails_the_leak_check(artifacts):
    # with E_1* 1 put in W_1, the entry (0, 1) of A_1 (A_1 E_1* 1 = E_0* 1)
    # lies below the level of relation 1
    art = artifacts("as12-no21", 2)
    valuations = art.strata.valuations.copy()
    valuations[1] = 1
    raised = dataclasses.replace(art.strata, valuations=valuations)
    with pytest.raises(InternalInconsistency, match="^W_1 is not invariant under generator 1$") as err:
        filtration(art.ctx, raised, art.module)
    assert err.value.witness == (1, 1, 1)


def test_composition_rejects_non_coordinate_projectors(artifacts):
    art = artifacts("as12-no21", 2)
    module = build_primary(art.ctx)
    act_e = module.action.actE.copy()
    act_e[1] += act_e[2]
    act_e[2] = 0
    module.action = dataclasses.replace(module.action, actE=act_e)
    with pytest.raises(InvalidParameter):
        composition_factors(art.ctx, art.strata, art.digraph, module)


def test_empty_middle_stratum_pipeline(artifacts):
    # Hamming(2,3) at p=2 has valencies (1,4,4): valuations 0 and 2 only
    art = artifacts("hamming-2-3", 2)
    assert art.strata.sets == ((0,), (), (1, 2))
    assert art.strata.epsilon == 2
    assert [len(w) for w in art.filt] == [3, 2, 2, 0]
    assert art.comp.qn[1] == []
    assert art.comp.composition_length == 1 + len(art.comp.qn[2])


def _has_invertible_intertwiner(action):
    # reference: every projective point of Hom(M, M*), checked for full rank
    import itertools

    p = action.field.p
    homs = hom_space(action, action.contragredient())
    assert not (homs * (1 - np.eye(action.dim, dtype=np.int64))).any()  # all diagonal
    h = homs.shape[0]
    for lead in range(h):
        for tail in itertools.product(range(p), repeat=h - lead - 1):
            coeffs = np.zeros(h, dtype=np.int64)
            coeffs[lead] = 1
            coeffs[lead + 1 :] = tail
            phi = np.tensordot(coeffs, homs, axes=(0, 0)) % p
            if rref_array(phi, p)[1] == action.dim:
                return True
    return False


def test_selfcontra_equals_exhaustive_hom_search(artifacts, schemes):
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            modules = [art.module.action] + [
                factor_action(art.module, fac.cls) for fac in art.comp.factors
            ]
            for act in modules:
                expected = _has_invertible_intertwiner(act)
                assert is_selfcontragredient(act) is expected, (name, p, act.dim)


def _full_diagonal_system(action):
    # reference: the rows of every generator, E_j* included
    p, m = action.field.p, action.dim
    eye = np.eye(m, dtype=np.int64)
    rho, dual = action.all_mats(), action.contragredient().all_mats()
    system = rho[..., None] * eye[None, :, None, :] - dual[..., None] * eye[None, None, :, :]
    return system.reshape(-1, m) % p


def test_intertwining_system_without_E_rows_has_the_full_kernel(artifacts, schemes):
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            modules = [art.module.action] + [
                factor_action(art.module, fac.cls) for fac in art.comp.factors
            ]
            for act in modules:
                kept = kernel_array(_diagonal_intertwining_system(act), p)
                full = kernel_array(_full_diagonal_system(act), p)
                assert np.array_equal(kept, full), (name, p, act.dim)


def _b0_b1_unreachable(*args):
    raise AssertionError("b0_b1 ran on a filtration that is not invariant")


def test_non_invariant_W1_raises_before_b0_b1(schemes, monkeypatch):
    # claiming p | k_0 puts E_0* 1 into W_1, and A_2 E_0* 1 = E_2* 1 (k_2 = 1) leaves it
    real_strata = analysis.strata

    def valuation_of_k0_is_one(s, f):
        st_ = real_strata(s, f)
        vals = st_.valuations.copy()
        vals[0] = 1
        return dataclasses.replace(st_, valuations=vals)

    monkeypatch.setattr(analysis, "strata", valuation_of_k0_is_one)
    monkeypatch.setattr(analysis, "b0_b1", _b0_b1_unreachable)
    with pytest.raises(InternalInconsistency) as err:
        analysis.compute_artifacts(schemes["hamming-2-2"], field_ctx(2))
    assert err.value.witness == (1, 2, 0)


def test_non_invariant_W0_raises_before_b0_b1(schemes, monkeypatch):
    # E_1* 1 replaced by one point of Gamma_1(x): A_1 E_0* 1 = E_1* 1 leaves the span
    real_primary = analysis.build_primary

    def stray_vector(ctx):
        module = real_primary(ctx)
        vectors = module.vectors.copy()
        vectors[1, np.flatnonzero(vectors[1])[1:]] = 0
        module.vectors = vectors
        return module

    monkeypatch.setattr(analysis, "build_primary", stray_vector)
    monkeypatch.setattr(analysis, "b0_b1", _b0_b1_unreachable)
    for p in (2, 3):
        with pytest.raises(InternalInconsistency) as err:
            analysis.compute_artifacts(schemes["cyclic-5"], field_ctx(p))
        assert err.value.witness == (0, 1, 0), p


def _cyclic5_context(p=3):
    return build_context(validate_axioms(gen_cyclic(5)), field_ctx(p), 0)


def test_dependent_basis_vectors_are_witnessed():
    # E_2* 1 replaced by E_1* 1: the third vector depends on the first two
    ctx = _cyclic5_context()
    ctx.u = ctx.u[[0, 1, 1]]
    with pytest.raises(InternalInconsistency, match="not independent") as err:
        build_primary(ctx)
    assert err.value.witness == ("E_i* 1 independent", 2)


def test_action_that_T_does_not_have_is_witnessed_at_W0():
    # the action of A_1 also sends E_0* 1 to E_2* 1, which A_1 does not
    ctx = _cyclic5_context()
    module = build_primary(ctx)
    act_a = module.action.actA.copy()
    act_a[1, 2, 0] = 1
    module.action = dataclasses.replace(module.action, actA=act_a)
    with pytest.raises(InternalInconsistency, match="^W_0 is not invariant under generator 1$") as err:
        filtration(ctx, strata(ctx.scheme, ctx.field), module)
    assert err.value.witness == (0, 1, 0)


def test_action_against_a_corrupted_tensor_is_witnessed():
    ctx = _cyclic5_context()
    s = ctx.scheme
    tensor = s.tensor.copy()
    # entry (i, h) = (2, 0) of A_1 is p_{0 1'}^2
    tensor[0, s.converse[1], 2] += 1
    ctx.scheme = SchemeData(s.table, s.converse, s.valencies, tensor)
    with pytest.raises(InternalInconsistency, match="^action of A_1 disagrees") as err:
        build_primary(ctx)
    assert err.value.witness == ("action of A_j disagrees with p_{h j'}^i", (1, 2, 0))


def test_dual_idempotent_action_off_its_coordinate_is_witnessed():
    # E_1* also keeps the representative point of relation 2
    ctx = _cyclic5_context()
    module = build_primary(ctx)
    gens = ctx.gens.copy()
    gens[ctx.d + 2, module.reps[2], module.reps[2]] = 1
    ctx.gens = gens
    with pytest.raises(InternalInconsistency, match=r"^action of E_1\* is not") as err:
        build_primary(ctx)
    assert err.value.witness == ("action of E_j* is not the coordinate projector", (1, 2, 2))


def test_missing_self_loop_is_witnessed():
    s = validate_axioms(gen_cyclic(5))
    tensor = s.tensor.copy()
    tensor[1, :, 1] *= 3  # every p_{1 b}^1 vanishes mod 3
    with pytest.raises(InternalInconsistency, match="self-loop") as err:
        closure_digraph(SchemeData(s.table, s.converse, s.valencies, tensor), field_ctx(3))
    assert err.value.witness == ("self-loop", 1)


def test_split_bottom_stratum_is_witnessed(artifacts):
    # cyclic-5 at p=3 has S_0 = {0, 1, 2}; relation 2 given a class of its own
    art = artifacts("cyclic-5", 3)
    ids = art.digraph.scc_ids.copy()
    ids[2] = ids.max() + 1
    split = dataclasses.replace(art.digraph, scc_ids=ids)
    with pytest.raises(InternalInconsistency, match="bottom stratum") as err:
        composition_factors(art.ctx, art.strata, split, art.module)
    assert err.value.witness == ("bottom stratum", 2)
