from dataclasses import replace

import numpy as np
import pytest
from test_talg import _central_by_full_basis, _ideal_by_full_basis

from modtalg import analysis, characterize
from modtalg.analysis import analyze, compute_artifacts, scheme_artifacts
from modtalg.characterize import (
    _complement_ideal,
    b0_unit_element,
    check_corollary,
    check_equivalences,
)
from modtalg.errors import InternalInconsistency
from modtalg.ffmat import Subspace, field_ctx, pairwise_mod, solve_array
from modtalg.scheme import gen_hamming, validate_axioms
from modtalg.talg import AlgebraBasis, _claim

PRIMES = (2, 3, 5, 7)


def test_cyclic5_p3_all_true(artifacts):
    c = check_equivalences(artifacts("cyclic-5", 3))
    assert all(c.computed().values())
    assert c.consistent


def test_hamming22_p2_all_false(artifacts):
    c = check_equivalences(artifacts("hamming-2-2", 2))
    assert not any(c.computed().values())
    assert c.consistent


def test_order12_verdicts(artifacts):
    assert not any(check_equivalences(artifacts("as12-no21", 2)).computed().values())
    assert all(check_equivalences(artifacts("as12-no21", 3)).computed().values())


def test_theorem_consistency_sweep(artifacts, schemes):
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            c = check_equivalences(art)
            values = set(c.computed().values())
            assert len(values) == 1, (name, p)
            assert c.i_pprime == art.strata.p_prime_valenced


def test_implied_items_copy_item_i(artifacts):
    c = check_equivalences(artifacts("cyclic-5", 3))
    implied = c.implied
    assert set(implied) == {
        "vii_regular_summands",
        "x_irreducible_thin_support",
        "xi_semiprimary",
    }
    for entry in implied.values():
        assert entry["value"] == c.i_pprime
        assert entry["provenance"] == "by theorem equivalence"


def test_corollary_sweep(artifacts, schemes):
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            c = check_equivalences(art)
            cc = check_corollary(art, c)
            assert cc.b0_simple_unital == cc.rad_thin_kills == c.i_pprime
            assert cc.consistent


def test_unit_element_matches_formula_when_pprime(artifacts, schemes):
    # the solved identity element coincides with the closed form sum_i k_i^-1 E_i* J E_i*
    for name in schemes:
        for p in (2, 3):
            art = artifacts(name, p)
            solved = b0_unit_element(art)
            if art.strata.p_prime_valenced:
                formula = sum(pow(int(k), p - 2, p) * art.ctx.eje(i, i)
                              for i, k in enumerate(art.scheme.valencies)) % p
                assert solved is not None
                assert np.array_equal(solved, formula), (name, p)
            else:
                assert solved is None


def test_b0_unit_is_central_where_it_exists(artifacts, schemes):
    # item (ii) reads "unit is not None"; centrality is the lemma of check_equivalences
    found = 0
    for name, s in schemes.items():
        for p in PRIMES:
            for x in range(s.n):
                art = artifacts(name, p, x)
                unit = b0_unit_element(art)
                if unit is not None:
                    assert _central_by_full_basis(art.talgebra, unit), (name, p, x)
                    found += 1
    assert found >= 100


def _unit_by_dense_solve(art):
    # e b = b and b e = b on every entry of every product, as a reference
    p, n, k = art.field.p, art.ctx.n, art.b0.dim
    basis = art.b0.expand().basis
    bm = basis.reshape(k, n, n)
    left = np.einsum("aij,bjk->baik", bm, bm).reshape(k, k, n * n).transpose(0, 2, 1)
    right = np.einsum("bij,ajk->baik", bm, bm).reshape(k, k, n * n).transpose(0, 2, 1)
    system = np.concatenate([left.reshape(-1, k), right.reshape(-1, k)]) % p
    sol = solve_array(system, np.concatenate([basis.reshape(-1)] * 2), p)
    return None if sol is None else ((sol @ basis) % p).reshape(n, n)


def test_unit_element_matches_dense_solve(artifacts, schemes):
    for name in schemes:
        for p in PRIMES:
            art = artifacts(name, p)
            solved, want = b0_unit_element(art), _unit_by_dense_solve(art)
            assert (solved is None) == (want is None), (name, p)
            if want is not None:
                assert np.array_equal(solved, want), (name, p)


def test_consistency_across_base_points(schemes):
    # the characterization never flips with the base point
    for name, s in schemes.items():
        for p in (2, 3):
            report = analyze(s, field_ctx(p), range(s.n), scheme_id=name)
            assert report.characterization.consistent
            assert (
                report.characterization.i_pprime
                == report.characterization.ix_W0_selfcontra
            )


def test_report_serialization_is_stable(schemes):
    from modtalg.analysis import report_to_json

    s = schemes["cyclic-5"]
    r1 = report_to_json(analyze(s, field_ctx(3), [0], scheme_id="cyclic-5"))
    r2 = report_to_json(analyze(s, field_ctx(3), [0], scheme_id="cyclic-5"))
    assert r1 == r2
    assert '"schema": 1' in r1


def _complement_span(art, unit):
    # D = (I - e) T as n^2-long rows, every product dense
    p, n = art.field.p, art.ctx.n
    proj = (np.eye(n, dtype=np.int64) - unit) % p
    mats = art.talgebra.expand().basis.reshape(-1, n, n)
    return Subspace.span(art.field, pairwise_mod(proj[None], mats, p).reshape(len(mats), n * n),
                         ambient_dim=n * n)


def _complement_ideal_dense(art, unit):
    # the definition of (iii): D = (I - e) T is complementary to B0 and a two-sided ideal
    if unit is None:
        return False
    dspace, tal, b0 = _complement_span(art, unit), art.talgebra, art.b0.expand()
    return (dspace.dim + b0.dim == tal.dim
            and dspace.sum(b0).dim == tal.dim
            and _ideal_by_full_basis(tal, dspace))


def _complement_is_the_annihilator(art, unit):
    # the flat decision (iii) replaced: D = (I - e) T has the complementary
    # dimension and equals the certified Ann_T(W_0)
    if unit is None:
        return False
    dspace = _complement_span(art, unit)
    return dspace.dim + art.b0.dim == art.talgebra.dim and dspace == art.ann.expand()


def test_complement_ideal_matches_dense_definition(artifacts, schemes):
    for name, s in schemes.items():
        for p in PRIMES:
            for x in range(s.n):
                art = artifacts(name, p, x)
                unit = b0_unit_element(art)
                # 2e is not B0's unit, so both definitions must also agree on a refusal
                for e in (unit,) if unit is None else (unit, 2 * unit % p):
                    want = _complement_ideal_dense(art, e)
                    assert _complement_ideal(art, e) == want, (name, p, x)
                    assert _complement_is_the_annihilator(art, e) == want, (name, p, x)


def test_complement_ideal_matches_the_flat_decision_on_hamming_8_2_at_p3():
    # p'-valenced, no k_i = C(8, i) being divisible by 3, so B0's unit exists
    # and the flat decision forms (I - e) T for all 165 elements of T
    art = compute_artifacts(scheme_artifacts(validate_axioms(gen_hamming(8, 2)), field_ctx(3)), 0)
    unit = b0_unit_element(art)
    assert art.strata.p_prime_valenced and unit is not None
    assert _complement_ideal(art, unit) is _complement_is_the_annihilator(art, unit) is True


def _only_iii_fails(err):
    check, verdicts = err.value.witness
    assert check == "characterization"
    assert {k for k, v in verdicts.items() if not v} == {"iii_complement_ideal"}


def test_annihilator_missing_a_row_breaks_item_iii(artifacts):
    art = artifacts("cyclic-5", 3)
    ann = art.ann
    assert ann.dim > 0
    short = AlgebraBasis(art.field, None, ann.blocks, ann.pieces[1:], ann.grades[1:])
    with pytest.raises(InternalInconsistency, match="diverge") as err:
        check_equivalences(replace(art, ann=short))
    _only_iii_fails(err)


def test_annihilator_meeting_b0_breaks_item_iii(artifacts):
    # Ann with its last row traded for E_1* J E_1*: the dimensions still add
    # up to dim T, but the sum is no longer direct
    art = artifacts("cyclic-5", 3)
    eje = art.ctx.eje(1, 1).reshape(1, -1)
    ann = Subspace.span(art.field, np.concatenate([art.ann.expand().basis[:-1], eje]))
    assert ann.dim == art.ann.dim
    with pytest.raises(InternalInconsistency, match="diverge") as err:
        check_equivalences(replace(art, ann=_claim(art.talgebra, ann)))
    _only_iii_fails(err)


def test_doubled_unit_breaks_item_iii(artifacts, monkeypatch):
    art = artifacts("cyclic-5", 3)
    unit = b0_unit_element(art)
    monkeypatch.setattr(characterize, "b0_unit_element", lambda a: 2 * unit % 3)
    with pytest.raises(InternalInconsistency, match="diverge") as err:
        check_equivalences(art)
    _only_iii_fails(err)


def test_corrupted_b0_unit_is_witnessed(artifacts, monkeypatch):
    # e + E_0* J E_1* is no longer central (it fails to commute with E_1*), but
    # (ii) now reads only that a unit exists, so (iii) must catch it
    art = artifacts("cyclic-5", 3)
    bad = (b0_unit_element(art) + art.ctx.eje(0, 1)) % 3
    assert not _central_by_full_basis(art.talgebra, bad)
    monkeypatch.setattr(characterize, "b0_unit_element", lambda a: bad)
    with pytest.raises(InternalInconsistency, match="^characterization booleans diverge$") as err:
        check_equivalences(art)
    _only_iii_fails(err)


def test_corollary_divergence_is_witnessed(artifacts):
    art = artifacts("cyclic-5", 3)
    c = check_equivalences(art)
    with pytest.raises(InternalInconsistency, match="corollary") as err:
        check_corollary(art, replace(c, vi_rad_thin_kills=False))
    assert err.value.witness == ("corollary", True, False, True)


def test_base_point_flip_is_witnessed(schemes, monkeypatch):
    real = analysis.check_equivalences

    def flip_away_from_0(art):
        c = real(art)
        return c if art.x == 0 else replace(c, ix_W0_selfcontra=not c.ix_W0_selfcontra)

    monkeypatch.setattr(analysis, "check_equivalences", flip_away_from_0)
    with pytest.raises(InternalInconsistency, match="changed between base points") as err:
        analyze(schemes["cyclic-5"], field_ctx(3), [0, 2])
    assert err.value.witness == ("base points", 0, 2)
