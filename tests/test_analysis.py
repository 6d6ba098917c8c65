"""The cross-checks of `analysis.compute_artifacts` on corrupted artifacts,
and `analyze` on an empty list of base points: each failure is an
InternalInconsistency whose witness names the check and the offending
element."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from modtalg.analysis import _cross_checks, analyze, report_to_json
from modtalg.errors import InternalInconsistency
from modtalg.ffmat import Subspace, field_ctx
from modtalg.scheme import gen_cyclic, gen_hamming, validate_axioms
from modtalg.talg import AlgebraBasis

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def _raises(art):
    with pytest.raises(InternalInconsistency) as err:
        _cross_checks(art)
    return err.value


def test_uncorrupted_artifacts_pass(artifacts, schemes):
    for name in schemes:
        for p in (2, 3):
            _cross_checks(artifacts(name, p))


def _flat(art, m):
    # W_m as the span of its n-long u_i, in echelon order (by first points)
    return Subspace.span(art.field, art.ctx.u[art.filt[m]], ambient_dim=art.ctx.n)


def test_radical_image_outside_W1_is_witnessed(artifacts):
    art = artifacts("hamming-2-2", 2)
    n, w0 = art.ctx.n, _flat(art, 0)
    err = _raises(replace(art, filt=[art.filt[0], art.filt[0][:0], *art.filt[2:]]))
    assert str(err) == "Rad(T) W_0 != W_1"
    check, r, b = err.witness
    assert check == "Rad(T) W_0 in W_1"
    rad = art.rad.expand().basis
    image = rad[r].reshape(n, n) @ w0.basis[b] % 2
    assert image.any()
    # every earlier (element, vector) pair maps to zero
    earlier = rad[:r].reshape(-1, n, n) @ w0.basis.T % 2
    assert not earlier.any()


def test_W1_beyond_the_radical_image_is_witnessed(artifacts):
    art = artifacts("hamming-2-2", 2)
    err = _raises(replace(art, filt=[art.filt[0], art.filt[0], *art.filt[2:]]))
    assert str(err) == "Rad(T) W_0 != W_1"
    check, i = err.witness
    assert check == "W_1 in Rad(T) W_0"
    w0, w1 = _flat(art, 0), _flat(art, 1)
    assert w1.outside([w0.basis[i]]).size
    assert not w1.outside(w0.basis[:i]).size


def test_B1_outside_the_radical_is_witnessed(artifacts):
    art = artifacts("cyclic-5", 2)
    err = _raises(replace(art, b1=art.b0))
    assert str(err) == "B1 escapes the radical"
    check, i = err.witness
    assert check == "B1 in Rad(T)"
    rad, b0 = art.rad.expand(), art.b0.expand()
    assert rad.outside([b0.basis[i]]).size
    assert not rad.outside(b0.basis[:i]).size


def test_radical_outside_the_annihilator_is_witnessed(artifacts):
    # p'-valenced, so Rad(T) must lie in Ann(W_0); a radical that kills W_0
    # keeps the first two checks satisfied
    art = artifacts("cyclic-5", 3)
    assert art.strata.p_prime_valenced and art.ann.dim > 0
    ann = art.ann
    zero = AlgebraBasis(ann.field, None, ann.blocks, ann.pieces[:0], ann.grades[:0])
    err = _raises(replace(art, rad=ann, ann=zero))
    assert str(err) == "irreducible W_0 but Rad(T) not inside Ann(W_0)"
    assert err.witness == ("Rad(T) in Ann(W_0)", 0)
    assert np.any(ann.expand().basis[0])


def test_analysis_without_base_points_is_witnessed(schemes):
    with pytest.raises(InternalInconsistency, match="^no base points requested$") as err:
        analyze(schemes["cyclic-5"], field_ctx(3), [])
    assert err.value.witness == ("base points", ())


def test_analysis_never_expands_a_graded_space(monkeypatch):
    # T, B0, B1, Rad(T) and Ann_T(W_0) stay in pieces and W_0's submodules
    # in W_0's basis: the one helper that forms n^2-long rows is refused, and
    # so is every Subspace, span and zero included; the reports match their
    # goldens
    def refuse(space):
        raise AssertionError(f"{space} expanded to n^2-long rows")

    def refuse_subspace(self, *args, **kwargs):
        raise AssertionError("analyze built a Subspace")

    monkeypatch.setattr(AlgebraBasis, "expand", refuse)
    monkeypatch.setattr(Subspace, "span", classmethod(refuse_subspace))
    monkeypatch.setattr(Subspace, "__init__", refuse_subspace)
    for table, name, base_points, golden in (
            (gen_cyclic(16), "cyclic-16", (0,), GOLDEN / "cyclic16-p2" / "cyclic-16-p2.json"),
            (gen_hamming(3, 2), "hamming-3-2", range(8), GOLDEN / "corpus-allbp" / "hamming-3-2-p2.json")):
        report = analyze(validate_axioms(table), field_ctx(2), base_points, name)
        assert report_to_json(report) == golden.read_text(), name
