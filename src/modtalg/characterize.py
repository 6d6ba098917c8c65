"""Individually computable items of the p'-valenced characterization.

Eight of the equivalent statements are decided from the certified algebra
artifacts, each by its own computation or by a lemma whose inputs are
checked at run time; the remaining three (Krull-Schmidt counts and the
quantifications over all irreducible modules) are reported as implied by
item (i).  Computed booleans must agree on every input; divergence raises
InternalInconsistency because the statements are provably equivalent.
Item (ii) rests on B0's unit, which comes from K^-1: its centrality
follows from B0 being an ideal (see `check_equivalences`).  Item (iii) is
decided as T = B0 (+) Ann_T(W_0) on the pieces of the certified ideals,
which also checks the unit that (ii) found (see `_complement_ideal`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistency
from .ffmat import matmul_mod, rref_array
from .talg import AlgebraBasis

__all__ = ["CharReport", "CorollaryReport", "b0_unit_element", "check_equivalences", "check_corollary"]

IMPLIED_PROVENANCE = "by theorem equivalence"


@dataclass(frozen=True)
class CharReport:
    i_pprime: bool
    ii_b0_unital_central: bool
    iii_complement_ideal: bool
    iv_b0_simple: bool
    v_ann_thin_kills: bool
    vi_rad_thin_kills: bool
    viii_W0_irreducible: bool
    ix_W0_selfcontra: bool
    consistent: bool

    @property
    def implied(self) -> dict:
        return {
            key: {"value": self.i_pprime, "provenance": IMPLIED_PROVENANCE}
            for key in ("vii_regular_summands", "x_irreducible_thin_support", "xi_semiprimary")
        }

    def computed(self) -> dict:
        return {
            "i_pprime": self.i_pprime,
            "ii_b0_unital_central": self.ii_b0_unital_central,
            "iii_complement_ideal": self.iii_complement_ideal,
            "iv_b0_simple": self.iv_b0_simple,
            "v_ann_thin_kills": self.v_ann_thin_kills,
            "vi_rad_thin_kills": self.vi_rad_thin_kills,
            "viii_W0_irreducible": self.viii_W0_irreducible,
            "ix_W0_selfcontra": self.ix_W0_selfcontra,
        }


@dataclass(frozen=True)
class CorollaryReport:
    b0_simple_unital: bool
    rad_thin_kills: bool
    implied_summands: bool
    consistent: bool


def b0_unit_element(artifacts) -> np.ndarray | None:
    """Identity element of B0 found by linear algebra (no valency formula),
    so the unital test stays independent of the p'-valenced flag.

    With u_i = E_i* 1, B0 has the basis u_i u_j^T (`b0_b1` pins its
    dimension to (d+1)^2), and u_i u_j^T u_l u_m^T = K_jl u_i u_m^T with
    K = (u_j . u_l).  So e = sum_ij X_ij u_i u_j^T multiplies as
    X o Y = X K Y: B0 is M_{d+1}(GF(p)) with the sandwich product, and e
    is its unit iff X K = I = K X.  K is square, so a one-sided inverse is
    two-sided: the unit exists iff K is invertible, and then X = K^-1, read
    off the row reduction of [K | I].  K is computed from the vectors,
    never from the valencies."""
    p = artifacts.field.p
    u = artifacts.module.vectors
    m = u.shape[0]
    gram = matmul_mod(u, u.T, p)
    reduced, _, pivots = rref_array(np.concatenate([gram, np.eye(m, dtype=np.int64)], axis=1), p)
    if pivots != list(range(m)):
        return None
    return matmul_mod(matmul_mod(u.T, reduced[:, m:], p), u, p)


def _thin_kills(artifacts, space: AlgebraBasis) -> bool:
    """E_i* Z = Z E_i* = 0 for every Z in the space and every thin i.

    The space is graded over T's blocks, which are the supports of the
    u_i = E_i* 1 (checked by `talg.block_relations`, whose result is
    `artifacts.relation`), so E_i* is the indicator of the block of i.  An element of grade (a, b) is its one nonzero piece,
    which E_i* keeps on the left when a is the block of i and on the right
    when b is, and kills otherwise: the condition holds exactly when no
    element has a grade with a thin block on either side."""
    thin = np.isin(artifacts.relation, artifacts.strata.thin)
    a, b = np.divmod(space.grades, len(thin))
    return not (thin[a] | thin[b]).any()


def _complement_ideal(artifacts, unit: np.ndarray | None) -> bool:
    """Item (iii), T = B0 + D with D a two-sided ideal meeting B0 in 0,
    decided as T = B0 (+) Ann_T(W_0): no E_i* J E_j* lies in Ann's piece of
    its grade, dim B0 + dim Ann = dim T, and B0's unit e, if
    `b0_unit_element` found one, fixes every u_l = E_l* 1.

    B0 n Ann is graded, as B0 and Ann are (f_a x f_b lies in both for x in
    both), and its piece (a, b) is span{E_i* J E_j*} n Ann, i and j the
    relations of blocks a and b: the first condition is B0 n Ann = 0.
    b = sum_ij X_ij u_i u_j^T sends u_l to sum_i (X K)_il u_i, K = u u^T,
    so B0 n Ann = 0 exactly when X K = 0 forces X = 0, that is, when K is
    invertible and B0's unit e = u^T K^-1 u exists.  Then e u_l = u_l, so
    (I - e) t kills W_0 for t in T (t W_0 lies in W_0), and t -> (I - e) t
    has kernel B0 (e b = b, and t = e t lies in the ideal B0): D = (I - e) T
    lies in Ann and has dim T - dim B0 >= dim Ann.  So D = Ann, the
    certified ideal, and every condition holds; without the unit the first
    fails.  Conversely, T = B0 (+) D for an ideal D makes B0 = T / D
    unital.  The e of `b0_unit_element` is u^T X u, in B0, and e u^T =
    u^T X K is u^T exactly when X K = I: a wrong unit fails (iii) alone."""
    b0, ann, u, p = artifacts.b0, artifacts.ann, artifacts.ctx.u, artifacts.field.p
    if unit is not None and not np.array_equal(matmul_mod(unit, u.T, p), u.T):
        return False
    return b0.dim + ann.dim == artifacts.talgebra.dim and len(ann.outside(b0)) == b0.dim


def check_equivalences(artifacts) -> CharReport:
    """Evaluate the eight computable characterization items and require
    them to coincide.

    Item (ii), B0 unital with central identity, holds iff B0's unit e
    exists: when it does, it is central in T.  Proof.  `b0_b1` certifies
    B0 as a two-sided ideal of T, from the invariance of W_0 that
    `filtration` checked, and checks that B0 lies in T.  e lies in B0 and
    is its two-sided unit, because XK = I = KX (see `b0_unit_element`).
    So for t in T both et and te lie in B0, and
    et = (et)e = e(te) = te."""
    unit = b0_unit_element(artifacts)
    report = CharReport(
        i_pprime=artifacts.strata.p_prime_valenced,
        ii_b0_unital_central=unit is not None,
        iii_complement_ideal=_complement_ideal(artifacts, unit),
        iv_b0_simple=artifacts.b1.dim == 0 and unit is not None,
        v_ann_thin_kills=_thin_kills(artifacts, artifacts.ann),
        vi_rad_thin_kills=_thin_kills(artifacts, artifacts.rad),
        viii_W0_irreducible=artifacts.filt[1].size == 0,
        ix_W0_selfcontra=artifacts.w0_selfcontra,
        consistent=True,
    )
    verdicts = report.computed()
    if len(set(verdicts.values())) != 1:
        raise InternalInconsistency("characterization booleans diverge",
                                    witness=("characterization", verdicts))
    return report


def check_corollary(artifacts, char: CharReport) -> CorollaryReport:
    """B0 simple unital and radical-thin-kill must match each other and the
    theorem verdicts; the regular-module summand count is implied."""
    unit = b0_unit_element(artifacts)
    simple_unital = artifacts.b1.dim == 0 and unit is not None
    rad_kills = char.vi_rad_thin_kills
    if simple_unital != rad_kills or simple_unital != char.i_pprime:
        raise InternalInconsistency("corollary booleans diverge",
                                    witness=("corollary", simple_unital, rad_kills, char.i_pprime))
    return CorollaryReport(
        b0_simple_unital=simple_unital,
        rad_thin_kills=rad_kills,
        implied_summands=char.i_pprime,
        consistent=True,
    )
