"""Individually computable items of the p'-valenced characterization.

Eight of the equivalent statements are recomputed independently from the
algebra artifacts; the remaining three (Krull-Schmidt counts and the
quantifications over all irreducible modules) are reported as implied by
item (i).  Computed booleans must agree on every input; divergence raises
InternalInconsistency because the statements are provably equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistency
from .ffmat import GfpMatrix, Subspace, solve_array
from .talg import is_central, is_two_sided_ideal

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
    ix_certified: bool
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


def b0_unit_element(artifacts) -> GfpMatrix | None:
    """Identity element of B0 found by linear solve (no valency formula),
    so the unital test stays independent of the p'-valenced flag."""
    b0 = artifacts.b0
    p = artifacts.field.p
    k = b0.dim
    if k == 0:
        return None
    n = b0.n
    bm = b0.mats()
    basis = b0.space.basis
    # Equations e b_m = b_m and b_m e = b_m, unknowns = coefficients of e
    # over B0.  B0 is an ideal of T (asserted by b0_b1), so both sides lie in
    # B0, and a vector of B0 is fixed by its entries at the echelon pivots,
    # where the basis reads as the identity.  Those k entries of each
    # product are all the system needs: P[q, a, m] = (b_a b_m)[pivot q].
    rows, cols = np.divmod(np.asarray(b0.space.pivots), n)
    prods = (bm[:, rows, :].transpose(1, 0, 2) @ bm[:, :, cols].transpose(2, 1, 0)) % p
    # The equation (e b_m)[pivot q] = [q = m] has row P[q, :, m], and
    # (b_a e)[pivot q] = [q = a] has row P[q, a, :].  Only the rows that are
    # not all zero enter the solve (under the E*-grading most are zero); a
    # zero row whose target is 1 makes the system inconsistent.
    live_left = prods.any(axis=1)
    live_right = prods.any(axis=2)
    if not (np.diagonal(live_left).all() and np.diagonal(live_right).all()):
        return None
    lq, lm = np.nonzero(live_left)
    rq, ra = np.nonzero(live_right)
    system = np.concatenate([prods[lq, :, lm], prods[rq, ra, :]], axis=0)
    target = np.concatenate([lq == lm, rq == ra]).astype(np.int64)
    sol = solve_array(system, target, p)
    if sol is None:
        return None
    return GfpMatrix(artifacts.field, ((sol @ basis) % p).reshape(n, n))


def _thin_kills(artifacts, space: Subspace) -> bool:
    """E_i* Z = Z E_i* = 0 for every Z in the space and every thin i."""
    if space.dim == 0:
        return True
    ctx = artifacts.ctx
    p = ctx.field.p
    mats = space.basis.reshape(-1, ctx.n, ctx.n)
    for i in artifacts.strata.thin:
        e = ctx.Estar[i].a
        if ((e @ mats) % p).any() or ((mats @ e) % p).any():
            return False
    return True


def _complement_ideal(artifacts, unit: np.ndarray | None) -> bool:
    """T = B0 + D with D = (I - e) T a two-sided ideal meeting B0 in 0."""
    if unit is None:
        return False
    ctx = artifacts.ctx
    p = ctx.field.p
    n = ctx.n
    tal = artifacts.talgebra
    proj = (np.eye(n, dtype=np.int64) - unit) % p
    dvecs = ((proj @ tal.mats()) % p).reshape(-1, n * n)
    dspace = Subspace.span(ctx.field, dvecs, ambient_dim=n * n)
    if dspace.dim + artifacts.b0.dim != tal.dim:
        return False
    if dspace.intersect(artifacts.b0.space).dim != 0:
        return False
    return is_two_sided_ideal(tal, dspace)


def check_equivalences(artifacts) -> CharReport:
    """Evaluate the eight computable characterization items and require
    them to coincide."""
    p = artifacts.field.p

    i_flag = artifacts.strata.p_prime_valenced

    unit = b0_unit_element(artifacts)
    ii_flag = unit is not None and is_central(artifacts.talgebra, unit.a)
    unit_arr = unit.a if (unit is not None and ii_flag) else None

    iii_flag = _complement_ideal(artifacts, unit_arr)
    iv_flag = artifacts.b1.dim == 0 and unit is not None
    v_flag = _thin_kills(artifacts, artifacts.ann)
    vi_flag = _thin_kills(artifacts, artifacts.rad)
    viii_flag = artifacts.filt[1].dim == 0
    ix_flag = artifacts.w0_selfcontra.isomorphic

    booleans = [i_flag, ii_flag, iii_flag, iv_flag, v_flag, vi_flag, viii_flag, ix_flag]
    if len(set(booleans)) != 1:
        raise InternalInconsistency(
            "characterization booleans diverge: "
            f"i={i_flag} ii={ii_flag} iii={iii_flag} iv={iv_flag} "
            f"v={v_flag} vi={vi_flag} viii={viii_flag} ix={ix_flag}"
        )
    return CharReport(
        i_pprime=i_flag,
        ii_b0_unital_central=ii_flag,
        iii_complement_ideal=iii_flag,
        iv_b0_simple=iv_flag,
        v_ann_thin_kills=v_flag,
        vi_rad_thin_kills=vi_flag,
        viii_W0_irreducible=viii_flag,
        ix_W0_selfcontra=ix_flag,
        ix_certified=artifacts.w0_selfcontra.certified,
        consistent=True,
    )


def check_corollary(artifacts, char: CharReport) -> CorollaryReport:
    """B0 simple unital and radical-thin-kill must match each other and the
    theorem verdicts; the regular-module summand count is implied."""
    unit = b0_unit_element(artifacts)
    simple_unital = artifacts.b1.dim == 0 and unit is not None
    rad_kills = char.vi_rad_thin_kills
    if simple_unital != rad_kills or simple_unital != char.i_pprime:
        raise InternalInconsistency(
            f"corollary booleans diverge: simple_unital={simple_unital} "
            f"rad_kills={rad_kills} theorem={char.i_pprime}"
        )
    return CorollaryReport(
        b0_simple_unital=simple_unital,
        rad_thin_kills=rad_kills,
        implied_summands=char.i_pprime,
        consistent=True,
    )
