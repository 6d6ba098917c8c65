"""Per (scheme, prime, base point) analysis pipeline and its JSON report.

Everything downstream of a validated scheme is computed here once and
shared: algebra, ideals, radical, annihilator, primary module structure,
and the characterization verdicts.  Reports serialize to key-sorted JSON,
byte-identical across runs on identical input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .characterize import CharReport, CorollaryReport, check_corollary, check_equivalences
from .errors import InternalInconsistency
from .ffmat import FieldCtx
from .primary import (
    ClosureDigraph,
    CompositionReport,
    PrimaryModule,
    build_primary,
    closure_digraph,
    composition_factors,
    filtration,
    radical_layers,
    selfcontra_W0,
    uniserial_check,
)
from .scheme import SchemeData, Strata, strata
from .talg import (
    AlgebraBasis,
    TalgContext,
    annihilator_W0,
    b0_b1,
    block_relations,
    build_context,
    generate_algebra,
    radical,
)

__all__ = ["Artifacts", "compute_artifacts", "AnalysisReport", "analyze", "report_to_json"]

SCHEMA_VERSION = 1


@dataclass(eq=False)
class Artifacts:
    scheme: SchemeData
    field: FieldCtx
    x: int
    strata: Strata
    ctx: TalgContext
    talgebra: AlgebraBasis
    b0: AlgebraBasis
    b1: AlgebraBasis
    rad: AlgebraBasis
    ann: AlgebraBasis
    module: PrimaryModule
    relation: np.ndarray
    filt: list[np.ndarray]
    rad_targets: np.ndarray
    rad_layers: list[np.ndarray]
    digraph: ClosureDigraph
    comp: CompositionReport
    uniserial: bool
    w0_selfcontra: bool


def compute_artifacts(s: SchemeData, f: FieldCtx, x: int = 0) -> Artifacts:
    strata_ = strata(s, f)
    ctx = build_context(s, f, x)
    talgebra = generate_algebra(ctx)
    module = build_primary(ctx)
    # the invariance of W_0 and W_1 checked here makes B0, B1 and Ann ideals
    filt = filtration(ctx, strata_, module)
    relation = block_relations(ctx, talgebra)
    b0, b1 = b0_b1(talgebra, relation, filt)
    rad = radical(talgebra)
    ann = annihilator_W0(talgebra)
    digraph = closure_digraph(s, f)
    comp = composition_factors(ctx, strata_, digraph, module)
    rad_targets, rad_layers = radical_layers(rad, relation, filt)
    uniserial = uniserial_check(comp, rad_layers, filt)
    w0sc = selfcontra_W0(module, strata_)
    art = Artifacts(
        scheme=s,
        field=f,
        x=x,
        strata=strata_,
        ctx=ctx,
        talgebra=talgebra,
        b0=b0,
        b1=b1,
        rad=rad,
        ann=ann,
        module=module,
        relation=relation,
        filt=filt,
        rad_targets=rad_targets,
        rad_layers=rad_layers,
        digraph=digraph,
        comp=comp,
        uniserial=uniserial,
        w0_selfcontra=w0sc,
    )
    _cross_checks(art)
    return art


def _cross_checks(art: Artifacts) -> None:
    """Provable identities tying independent artifacts together.

    Rad(T) W_0 is the radical of the module, which is exactly W_1; both
    are sets of relations, Rad(T) W_0 = `rad_layers[0]` shared with
    `uniserial_check`.  B1 lies in Rad(T).  When W_0 is irreducible,
    Rad(T) kills it, so it lies in Ann_T(W_0).  All four spaces are graded
    over T's blocks, so each containment is decided piece by piece (see
    `AlgebraBasis.outside`).

    A failure names the check and the offending basis element in its
    witness: (check, r, b) when Rad(T) basis element r sends basis vector
    b of W_0 outside W_1 (read off `rad_targets`), otherwise (check, i)
    for basis element i of the space that should lie in the other; the
    basis vectors of W_0 and W_1 are the u_i in order of their first
    points."""
    w1, pushed = art.filt[1], art.rad_layers[0]
    if not np.array_equal(pushed, w1):
        reps = art.module.reps  # the first point of every u_i
        escaped = np.flatnonzero((art.rad_targets >= 0) & ~np.isin(art.rad_targets, w1))
        if escaped.size:
            r = int(escaped[0])
            source = art.relation[art.rad.grades[r] % len(art.relation)]
            witness = ("Rad(T) W_0 in W_1", r, int((reps < reps[source]).sum()))
        else:
            ordered = w1[np.argsort(reps[w1])]
            witness = ("W_1 in Rad(T) W_0", int(np.flatnonzero(~np.isin(ordered, pushed))[0]))
        raise InternalInconsistency("Rad(T) W_0 != W_1", witness=witness)
    outside = art.rad.outside(art.b1)
    if outside.size:
        raise InternalInconsistency("B1 escapes the radical", witness=("B1 in Rad(T)", int(outside[0])))
    if art.strata.p_prime_valenced and (outside := art.ann.outside(art.rad)).size:
        raise InternalInconsistency("irreducible W_0 but Rad(T) not inside Ann(W_0)",
                                    witness=("Rad(T) in Ann(W_0)", int(outside[0])))


@dataclass(eq=False)
class AnalysisReport:
    scheme_id: str
    n: int
    d: int
    valencies: tuple[int, ...]
    prime: int
    base_points: tuple[int, ...]
    dim_T: tuple[int, ...]
    dim_B0: int
    dim_B1: int
    dim_rad: tuple[int, ...]
    dim_ann: tuple[int, ...]
    strata: Strata
    composition: CompositionReport
    uniserial: bool
    self_contragredient_W0: bool
    characterization: CharReport
    corollary: CorollaryReport

    def to_dict(self) -> dict:
        comp = [
            {"level": f.level, "class": list(f.cls), "dim": f.dim}
            for f in self.composition.factors
        ]
        return {
            "schema": SCHEMA_VERSION,
            "field": f"GF({self.prime})",
            "scheme_id": self.scheme_id,
            "n": self.n,
            "d": self.d,
            "valencies": list(self.valencies),
            "prime": self.prime,
            "base_points": list(self.base_points),
            "dim_T": list(self.dim_T),
            "dim_B0": self.dim_B0,
            "dim_B1": self.dim_B1,
            "dim_rad": list(self.dim_rad),
            "dim_ann": list(self.dim_ann),
            "strata": {
                "epsilon": self.strata.epsilon,
                "sets": [list(t) for t in self.strata.sets],
                "thin": list(self.strata.thin),
                "p_prime_valenced": self.strata.p_prime_valenced,
            },
            "composition": comp,
            "composition_length": self.composition.composition_length,
            "uniserial": self.uniserial,
            "self_contragredient_W0": self.self_contragredient_W0,
            "characterization": {
                **self.characterization.computed(),
                "implied": self.characterization.implied,
                # always true (self-duality is decided exactly); kept for the perfbench goldens
                "ix_certified": True,
                "consistent": self.characterization.consistent,
            },
            "corollary": {
                "b0_simple_unital": self.corollary.b0_simple_unital,
                "rad_thin_kills": self.corollary.rad_thin_kills,
                "implied_summands": self.corollary.implied_summands,
                "consistent": self.corollary.consistent,
            },
            # always empty (no verdict is uncertified); kept for the perfbench goldens
            "warnings": [],
        }


def analyze(
    s: SchemeData, f: FieldCtx, base_points, scheme_id: str = "scheme"
) -> AnalysisReport:
    """Run the full pipeline at each requested base point.

    Per-base-point dimensions may differ, but every characterization
    boolean must agree across base points; a flip raises
    InternalInconsistency.
    """
    base_points = tuple(int(x) for x in base_points)
    if not base_points:
        raise InternalInconsistency("no base points requested", witness=("base points", base_points))
    dim_T: list[int] = []
    dim_rad: list[int] = []
    dim_ann: list[int] = []
    first: Artifacts | None = None
    char: CharReport | None = None
    coro: CorollaryReport | None = None
    for x in base_points:
        art = compute_artifacts(s, f, x)
        c = check_equivalences(art)
        cc = check_corollary(art, c)
        dim_T.append(art.talgebra.dim)
        dim_rad.append(art.rad.dim)
        dim_ann.append(art.ann.dim)
        if first is None:
            first, char, coro = art, c, cc
        elif c.computed() != char.computed():
            raise InternalInconsistency(
                f"characterization booleans changed between base points "
                f"{base_points[0]} and {x}",
                witness=("base points", base_points[0], x),
            )
    assert first is not None and char is not None and coro is not None
    return AnalysisReport(
        scheme_id=scheme_id,
        n=s.n,
        d=s.d,
        valencies=tuple(int(v) for v in s.valencies),
        prime=f.p,
        base_points=base_points,
        dim_T=tuple(dim_T),
        dim_B0=first.b0.dim,
        dim_B1=first.b1.dim,
        dim_rad=tuple(dim_rad),
        dim_ann=tuple(dim_ann),
        strata=first.strata,
        composition=first.comp,
        uniserial=first.uniserial,
        self_contragredient_W0=first.w0_selfcontra,
        characterization=char,
        corollary=coro,
    )


def report_to_json(report: AnalysisReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
