"""The primary module W_0 and its structure.

W_0 is held in its basis u_i = E_i* 1, in which T(x) acts by the same
matrices at every base point x: its action, closure digraph, composition
factors and self-duality are facts about (scheme, p), built once from the
intersection numbers.  Its submodule chain W_m (one step per p-adic
valuation of the valencies) and the layers Rad(T) W_m are increasing
arrays of the relations i whose u_i span them; `filtration` ties W_0's
basis at x to T(x).  The reachability relation on relation indices, the
composition factors cut out by strongly connected components, the
uniserial criterion, and contragredient duals all live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InternalInconsistency, InvalidParameter
from .ffmat import FieldCtx, kernel_array, matmul_mod, rref_array
from .scheme import SchemeData, Strata
from .talg import AlgebraBasis, TalgContext

__all__ = [
    "GeneratorAction",
    "build_primary",
    "filtration",
    "ClosureDigraph",
    "closure_digraph",
    "CompositionFactor",
    "CompositionReport",
    "composition_factors",
    "factor_action",
    "radical_layers",
    "uniserial_check",
    "verify_Ml_iso",
    "hom_space",
    "is_selfcontragredient",
    "selfcontra_W0",
]


@dataclass(frozen=True, eq=False)
class GeneratorAction:
    """Representation matrices of the algebra generators on one module.

    actA[j] and actE[j] are the m x m matrices of A_j and E_j*.  The
    converse map drives the transpose rule A_j -> A_{j'}, E_j* -> E_j*
    needed for contragredients.
    """

    field: FieldCtx
    converse: np.ndarray
    actA: np.ndarray
    actE: np.ndarray

    @property
    def dim(self) -> int:
        return self.actA.shape[1]

    def all_mats(self) -> np.ndarray:
        return np.concatenate([self.actA, self.actE], axis=0)

    def contragredient(self) -> "GeneratorAction":
        conv = self.converse
        dualA = self.actA[conv].transpose(0, 2, 1).copy()
        dualE = self.actE.transpose(0, 2, 1).copy()
        return GeneratorAction(self.field, conv, dualA % self.field.p, dualE % self.field.p)


def build_primary(s: SchemeData, f: FieldCtx) -> GeneratorAction:
    """W_0 as a module of the scheme: in the basis u_i = E_i* 1, A_j sends
    u_h to sum_i (p_{h j'}^i mod p) u_i and E_j* is the projector onto
    coordinate j, at every base point x.  Read off the intersection numbers
    alone; `filtration` certifies at each x that T(x) acts on W_0 by these
    matrices."""
    eye = np.eye(s.d + 1, dtype=np.int64)
    act_a = np.transpose(s.tensor[:, s.converse], (1, 2, 0)) % f.p
    return GeneratorAction(f, s.converse.copy(), act_a, eye[:, :, None] * eye[:, None, :])


def filtration(ctx: TalgContext, strata_: Strata, module: GeneratorAction) -> list[np.ndarray]:
    """The chain W_0 > W_1 >= ... >= W_{eps+1} = 0, W_m the relations i
    with p^m | k_i, whose u_i = E_i* 1 (the rows of `ctx.u`) span it.

    Every W_m is checked invariant under every generator g (A_0..A_d,
    E_0*..E_d*); `b0_b1`, `annihilator_W0` and `composition_factors` rest
    on it.  The u_i are checked independent (witness ("E_i* 1
    independent", i), i the first dependent one).  Then T(x) acts on W_0
    by `module`, the action `build_primary` read off the intersection
    numbers, exactly when g u_h = sum_i act(g)_ih u_i for every g and h,
    checked by one product with the n-long u_i; this is the one
    certificate of that action at x.  W_m is then invariant iff no
    act(g)_ih != 0 has p^m | k_h but not p^m | k_i.  The witness (m, g, h)
    of a failure, the first in the order of m, g, h, says g moves E_h* 1
    out of W_m.
    """
    p, n, u = ctx.field.p, ctx.n, ctx.u
    pivots = rref_array(u.T, p)[2]
    if len(pivots) != len(u):
        i = next(i for i, c in enumerate(pivots + [-1]) if i != c)
        raise InternalInconsistency("the vectors E_i* 1 are not independent",
                                    witness=("E_i* 1 independent", i))
    acts, val = module.all_mats() % p, strata_.valuations
    count, dim = acts.shape[:2]
    images = matmul_mod(ctx.gens.reshape(-1, n), u.T, p).reshape(count, n, dim)
    combined = matmul_mod(u.T, acts.transpose(1, 0, 2).reshape(dim, -1), p).reshape(n, count, dim)
    wrong = np.argwhere((images != combined.transpose(1, 0, 2)).any(axis=1))
    if wrong.size:
        g, h = (int(v) for v in wrong[0])
        raise InternalInconsistency(f"W_0 is not invariant under generator {g}", witness=(0, g, h))
    # lowest[g, h]: the least valuation of an i with act(g)_ih != 0
    lowest = np.where(acts != 0, val[:, None], strata_.epsilon + 1).min(axis=1)
    levels = np.arange(strata_.epsilon + 2)[:, None, None]
    wrong = np.argwhere((lowest < levels) & (levels <= val))
    if wrong.size:
        m, g, h = (int(v) for v in wrong[0])
        raise InternalInconsistency(f"W_{m} is not invariant under generator {g}", witness=(m, g, h))
    return [np.flatnonzero(val >= m) for m in range(strata_.epsilon + 2)]


@dataclass(frozen=True, eq=False)
class ClosureDigraph:
    """Digraph on relation indices: i -> l when some p_{l b}^i is a unit
    mod p.  Mutual reachability is exactly the reachability relation that
    groups composition factors, so classes are strongly connected
    components."""

    d: int
    adj: np.ndarray
    scc_ids: np.ndarray
    components: tuple[tuple[int, ...], ...]

    def same_class(self, i: int, j: int) -> bool:
        for idx in (i, j):
            if not 0 <= idx <= self.d:
                raise IndexOutOfRange(f"relation index {idx} outside [0, {self.d}]")
        return bool(self.scc_ids[i] == self.scc_ids[j])


def _reachability(adj: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean digraph: reach[i, j] iff
    j is reachable from i along edges adj[u, v].  Squares I | adj until it
    stops changing (about log2 of the longest shortest path rounds)."""
    reach = adj.astype(bool) | np.eye(adj.shape[0], dtype=bool)
    while True:
        step = (reach.astype(np.int64) @ reach) > 0
        if np.array_equal(step, reach):
            return reach
        reach = step


def closure_digraph(s: SchemeData, f: FieldCtx) -> ClosureDigraph:
    adj = (s.tensor % f.p != 0).any(axis=1).T
    if not adj.diagonal().all():
        raise InternalInconsistency("missing self-loop: some p_{i 0}^i != 1",
                                    witness=("self-loop", int(np.flatnonzero(~adj.diagonal())[0])))
    # row i of R & R^T is i's component; its first True is the minimum
    reach = _reachability(adj)
    ids = np.unique((reach & reach.T).argmax(axis=1), return_inverse=True)[1]
    comps = tuple(tuple(np.flatnonzero(ids == c).tolist()) for c in range(ids.max() + 1))
    return ClosureDigraph(d=s.d, adj=adj, scc_ids=ids, components=comps)


@dataclass(frozen=True, eq=False)
class CompositionFactor:
    level: int
    cls: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.cls)


@dataclass(eq=False)
class CompositionReport:
    epsilon: int
    strata_sets: tuple[tuple[int, ...], ...]
    qn: list[list[tuple[int, ...]]]
    factors: list[CompositionFactor]
    composition_length: int


def factor_action(module: GeneratorAction, cls: tuple[int, ...]) -> GeneratorAction:
    """Action matrices restricted to the coordinates of one factor class."""
    ix = np.ix_(list(cls), list(cls))
    actA = np.stack([m[ix] for m in module.actA])
    actE = np.stack([m[ix] for m in module.actE])
    return GeneratorAction(module.field, module.converse, actA, actE)


def composition_factors(strata_: Strata, digraph: ClosureDigraph,
                        module: GeneratorAction) -> CompositionReport:
    """Classes of each stratum under mutual reachability, one irreducible
    factor per class of dimension |class|.

    Classes are the strongly connected components of the full digraph
    restricted to S_n (connecting paths may leave S_n).  Independently of
    the tensor, the action matrices of `module` must show that each factor
    is invariant in W_n/W_{n+1} and irreducible; that W_n does not leak
    below its level (no act(g)_ih != 0 with v_p(k_i) < v_p(k_h)) is a
    precondition, checked by `filtration` at every base point before
    `analysis.analyze` reports.

    Lemma.  Let the E_j* act on M as coordinate projectors of rank at
    most 1 (checked here; W_0 and so every factor meet this).  For u in a
    submodule U, E_j* u = u_j e_j lies in U, so U is spanned by
    coordinates.  A_k e_h = sum_i rho(A_k)_ih e_i, and the E_i* split this
    sum into its coordinates, so <e_h> = span{e_i : i reachable from h},
    with an edge h -> i when some rho(A_k)_ih != 0.  Every nonzero U holds
    some e_h, so M is irreducible iff its support digraph is strongly
    connected.

    The factor labels (level, class) are distinct with no check: the
    classes of one level are the elements of a set.

    Witnesses: ("composition", level, cls, (i, h)) for a nonzero entry
    (i, h) with h in cls and i in another class of the stratum, and
    ("composition", level, cls, h) when e_h does not generate the factor,
    and ("bottom stratum", i) for the first i of S_0 outside the class of
    relation 0.
    """
    _check_weight_spaces(module)
    p = module.field.p
    qn: list[list[tuple[int, ...]]] = []
    factors: list[CompositionFactor] = []
    gens = module.all_mats()
    support = (module.actA % p).any(axis=0)
    for n_level in range(strata_.epsilon + 1):
        sn = strata_.sets[n_level]
        classes = sorted({tuple(i for i in sn if digraph.same_class(i, j)) for j in sn})
        qn.append(classes)
        if n_level == 0 and len(classes) != 1:
            raise InternalInconsistency("the bottom stratum must form a single class",
                                        witness=("bottom stratum", classes[1][0]))
        for cls in classes:
            # the first (i, h), i in another class and h in this one, that some generator joins
            others = [i for i in sn if i not in cls]
            edge = np.argwhere((gens[:, others][:, :, cls] % p).any(axis=0))
            if edge.size:
                raise InternalInconsistency(f"factor class {cls} is not invariant", witness=(
                    "composition", n_level, cls, (others[edge[0, 0]], cls[edge[0, 1]])))
            # column h of the closure holds the coordinates of the factor generated by e_h
            reach = _reachability(support[np.ix_(cls, cls)])
            missing = np.flatnonzero(~reach.all(axis=0))
            if missing.size:
                h = cls[missing[0]]
                raise InternalInconsistency(f"factor {cls} not regenerated from coordinate {h}",
                                            witness=("composition", n_level, cls, h))
            factors.append(CompositionFactor(level=n_level, cls=cls))
    return CompositionReport(
        epsilon=strata_.epsilon,
        strata_sets=strata_.sets,
        qn=qn,
        factors=factors,
        composition_length=sum(len(c) for c in qn),
    )


def radical_layers(rad: AlgebraBasis, relation: np.ndarray,
                   filt: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """(target, layers): layers[m] = Rad(T) W_m, m = 0..eps, as relations
    like `filt`, and target[e] the relation onto whose u radical element e
    sends W_0, -1 if e kills W_0; relation[a] is the relation of T's block
    a (see `talg.block_relations`).

    Read off the radical's pieces, as `talg.annihilator_W0` reads Ann: an
    element of grade (a, b) sends u_relation[b] to its local row sums on
    block a and every other u_i to 0.  W_0 is invariant and Rad(T) lies in
    T, so the row sums are c u_relation[a], constant on block a (checked;
    the witness ("Rad(T) W_0", e, v) names the first element e and the
    basis vector v of W_0, the u_i in order of their first points, that it
    sends out of W_0).  So Rad(T) W_m = {relation[a] : c != 0 and
    relation[b] in W_m}.
    """
    p, nb = rad.field.p, len(relation)
    a, b = np.divmod(rad.grades, nb)
    sums = rad.pieces.sum(axis=2) % p
    live = np.arange(sums.shape[1]) < np.bincount(rad.blocks, minlength=nb)[a, None]
    bad = np.flatnonzero(((sums != sums[:, :1]) & live).any(axis=1))
    if bad.size:
        e, first = int(bad[0]), np.unique(rad.blocks, return_index=True)[1]
        v = int(np.argsort(np.argsort(first))[b[e]])
        raise InternalInconsistency(f"radical element {e} sends basis vector {v} of W_0 out of W_0",
                                    witness=("Rad(T) W_0", e, v))
    target = np.where(sums[:, 0] != 0, relation[a], -1)
    source = relation[b]
    layers = [np.unique(target[(target >= 0) & np.isin(source, w)]) for w in filt[:-1]]
    return target, layers


def uniserial_check(report: CompositionReport, layers: list[np.ndarray], filt: list[np.ndarray]) -> bool:
    """W_0 has a totally ordered submodule lattice iff every nontrivial
    filtration step has a single class and the radical pushes each W_n onto
    exactly W_{n+1}; layers[n] is Rad(T) W_n (see `radical_layers`)."""
    for level in range(report.epsilon + 1):
        if len(filt[level]) == len(filt[level + 1]):
            continue
        if len(report.qn[level]) != 1 or not np.array_equal(layers[level], filt[level + 1]):
            return False
    return True


def verify_Ml_iso(ctx: TalgContext, l: int, module: GeneratorAction) -> bool:
    """Check that E_i* 1 -> E_i* J E_l* intertwines every generator, i.e.
    the column module at l is a copy of W_0."""
    if not 0 <= l <= ctx.d:
        raise IndexOutOfRange(f"relation index {l} outside [0, {ctx.d}]")
    p = ctx.field.p
    targets = np.stack([ctx.eje(i, l) for i in range(ctx.d + 1)])
    flat = targets.reshape(ctx.d + 1, -1)
    for g, act in zip(ctx.gens, module.all_mats()):
        for h in range(ctx.d + 1):
            lhs = matmul_mod(act[:, h][None], flat, p).reshape(targets.shape[1:])
            rhs = matmul_mod(g, targets[h], p)
            if not np.array_equal(lhs, rhs):
                return False
    return True


def hom_space(src: GeneratorAction, dst: GeneratorAction) -> np.ndarray:
    """Basis of the intertwiner space {Phi : Phi rho_src(g) = rho_dst(g) Phi}
    as a stack of dst.dim x src.dim matrices."""
    p = src.field.p
    m1, m2 = src.dim, dst.dim
    rows = []
    for g1, g2 in zip(src.all_mats(), dst.all_mats()):
        constraint = np.kron(np.eye(m2, dtype=np.int64), g1.T) - np.kron(g2, np.eye(m1, dtype=np.int64))
        rows.append(constraint % p)
    stacked = np.concatenate(rows, axis=0)
    ker = kernel_array(stacked, p)
    return ker.reshape(-1, m2, m1)


def _check_weight_spaces(action: GeneratorAction) -> None:
    """Raise InvalidParameter unless the E_j* act as diagonal 0/1 matrices
    that sum to I and have rank at most 1, i.e. every weight space has
    dimension 1 (W_0 and every factor_action meet this).  The composition
    and self-duality lemmas hold on this domain only."""
    act_e = action.actE % action.field.p
    weights = np.diagonal(act_e, axis1=1, axis2=2)
    if not (
        np.array_equal(act_e, weights[:, :, None] * np.eye(action.dim, dtype=np.int64))
        and np.isin(weights, (0, 1)).all()
        and (weights.sum(axis=0) == 1).all()
        and (weights.sum(axis=1) <= 1).all()
    ):
        raise InvalidParameter("the E_j* do not act as coordinate projectors")


def _diagonal_intertwining_system(action: GeneratorAction) -> np.ndarray:
    """The equations phi_i rho(g)_ih - rho*(g)_ih phi_h = 0 saying that
    diag(phi) intertwines the module with its contragredient: one row per
    generator g = A_j and entry (i, h), a ((d+1) m^2) x m array mod p.

    Checks the domain with `_check_weight_spaces`.  The E_j* rows are left
    out: past that check they are identically zero."""
    _check_weight_spaces(action)
    p = action.field.p
    m = action.dim
    eye = np.eye(m, dtype=np.int64)
    rho = action.actA
    dual = action.contragredient().actA
    system = rho[..., None] * eye[None, :, None, :] - dual[..., None] * eye[None, None, :, :]
    return system.reshape(-1, m) % p


def is_selfcontragredient(action: GeneratorAction) -> bool:
    """Decide whether a module with one-dimensional weight spaces is
    isomorphic to its contragredient dual.

    Proof.  An intertwiner Phi: M -> M* satisfies Phi rho(E_j*) =
    rho(E_j*)^T Phi = rho(E_j*) Phi, and the rho(E_j*) are the coordinate
    projectors, so Phi = diag(phi) is diagonal: M ~ M* iff the kernel K of
    the diagonal intertwining equations holds a phi with no zero entry.
    Each equation a phi_i = b phi_h has at most two terms.  Join i and h
    when a and b are both nonzero; every equation then involves a single
    class of joined coordinates, and on a class one coordinate fixes all
    the others, none of them zero unless all are.  So K is the direct sum
    of at most one line per class; the lines have disjoint supports and,
    normalized at their first entry, they are K's echelon rows.  The sum
    phi of those rows is therefore nonzero exactly on the union of the
    supports: either every phi_i != 0 and diag(phi) is an invertible
    intertwiner, or some coordinate is zero throughout K and no
    intertwiner is invertible.  A third outcome is an implementation bug.
    """
    p = action.field.p
    ker = kernel_array(_diagonal_intertwining_system(action), p)
    phi = ker.sum(axis=0) % p
    if phi.all():
        return True
    if (ker == 0).all(axis=0).any():
        return False
    raise InternalInconsistency(
        "diagonal intertwiner space is not a sum of disjoint lines",
        witness=("self-duality", int(np.nonzero(phi == 0)[0][0])),
    )


def selfcontra_W0(module: GeneratorAction, strata_: Strata) -> bool:
    """Self-contragredience of W_0, cross-checked against the p'-valenced
    flag (the two are provably equivalent, so a mismatch is a bug)."""
    verdict = is_selfcontragredient(module)
    if verdict != strata_.p_prime_valenced:
        raise InternalInconsistency(
            f"W_0 self-contragredient verdict {verdict} contradicts "
            f"p'-valenced flag {strata_.p_prime_valenced}",
            witness=("self-duality of W_0", verdict, strata_.p_prime_valenced),
        )
    return verdict
