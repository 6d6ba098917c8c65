"""Modular Terwilliger algebra machinery over GF(p).

Builds the adjacency matrices A_i and dual idempotents E_i*(x), generates
the algebra T(x) by span closure, computes the ideal pair B0/B1 spanned by
the blocks E_i* J E_j*, the Jacobson radical, and the annihilator of the
primary module.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BasePointOutOfRange,
    IndexOutOfRange,
    InternalInconsistency,
    InvalidParameter,
    NotPPrimeValenced,
    PrimeTooLarge,
)
from .ffmat import FieldCtx, GfpMatrix, Subspace, charpoly_coeffs, kernel_array, rref_array
from .scheme import SchemeData

__all__ = [
    "TalgContext",
    "build_context",
    "triple_product",
    "AlgebraBasis",
    "algebra_closure",
    "generate_algebra",
    "is_two_sided_ideal",
    "is_central",
    "b0_b1",
    "b0_identity",
    "radical",
    "check_radical_postconditions",
    "annihilator_W0",
]


class TalgContext:
    """Matrices attached to (scheme, GF(p), base point): A_i, E_i*, 1, J.

    The defining identities (transposes, partitions of I and J, idempotent
    orthogonality, nonvanishing of E_i* J E_j*, and J E_i* 1 = k_i 1) are
    asserted eagerly at construction; a bad table fails here, not later.
    A prime with n^2 (p-1)^2 >= 2^63 is rejected before any arithmetic:
    every contraction downstream runs over at most n^2 terms in int64.
    """

    __slots__ = ("scheme", "field", "x", "A", "Estar", "ones", "J", "n", "d")

    def __init__(self, scheme: SchemeData, field: FieldCtx, x: int):
        if not 0 <= x < scheme.n:
            raise BasePointOutOfRange(f"base point {x} outside [0, {scheme.n})")
        if scheme.n ** 2 * (field.p - 1) ** 2 >= 2 ** 63:
            raise PrimeTooLarge(
                f"p={field.p} is too large for n={scheme.n}: "
                f"n^2 (p-1)^2 >= 2^63 would overflow int64"
            )
        self.scheme = scheme
        self.field = field
        self.x = int(x)
        self.n = scheme.n
        self.d = scheme.d
        p = field.p
        tab = scheme.table.entries
        self.A = [GfpMatrix(field, (tab == i).astype(np.int64)) for i in range(self.d + 1)]
        self.Estar = [
            GfpMatrix(field, np.diag((tab[x] == i).astype(np.int64)))
            for i in range(self.d + 1)
        ]
        self.ones = np.ones(self.n, dtype=np.int64)
        self.J = GfpMatrix(field, np.ones((self.n, self.n), dtype=np.int64))
        self._assert_identities()

    def _assert_identities(self) -> None:
        f, n, d, p = self.field, self.n, self.d, self.field.p
        for i in range(d + 1):
            if self.A[i].T != self.A[int(self.scheme.converse[i])]:
                raise InternalInconsistency(f"A_{i}^t != A_(i')")
            if self.Estar[i].T != self.Estar[i]:
                raise InternalInconsistency(f"E_{i}* is not symmetric")
        ident = GfpMatrix.identity(f, n)
        if self.A[0] != ident:
            raise InternalInconsistency("A_0 != I")
        esum = GfpMatrix.zeros(f, n, n)
        asum = GfpMatrix.zeros(f, n, n)
        for i in range(d + 1):
            esum = esum + self.Estar[i]
            asum = asum + self.A[i]
        if esum != ident:
            raise InternalInconsistency("sum of dual idempotents != I")
        if asum != self.J:
            raise InternalInconsistency("sum of adjacency matrices != J")
        for i in range(d + 1):
            for j in range(d + 1):
                prod = self.Estar[i] @ self.Estar[j]
                want = self.Estar[i] if i == j else GfpMatrix.zeros(f, n, n)
                if prod != want:
                    raise InternalInconsistency("dual idempotents not orthogonal")
                if self.eje(i, j).is_zero():
                    raise InternalInconsistency(f"E_{i}* J E_{j}* vanished")
        for i in range(d + 1):
            lhs = (self.J @ self.Estar[i]).apply(self.ones)
            k = int(self.scheme.valencies[i]) % p
            if not np.array_equal(lhs, (k * self.ones) % p):
                raise InternalInconsistency(f"J E_{i}* 1 != k_{i} 1")

    def eje(self, i: int, j: int) -> GfpMatrix:
        """E_i* J E_j*, assembled directly as an outer product."""
        di = np.diagonal(self.Estar[i].a)
        dj = np.diagonal(self.Estar[j].a)
        return GfpMatrix(self.field, np.outer(di, dj))

    def generator_mats(self) -> np.ndarray:
        """All 2(d+1) generators stacked: A_0..A_d then E_0*..E_d*."""
        return np.stack([g.a for g in self.A] + [g.a for g in self.Estar])


def build_context(s: SchemeData, f: FieldCtx, x: int) -> TalgContext:
    return TalgContext(s, f, x)


def triple_product(ctx: TalgContext, i: int, j: int, l: int) -> GfpMatrix:
    """E_i* A_j E_l*; its action on 1 is (p_{l j'}^i mod p) E_i* 1."""
    for idx in (i, j, l):
        if not 0 <= idx <= ctx.d:
            raise IndexOutOfRange(f"relation index {idx} outside [0, {ctx.d}]")
    return ctx.Estar[i] @ ctx.A[j] @ ctx.Estar[l]


class AlgebraBasis:
    """Echelonized basis of a product-closed span of n x n matrices over
    GF(p), with the stack of matrices it was closed from (`generators`)
    and a block label per point (`blocks`).

    The span is graded by the blocks: it is the direct sum of its pieces
    supported on the rows of one block and the columns of another, so its
    echelon basis consists of homogeneous elements (see `_grades`).
    `algebra_closure` derives the labels from the generators; a single
    block, the default, is the grading every algebra has.
    """

    __slots__ = ("field", "n", "space", "generators", "contains_identity", "blocks")

    def __init__(self, field: FieldCtx, n: int, space: Subspace, generators: np.ndarray,
                 contains_identity: bool, blocks: np.ndarray | None = None):
        if space.ambient_dim != n * n:
            raise InvalidParameter("ambient dimension must be n^2")
        self.field = field
        self.n = n
        self.space = space
        self.generators = generators
        self.contains_identity = contains_identity
        self.blocks = np.zeros(n, dtype=np.int64) if blocks is None else blocks

    @property
    def dim(self) -> int:
        return self.space.dim

    def mats(self) -> np.ndarray:
        return self.space.basis.reshape(-1, self.n, self.n)

    def __repr__(self):
        return f"AlgebraBasis(p={self.field.p}, n={self.n}, dim={self.dim})"


def _idempotent_blocks(gens: np.ndarray) -> np.ndarray:
    """Block label per point: the common refinement of the supports of the
    generators that are diagonal 0/1 matrices, one block if there are none.
    For T(x) these are the E_i*(x), and the blocks are the Gamma_i(x).

    The algebra T the generators close to is graded by these blocks.  A
    diagonal 0/1 matrix e is idempotent, and for t in T the products et and
    te lie in T, hence so do t - et and t - te: multiplying by e or by I - e
    on either side keeps T.  The indicator f_a of a block is a product of
    such factors, so f_a t f_b lies in T for all blocks a, b, and
    t = sum_ab f_a t f_b because the f_a are orthogonal and sum to I.
    """
    n = gens.shape[-1]
    diag = np.diagonal(gens, axis1=1, axis2=2)
    off_diagonal = (gens * ~np.eye(n, dtype=bool)).any(axis=(1, 2))
    idempotent = ~off_diagonal & (diag <= 1).all(axis=1)
    _, labels = np.unique(diag[idempotent].T, axis=0, return_inverse=True)
    return labels.reshape(n).astype(np.int64)


def _grades(basis_flat: np.ndarray, blocks: np.ndarray, stage) -> tuple[np.ndarray, np.ndarray]:
    """(row block, column block) of every element of an echelon basis.

    The echelon basis of a graded subspace is the union of the echelon
    bases of its pieces, whose supports are disjoint, so each element is
    homogeneous: all its nonzero entries lie in one block pair.  An element
    that is not raises InternalInconsistency with the witness (stage,
    basis index, block pairs it touches).  A claimed radical is rejected
    soundly this way: J(T) is an ideal, so multiplying by e or by I - e
    keeps it as in `_idempotent_blocks`, and it is graded too.
    """
    nb = int(blocks.max()) + 1
    pair = (blocks[:, None] * nb + blocks[None, :]).reshape(-1)
    nonzero = basis_flat != 0
    low = np.where(nonzero, pair, nb * nb).min(axis=1, initial=nb * nb)
    high = np.where(nonzero, pair, -1).max(axis=1, initial=-1)
    bad = np.flatnonzero(low != high)
    if bad.size:
        idx = int(bad[0])
        touched = sorted({divmod(int(c), nb) for c in pair[nonzero[idx]]})
        raise InternalInconsistency(
            f"basis element {idx} at stage {stage} is not homogeneous: blocks {touched}",
            witness=(stage, idx, touched),
        )
    return np.divmod(low, nb)


def _graded_products(left: np.ndarray, left_cols: np.ndarray, right: np.ndarray,
                     right_rows: np.ndarray, blocks: np.ndarray,
                     p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The products left[a] @ right[b] whose inner grades match, as
    (a, b, products); left[a] is nonzero only in the columns of block
    left_cols[a], right[b] only in the rows of block right_rows[b].

    Every product left out is zero: when left_cols[a] != right_rows[b], no
    point is both a nonzero column of left[a] and a nonzero row of
    right[b].  The kept ones contract over the points of the shared block.
    """
    a_parts = [np.zeros(0, dtype=np.int64)]
    b_parts = [np.zeros(0, dtype=np.int64)]
    prods = [np.zeros((0, left.shape[1], right.shape[2]), dtype=np.int64)]
    for j in np.intersect1d(left_cols, right_rows):
        a = np.flatnonzero(left_cols == j)
        b = np.flatnonzero(right_rows == j)
        pts = np.flatnonzero(blocks == j)
        part = np.einsum("aik,bkl->abil", left[a][:, :, pts], right[b][:, pts, :]) % p
        a_parts.append(np.repeat(a, len(b)))
        b_parts.append(np.tile(b, len(a)))
        prods.append(part.reshape(-1, *part.shape[2:]))
    return np.concatenate(a_parts), np.concatenate(b_parts), np.concatenate(prods)


def _generator_products(gens: np.ndarray, mats: np.ndarray, p: int) -> np.ndarray:
    """g M and M g for every generator g and every M, stacked with shape
    (2, len(gens) * len(mats), n * n), left products first.

    Ideal and centrality tests need no more.  Let T be the algebra the g
    generate (with or without I).  If gI and Ig lie in a subspace I for
    every g, then {t : tI in I and It in I} is a unital subalgebra that
    contains every g, hence all of T: I is a two-sided ideal.  Likewise
    {t : tm = mt} is a unital subalgebra, so m is central in T iff it
    commutes with every g.  The converses hold because the g lie in T.
    """
    n = mats.shape[-1]
    out = np.empty((2, len(gens), len(mats), n, n), dtype=np.int64)
    np.einsum("gij,bjk->gbik", gens, mats, out=out[0])
    np.einsum("bij,gjk->gbik", mats, gens, out=out[1])
    out %= p
    return out.reshape(2, -1, n * n)


def is_two_sided_ideal(alg: AlgebraBasis, ideal: Subspace) -> bool:
    """g I and I g lie in I for every generator g of the algebra."""
    n = alg.n
    prods = _generator_products(alg.generators, ideal.basis.reshape(-1, n, n), alg.field.p)
    return ideal.coords(prods.reshape(-1, n * n)) is not None


def is_central(alg: AlgebraBasis, m: np.ndarray) -> bool:
    """m commutes with every generator of the algebra."""
    left, right = _generator_products(alg.generators, m[None], alg.field.p)
    return np.array_equal(left, right)


def algebra_closure(field: FieldCtx, generators: np.ndarray, include_identity: bool = True) -> AlgebraBasis:
    """Smallest product-closed span containing the generators (and I).

    Fixpoint iteration: multiply the current echelon basis by every
    generator on the left and on the right, re-echelonize, repeat until the
    dimension is stable.  The result is graded by `_idempotent_blocks`.
    """
    gens = np.asarray(generators, dtype=np.int64) % field.p
    if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
        raise InvalidParameter("generators must be a stack of square matrices")
    n = gens.shape[1]
    seed = [gens.reshape(len(gens), -1)]
    if include_identity:
        seed.append(np.eye(n, dtype=np.int64).reshape(1, -1))
    space = Subspace.span(field, np.concatenate(seed, axis=0), ambient_dim=n * n)
    while True:
        prods = _generator_products(gens, space.basis.reshape(-1, n, n), field.p)
        stacked = np.concatenate([space.basis, prods.reshape(-1, n * n)], axis=0)
        new = Subspace.span(field, stacked, ambient_dim=n * n)
        if new.dim == space.dim:
            break
        space = new
    return AlgebraBasis(field, n, space, gens, contains_identity=include_identity,
                        blocks=_idempotent_blocks(gens))


def generate_algebra(ctx: TalgContext) -> AlgebraBasis:
    """The modular Terwilliger algebra T(x) as an echelonized basis."""
    return algebra_closure(ctx.field, ctx.generator_mats(), include_identity=True)


def assert_two_sided_ideal(alg: AlgebraBasis, ideal: Subspace, what: str) -> None:
    """Raise InternalInconsistency unless the ideal is two-sided in alg."""
    if not is_two_sided_ideal(alg, ideal):
        raise InternalInconsistency(f"{what} is not a two-sided ideal", witness="ideal")


def b0_b1(ctx: TalgContext, talgebra: AlgebraBasis) -> tuple[AlgebraBasis, AlgebraBasis]:
    """The ideal B0 = span{E_i* J E_j*} and its sub-ideal B1 from pairs with
    p | k_i k_j; dimensions are pinned to (d+1)^2 and the pair count."""
    d, p = ctx.d, ctx.field.p
    n = ctx.n
    all_flat = []
    sub_flat = []
    k = ctx.scheme.valencies
    for i in range(d + 1):
        for j in range(d + 1):
            flat = ctx.eje(i, j).vec()
            all_flat.append(flat)
            if (int(k[i]) * int(k[j])) % p == 0:
                sub_flat.append(flat)
    b0_space = Subspace.span(ctx.field, np.array(all_flat), ambient_dim=n * n)
    if b0_space.dim != (d + 1) ** 2:
        raise InternalInconsistency(
            f"dim B0 = {b0_space.dim}, expected {(d + 1) ** 2}"
        )
    if sub_flat:
        b1_space = Subspace.span(ctx.field, np.array(sub_flat), ambient_dim=n * n)
    else:
        b1_space = Subspace.zero(ctx.field, n * n)
    if b1_space.dim != len(sub_flat):
        raise InternalInconsistency(
            f"dim B1 = {b1_space.dim}, expected {len(sub_flat)}"
        )
    if not talgebra.space.contains(b0_space):
        raise InternalInconsistency("B0 not contained in T")
    assert_two_sided_ideal(talgebra, b0_space, "B0")
    assert_two_sided_ideal(talgebra, b1_space, "B1")
    b0 = AlgebraBasis(ctx.field, n, b0_space, b0_space.basis.reshape(-1, n, n),
                      contains_identity=False)
    b1 = AlgebraBasis(ctx.field, n, b1_space, b1_space.basis.reshape(-1, n, n),
                      contains_identity=False)
    return b0, b1


def b0_identity(ctx: TalgContext, talgebra: AlgebraBasis, b0: AlgebraBasis) -> GfpMatrix:
    """e = sum_i (k_i)^-1 E_i* J E_i*: the identity of B0, central in T.

    Only exists when no valency vanishes mod p; raises NotPPrimeValenced
    otherwise.  The unit and centrality properties are verified against the
    computed bases before returning.
    """
    p = ctx.field.p
    k = ctx.scheme.valencies
    if any(int(v) % p == 0 for v in k):
        bad = [i for i in range(ctx.d + 1) if int(k[i]) % p == 0]
        raise NotPPrimeValenced(f"p={p} divides valencies at relations {bad}")
    e = GfpMatrix.zeros(ctx.field, ctx.n, ctx.n)
    for i in range(ctx.d + 1):
        e = e + ctx.eje(i, i).scale(ctx.field.inv(int(k[i])))
    em = e.a
    for b in b0.mats():
        if not (np.array_equal((em @ b) % p, b) and np.array_equal((b @ em) % p, b)):
            raise InternalInconsistency("e is not a unit of B0")
    if not is_central(talgebra, em):
        raise InternalInconsistency("e is not central in T")
    return e


def _stage_gram(basis_flat: np.ndarray, n: int, p: int, power: int,
                blocks: np.ndarray | None = None) -> np.ndarray:
    """Gram matrix G[a, b] of the stage function applied to products:
    G[a, b] = coefficient index `power` of det(tI - B_a B_b) mod p.

    power = 1 is the ordinary trace form (computed directly).  It sums n^2
    terms, and for the quotient certificate n is dim T/Rad, up to the
    square of the scheme's n; it is reduced every `step` terms so that no
    partial sum leaves int64.

    Larger powers run the Berkowitz recurrence on the products the grading
    by `blocks` (one block when None) leaves nonzero.  Let B_a have grade
    (i, j) and B_b grade (l, m).  B_a B_b is zero unless j = l, and then
    lies in the piece (i, m); for i != m its square is zero, so it is
    nilpotent and c_power(B_a B_b) = 0.  For i = m it is zero outside the
    k_i x k_i diagonal block (B_a B_b)_ii of the k_i points of block i, so
    det(tI - B_a B_b) = t^(n - k_i) det(tI - (B_a B_b)_ii): G[a, b] is
    coefficient `power` of the block's polynomial, zero when power > k_i.
    """
    kdim = basis_flat.shape[0]
    mats = basis_flat.reshape(kdim, n, n)
    if power == 1:
        tflat = mats.transpose(0, 2, 1).reshape(kdim, n * n)
        step = (2**63 - p) // (p - 1) ** 2
        gram = np.zeros((kdim, kdim), dtype=np.int64)
        for start in range(0, n * n, step):
            part = basis_flat[:, start : start + step] @ tflat[:, start : start + step].T
            gram = (gram + part) % p
        return gram
    if blocks is None:
        blocks = np.zeros(n, dtype=np.int64)
    rows, cols = _grades(basis_flat, blocks, power)
    gram = np.zeros((kdim, kdim), dtype=np.int64)
    for i in np.flatnonzero(np.bincount(blocks) >= power):
        pts = np.flatnonzero(blocks == i)
        left_idx = np.flatnonzero(rows == i)
        right_idx = np.flatnonzero(cols == i)
        left = mats[left_idx][:, pts, :]
        right = mats[right_idx][:, :, pts]
        # chunk the pair batch so memory stays near 4M product entries
        chunk = max(1, int(4_000_000 // max(1, len(right_idx) * len(pts) ** 2)))
        for start in range(0, len(left_idx), chunk):
            part = left_idx[start : start + chunk]
            a, b, prods = _graded_products(left[start : start + chunk], cols[part], right,
                                           rows[right_idx], blocks, p)
            coeffs = charpoly_coeffs(prods, p, upto=power)
            gram[part[a], right_idx[b]] = coeffs[:, power]
    return gram


def radical(algebra: AlgebraBasis, f: FieldCtx | None = None, *, _verify: bool = True) -> Subspace:
    """Jacobson radical of a product-closed matrix algebra over GF(p).

    Characteristic-p trace-form iteration: for every p^k <= n the current
    subspace L shrinks to the null space of (x, y) -> c_{p^k}(x y), where
    c_m is the degree-(n-m) characteristic polynomial coefficient.  Over
    GF(p) each stage condition is linear in the coefficients of x.  The
    radical survives every stage (nilpotent products have vanishing
    coefficients), and the verified postconditions (two-sided ideal,
    nilpotency, semisimple quotient) certify the reverse containment on
    every call.  Stages p^k beyond the largest block of the grading are
    skipped: their Gram is zero (see `_stage_gram`).  Every candidate stays
    graded, because G[a, b] != 0 only for grades (i, j) and (j, i), so the
    kernel of G splits by grade.
    """
    field = f if f is not None else algebra.field
    p, n = field.p, algebra.n
    if algebra.dim == 0:
        return Subspace.zero(field, n * n)
    basis = algebra.space.basis
    largest = int(np.bincount(algebra.blocks).max())
    power = 1
    while power <= largest and basis.shape[0] > 0:
        gram = _stage_gram(basis, n, p, power, algebra.blocks)
        ker = kernel_array(gram.T, p)
        if ker.shape[0] < basis.shape[0]:
            basis = (ker @ basis) % p
            reduced, rank, _ = rref_array(basis, p)
            basis = reduced[:rank]
        power *= p
    rad = Subspace.span(field, basis, ambient_dim=n * n)
    if _verify:
        check_radical_postconditions(algebra, rad)
    return rad


def check_radical_postconditions(algebra: AlgebraBasis, rad: Subspace) -> None:
    """The runtime certificates for a claimed radical: graded (see
    `_grades`), two-sided ideal, nilpotent (so the claim is contained in
    the true radical), and semisimple quotient.

    The quotient certificate first tries the stage-1 trace form
    G[a, b] = Tr(B_a B_b) over the algebra's basis.  rad is a nilpotent
    two-sided ideal lying in T (all checked before G is built), so rad
    lies in J(T).
    Every x in J(T) makes each product xy nilpotent, so Tr(xy) = 0 and
    J(T) lies in ker G.  If dim ker G = dim rad, then rad = J(T) and T/rad
    is semisimple.  Otherwise, as when the trace form is degenerate in
    characteristic p and a later stage p^k > 1 of the radical shrank its
    candidate, the radical is recomputed on the regular representation of
    T/rad and must be zero.  The claim is never trusted, so this certifies
    any subspace, not only the output of `radical`.
    """
    _grades(rad.basis, algebra.blocks, "claimed radical")
    assert_two_sided_ideal(algebra, rad, "radical")
    _assert_nilpotent(algebra, rad)
    if algebra.contains_identity:
        if not algebra.space.contains(rad):
            raise InternalInconsistency("claimed radical is not contained in the algebra",
                                        witness="containment")
        gram = _stage_gram(algebra.space.basis, algebra.n, algebra.field.p, power=1)
        if kernel_array(gram, algebra.field.p).shape[0] == rad.dim:
            return
        quotient = _quotient_regular_rep(algebra, rad)
        if quotient is not None and quotient.dim > 0:
            again = radical(quotient, _verify=False)
            if again.dim != 0:
                raise InternalInconsistency(
                    f"quotient by the radical still has a radical of dim {again.dim}",
                    witness="quotient",
                )


def _assert_nilpotent(algebra: AlgebraBasis, ideal: Subspace) -> None:
    """The powers ideal^m, spanned by graded products, reach zero."""
    if ideal.dim == 0:
        return
    n = algebra.n
    p = algebra.field.p
    imats = ideal.basis.reshape(-1, n, n)
    irows, _ = _grades(ideal.basis, algebra.blocks, "nilpotency")
    current = ideal
    for _ in range(algebra.dim + 1):
        if current.dim == 0:
            return
        _, ccols = _grades(current.basis, algebra.blocks, "nilpotency")
        _, _, prods = _graded_products(current.basis.reshape(-1, n, n), ccols, imats, irows,
                                       algebra.blocks, p)
        nxt = Subspace.span(algebra.field, prods.reshape(-1, n * n), ambient_dim=n * n)
        if nxt.dim >= current.dim:
            break
        current = nxt
    if current.dim != 0:
        raise InternalInconsistency("claimed radical is not nilpotent", witness="nilpotency")


def _quotient_regular_rep(algebra: AlgebraBasis, ideal: Subspace) -> AlgebraBasis | None:
    """Left regular representation of algebra/ideal (ideal must be a
    two-sided ideal inside the algebra).

    Returns None for the zero quotient.  Faithful because the algebra is
    unital, so a zero radical here certifies semisimplicity of the quotient.
    Coordinates modulo the ideal come from one product with its echelon
    basis: that basis is fully reduced (zero at every other pivot), so
    subtracting the pivot rows one at a time changes no pivot column still
    to be used.
    """
    field = algebra.field
    p = field.p
    n = algebra.n
    k = algebra.dim
    if ideal.dim == k:
        return None
    if ideal.dim == 0:
        icoords = np.zeros((0, k), dtype=np.int64)
        ipivots: list[int] = []
    else:
        reduced, rank, piv = rref_array(algebra.space.coords(ideal.basis), p)
        icoords = reduced[:rank]
        ipivots = piv
    pivot_set = set(ipivots)
    comp = [c for c in range(k) if c not in pivot_set]
    q = len(comp)
    reps = algebra.space.basis[comp]
    rows, cols = _grades(reps, algebra.blocks, "quotient")
    reps = reps.reshape(q, n, n)
    a, b, prods = _graded_products(reps, cols, reps, rows, algebra.blocks, p)
    found = algebra.space.coords(prods.reshape(-1, n * n))
    if found is None:
        raise InternalInconsistency("algebra is not closed under products", witness="quotient")
    coords = np.zeros((q * q, k), dtype=np.int64)
    coords[a * q + b] = found
    qcoords = (coords[:, comp] - coords[:, ipivots] @ icoords[:, comp]) % p
    # reg(a)[:, b] = quotient coordinates of rep_a rep_b
    reg = qcoords.reshape(q, q, q).transpose(0, 2, 1)
    space = Subspace.span(field, reg.reshape(q, q * q), ambient_dim=q * q)
    if space.dim != q:
        raise InternalInconsistency("regular representation of the quotient is not faithful",
                                    witness="quotient")
    return AlgebraBasis(field, q, space, space.basis.reshape(q, q, q), contains_identity=True)


def annihilator_W0(ctx: TalgContext, talgebra: AlgebraBasis) -> Subspace:
    """Ann_T(W_0): kernel of Z -> (Z E_0* 1, ..., Z E_d* 1), as a subspace
    of n x n matrices; verified to be a two-sided ideal of T."""
    n, p = ctx.n, ctx.field.p
    base = np.stack([e.apply(ctx.ones) for e in ctx.Estar])
    bmats = talgebra.mats()
    images = np.einsum("bij,vj->bvi", bmats, base) % p
    images = images.reshape(talgebra.dim, -1)
    ker = kernel_array(images.T, p)
    if ker.shape[0] == 0:
        ann = Subspace.zero(ctx.field, n * n)
    else:
        ann = Subspace.span(
            ctx.field, (ker @ talgebra.space.basis) % p, ambient_dim=n * n
        )
    assert_two_sided_ideal(talgebra, ann, "Ann_T(W0)")
    return ann
