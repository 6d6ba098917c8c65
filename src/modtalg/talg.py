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
    GF(p), with the stack of matrices it was closed from (`generators`)."""

    __slots__ = ("field", "n", "space", "generators", "contains_identity")

    def __init__(self, field: FieldCtx, n: int, space: Subspace, generators: np.ndarray,
                 contains_identity: bool):
        if space.ambient_dim != n * n:
            raise InvalidParameter("ambient dimension must be n^2")
        self.field = field
        self.n = n
        self.space = space
        self.generators = generators
        self.contains_identity = contains_identity

    @property
    def dim(self) -> int:
        return self.space.dim

    def mats(self) -> np.ndarray:
        return self.space.basis.reshape(-1, self.n, self.n)

    def __repr__(self):
        return f"AlgebraBasis(p={self.field.p}, n={self.n}, dim={self.dim})"


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
    dimension is stable.
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
    return AlgebraBasis(field, n, space, gens, contains_identity=include_identity)


def generate_algebra(ctx: TalgContext) -> AlgebraBasis:
    """The modular Terwilliger algebra T(x) as an echelonized basis."""
    return algebra_closure(ctx.field, ctx.generator_mats(), include_identity=True)


def assert_two_sided_ideal(alg: AlgebraBasis, ideal: Subspace, what: str) -> None:
    """Raise InternalInconsistency unless the ideal is two-sided in alg."""
    if not is_two_sided_ideal(alg, ideal):
        raise InternalInconsistency(f"{what} is not a two-sided ideal")


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


def _stage_gram(basis_flat: np.ndarray, n: int, p: int, power: int) -> np.ndarray:
    """Gram matrix G[a, b] of the stage function applied to products:
    G[a, b] = coefficient index `power` of det(tI - B_a B_b) mod p.

    power = 1 is the ordinary trace form (computed directly); larger powers
    go through the Berkowitz recurrence on the batch of pairwise products.
    The trace form sums n^2 terms, and for the quotient certificate n is
    dim T/Rad, up to the square of the scheme's n; it is reduced every
    `step` terms so that no partial sum leaves int64.
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
    gram = np.zeros((kdim, kdim), dtype=np.int64)
    # chunk the pair batch so memory stays near chunk * k * n^2 entries
    chunk = max(1, int(4_000_000 // max(1, kdim * n * n)))
    for start in range(0, kdim, chunk):
        part = mats[start : start + chunk]
        prods = np.einsum("aij,bjk->abik", part, mats) % p
        prods = prods.reshape(-1, n, n)
        coeffs = charpoly_coeffs(prods, p, upto=power)
        gram[start : start + chunk] = coeffs[:, power].reshape(part.shape[0], kdim)
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
    every call.
    """
    field = f if f is not None else algebra.field
    p, n = field.p, algebra.n
    if algebra.dim == 0:
        return Subspace.zero(field, n * n)
    basis = algebra.space.basis
    power = 1
    while power <= n and basis.shape[0] > 0:
        gram = _stage_gram(basis, n, p, power)
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
    """The three runtime certificates for a claimed radical: two-sided
    ideal, nilpotent (so the claim is contained in the true radical), and
    semisimple quotient.

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
    assert_two_sided_ideal(algebra, rad, "radical")
    _assert_nilpotent(algebra, rad)
    if algebra.contains_identity:
        if not algebra.space.contains(rad):
            raise InternalInconsistency("claimed radical is not contained in the algebra")
        gram = _stage_gram(algebra.space.basis, algebra.n, algebra.field.p, power=1)
        if kernel_array(gram, algebra.field.p).shape[0] == rad.dim:
            return
        quotient = _quotient_regular_rep(algebra, rad)
        if quotient is not None and quotient.dim > 0:
            again = radical(quotient, _verify=False)
            if again.dim != 0:
                raise InternalInconsistency(
                    f"quotient by the radical still has a radical of dim {again.dim}"
                )


def _assert_nilpotent(algebra: AlgebraBasis, ideal: Subspace) -> None:
    if ideal.dim == 0:
        return
    n = algebra.n
    p = algebra.field.p
    imats = ideal.basis.reshape(-1, n, n)
    current = ideal
    for _ in range(algebra.dim + 1):
        if current.dim == 0:
            return
        cmats = current.basis.reshape(-1, n, n)
        prods = np.einsum("aij,bjk->abik", cmats, imats) % p
        nxt = Subspace.span(algebra.field, prods.reshape(-1, n * n), ambient_dim=n * n)
        if nxt.dim >= current.dim:
            break
        current = nxt
    if current.dim != 0:
        raise InternalInconsistency("claimed radical is not nilpotent")


def _quotient_regular_rep(algebra: AlgebraBasis, ideal: Subspace) -> AlgebraBasis | None:
    """Left regular representation of algebra/ideal (ideal must be a
    two-sided ideal inside the algebra).

    Returns None for the zero quotient.  Faithful because the algebra is
    unital, so a zero radical here certifies semisimplicity of the quotient.
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
    reps = algebra.space.basis[comp].reshape(q, n, n)
    prods = np.einsum("aij,bjk->abik", reps, reps) % p
    coords = algebra.space.coords(prods.reshape(q * q, n * n))
    if coords is None:
        raise InternalInconsistency("algebra is not closed under products")
    coords = coords % p
    for row, pc in zip(icoords, ipivots):
        coords = (coords - np.outer(coords[:, pc], row)) % p
    qcoords = coords[:, comp].reshape(q, q, q)
    # reg(a)[:, b] = quotient coordinates of rep_a rep_b
    reg = qcoords.transpose(0, 2, 1)
    space = Subspace.span(field, reg.reshape(q, q * q), ambient_dim=q * q)
    if space.dim != q:
        raise InternalInconsistency("regular representation of the quotient is not faithful")
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
