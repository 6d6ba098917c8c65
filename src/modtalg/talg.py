"""Modular Terwilliger algebra machinery over GF(p).

Builds the adjacency matrices A_i and dual idempotents E_i*(x), generates
the algebra T(x) by span closure, computes the ideal pair B0/B1 spanned by
the blocks E_i* J E_j*, the Jacobson radical, and the annihilator of the
primary module.  Each is held as its pieces under the dual idempotents
(see `AlgebraBasis`), never as n^2-long rows; `AlgebraBasis.expand` gives
those rows to the oracles and tests that want them.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BasePointOutOfRange,
    IndexOutOfRange,
    InternalInconsistency,
    InvalidParameter,
    PrimeTooLarge,
)
from .ffmat import (
    FieldCtx,
    Subspace,
    charpoly_coeffs,
    kernel_array,
    matmul_mod,
    pairwise_mod,
    rref_array,
)
from .scheme import SchemeData

__all__ = [
    "check_prime_bound",
    "TalgContext",
    "build_context",
    "triple_product",
    "AlgebraBasis",
    "algebra_closure",
    "generate_algebra",
    "b0_b1",
    "radical",
    "check_radical_postconditions",
    "block_relations",
    "annihilator_W0",
]


def check_prime_bound(s: SchemeData, f: FieldCtx) -> None:
    """Raise PrimeTooLarge when n^2 (p-1)^2 >= 2^63 (see `TalgContext`)."""
    if s.n ** 2 * (f.p - 1) ** 2 >= 2 ** 63:
        raise PrimeTooLarge(f"p={f.p} is too large for n={s.n}: n^2 (p-1)^2 >= 2^63 would overflow int64")


class TalgContext:
    """The generators of T(x) for (scheme, GF(p), base point x).

    `gens` stacks the 2(d+1) generators A_0..A_d, E_0*..E_d* as one
    read-only int64 array of shape (2(d+1), n, n); `A` and `Estar` are
    views into it, and row i of `u` is the 0/1 vector u_i = E_i* 1.

    The defining identities (transposes, partitions of I and J,
    nonvanishing of E_i* J E_j*, and J E_i* 1 = k_i 1) are asserted eagerly
    at construction; a bad table fails here, not later.  The dual
    idempotents are symmetric and orthogonal by construction (see
    `_assert_identities`).
    A prime with n^2 (p-1)^2 >= 2^63 is rejected before any arithmetic
    (`check_prime_bound`, which `analysis.scheme_artifacts` runs first as
    well), so the int64 sums that do not go through `ffmat.matmul_mod` (the
    Berkowitz recurrence of `charpoly_coeffs`, and the independent products
    of `oracles` behind `verify --deep`) cannot overflow halfway through an
    analysis.  Products, including the trace Grams of the radical (K^2
    terms each, K the largest block of T's grading), run through
    `matmul_mod`, which is exact at any contraction length by its delayed
    reduction and needs only (p-1)^2 < 2^63, the bound `ffmat.rref_array`
    enforces as well.
    """

    __slots__ = ("scheme", "field", "x", "n", "d", "gens", "A", "Estar", "u")

    def __init__(self, scheme: SchemeData, field: FieldCtx, x: int):
        if not 0 <= x < scheme.n:
            raise BasePointOutOfRange(f"base point {x} outside [0, {scheme.n})")
        check_prime_bound(scheme, field)
        self.scheme = scheme
        self.field = field
        self.x = int(x)
        self.n = scheme.n
        self.d = scheme.d
        tab = scheme.table.entries
        rel = np.arange(self.d + 1)
        self.u = (tab[x] == rel[:, None]).astype(np.int64)
        adjacency = (tab == rel[:, None, None]).astype(np.int64)
        dual = self.u[:, :, None] * np.eye(self.n, dtype=np.int64)
        self.gens = np.concatenate([adjacency, dual])
        self.gens.setflags(write=False)
        self.u.setflags(write=False)
        self.A = self.gens[: self.d + 1]
        self.Estar = self.gens[self.d + 1 :]
        self._assert_identities()

    def _assert_identities(self) -> None:
        """Raise InternalInconsistency, with a witness, on a broken identity.

        E_i* = diag(u_i) with u_i(y) = [tab(x, y) = i] is diagonal, hence
        symmetric, with 0/1 entries, and no point has two relations to x, so
        u_i u_j = delta_ij u_i entrywise: E_i* E_j* = delta_ij E_i* holds by
        construction and is not checked.  The checked sum I puts every
        point in exactly one support."""
        d, p = self.d, self.field.p
        A, E = self.A, self.Estar
        for i in range(d + 1):
            if not np.array_equal(A[i].T, A[int(self.scheme.converse[i])]):
                raise InternalInconsistency(f"A_{i}^t != A_(i')", witness=("A_i^t != A_(i')", i))
        for message, wrong in (("A_0 != I", A[0] != np.eye(self.n)),
                               ("sum of dual idempotents != I", E.sum(axis=0) % p != np.eye(self.n)),
                               ("sum of adjacency matrices != J", A.sum(axis=0) % p != 1)):
            if wrong.any():
                raise InternalInconsistency(message, witness=(message, tuple(np.argwhere(wrong)[0].tolist())))
        # E_i* J E_j* = u_i u_j^T, zero iff u_i or u_j is
        nonzero = self.u.any(axis=1)
        vanished = np.argwhere(~(nonzero[:, None] & nonzero[None, :]))
        if vanished.size:
            i, j = (int(v) for v in vanished[0])
            raise InternalInconsistency(f"E_{i}* J E_{j}* vanished", witness=("E_i* J E_j* vanished", (i, j)))
        # J E_i* 1 = (sum of the entries of u_i) 1
        wrong = np.flatnonzero(self.u.sum(axis=1) % p != self.scheme.valencies % p)
        if wrong.size:
            raise InternalInconsistency(f"J E_{wrong[0]}* 1 != k_{wrong[0]} 1",
                                        witness=("J E_i* 1 != k_i 1", int(wrong[0])))

    def eje(self, i: int, j: int) -> np.ndarray:
        """E_i* J E_j* = u_i u_j^T."""
        return np.outer(self.u[i], self.u[j])


def build_context(s: SchemeData, f: FieldCtx, x: int) -> TalgContext:
    return TalgContext(s, f, x)


def triple_product(ctx: TalgContext, i: int, j: int, l: int) -> np.ndarray:
    """E_i* A_j E_l*; its action on 1 is (p_{l j'}^i mod p) E_i* 1."""
    for idx in (i, j, l):
        if not 0 <= idx <= ctx.d:
            raise IndexOutOfRange(f"relation index {idx} outside [0, {ctx.d}]")
    p = ctx.field.p
    return matmul_mod(matmul_mod(ctx.Estar[i], ctx.A[j], p), ctx.Estar[l], p)


class AlgebraBasis:
    """A graded space S of n x n matrices over GF(p), held as its pieces:
    T(x) and the spaces built from it, B0, B1, Rad(T), Ann_T(W_0) and the
    Phi(T) of the radical's certificate.  `blocks` is a label per point;
    with f_a the indicator of block a, of k_a points, S must be the direct
    sum of its pieces f_a S f_b.  `pieces[e]` is a basis element of grade
    `grades[e]` = a nb + b (nb blocks) as its local k_a x k_b matrix, padded
    with zeros to K x K, K the largest block, and `pivots[e]` the position
    of its leading entry in the row-major order of n x n matrices.

    The pieces given must be the reduced echelon bases of S's pieces; their
    union, sorted by pivot, is then the reduced row-echelon basis of S (see
    `algebra_closure`), the order the elements are kept in, and `expand`
    gives it as n^2-long rows.  One block, whose one piece is S, is the
    grading every space has.  `generators` is None except for the algebras
    `algebra_closure` returns, T(x) among them.
    """

    __slots__ = ("field", "n", "generators", "blocks", "pieces", "grades", "pivots")

    def __init__(self, field: FieldCtx, generators: np.ndarray | None, blocks: np.ndarray,
                 pieces: np.ndarray, grades: np.ndarray):
        n, nb, K = len(blocks), int(blocks.max()) + 1, pieces.shape[-1]
        points = _points(blocks, K)
        r, c = np.divmod((pieces.reshape(len(pieces), K * K) != 0).argmax(axis=1), K)
        leads = points[grades // nb, r] * n + points[grades % nb, c]
        order = np.argsort(leads)
        self.field, self.n, self.generators, self.blocks = field, n, generators, blocks
        self.pieces, self.grades, self.pivots = pieces[order], grades[order], leads[order]

    @property
    def dim(self) -> int:
        return len(self.pieces)

    def outside(self, other: "AlgebraBasis") -> np.ndarray:
        """Indices, increasing, of the elements of `other`, graded over the
        same blocks, that lie outside this space: an element lies in it
        exactly when its one piece lies in this space's piece of the same
        grade (see `_outside`); every element lies outside 0."""
        if not self.dim or not other.dim:
            return np.arange(other.dim)
        return np.flatnonzero(_outside(self.pieces, self.grades, other.pieces, other.grades,
                                       int(self.blocks.max()) + 1, self.field.p))

    def expand(self) -> Subspace:
        """The reduced row-echelon basis as n^2-long rows, for the oracles,
        `verify` and the tests; `analyze` never calls it."""
        n, nb = self.n, int(self.blocks.max()) + 1
        points = _points(self.blocks, self.pieces.shape[-1])
        e, r, c = np.nonzero(self.pieces)
        a, b = np.divmod(self.grades[e], nb)
        rows = np.zeros((self.dim, n * n), dtype=np.int64)
        rows[e, points[a, r] * n + points[b, c]] = self.pieces[e, r, c]
        rows.setflags(write=False)
        return Subspace(self.field, n * n, rows, tuple(self.pivots.tolist()))

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


def _local(blocks: np.ndarray) -> np.ndarray:
    """The index of every point within its block, in point order."""
    n = len(blocks)
    return np.cumsum(blocks[:, None] == np.arange(blocks.max() + 1), axis=0)[np.arange(n), blocks] - 1


def _points(blocks: np.ndarray, width: int) -> np.ndarray:
    """points[a, i]: the i-th point of block a, n past its end, for i < width."""
    points = np.full((int(blocks.max()) + 1, width), len(blocks))
    points[blocks, _local(blocks)] = np.arange(len(blocks))
    return points


def _cut(mats: np.ndarray, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner, grade, pieces), the inverse of `AlgebraBasis.expand`: the
    nonzero pieces f_a m f_b of every n x n matrix m = mats[e], as local
    matrices padded to K x K, each with its owner e and grade a nb + b,
    sorted by owner, then grade.  A homogeneous m has one piece; the
    pieces of a reduced echelon basis whose rows are all homogeneous are
    the reduced echelon bases of its pieces (see `algebra_closure`)."""
    sizes = np.bincount(blocks)
    nb, local = len(sizes), _local(blocks)
    e, r, c = np.unravel_index(np.flatnonzero(mats != 0), mats.shape)  # faster than np.nonzero in 3-D
    keys, which = np.unique((e * nb + blocks[r]) * nb + blocks[c], return_inverse=True)
    pieces = np.zeros((len(keys), sizes.max(), sizes.max()), dtype=np.int64)
    pieces[which, local[r], local[c]] = mats[e, r, c]
    return keys // (nb * nb), keys % (nb * nb), pieces


def _generator_products(gens: np.ndarray, mats: np.ndarray, p: int) -> np.ndarray:
    """g M and M g for every generator g and every M, stacked with shape
    (2, len(gens) * len(mats), n * n), left products first.

    An ideal test needs no more.  Let T be the algebra the g generate (with
    or without I).  If gI and Ig lie in a subspace I for every g, then
    {t : tI in I and It in I} is a unital subalgebra that contains every g,
    hence all of T: I is a two-sided ideal.  The converse holds because
    the g lie in T.
    """
    g, b, n = len(gens), len(mats), mats.shape[-1]
    out = np.empty((2, g, b, n, n), dtype=np.int64)
    pairwise_mod(gens, mats, p, out=out[0])
    pairwise_mod(mats, gens, p, out=out[1].transpose(1, 0, 2, 3))
    return out.reshape(2, g * b, n * n)


# Entries of one batched temporary of the closure and of the stage Grams.
_CHUNK = 1_000_000

# Blocks of at most this many points are padded to the largest of them and
# multiplied in one batch; a padded product costs at most 8^3 multiply-adds.
_SMALL = 8


def _echelon_by_piece(elems: np.ndarray, grade: np.ndarray, sizes: np.ndarray,
                      p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced echelon bases, piece by piece, of the span of homogeneous
    elements: elems[e] is the local matrix of piece grade[e] = a nb + b,
    k_a x k_b with k = `sizes`, padded with zeros to K x K.

    Returns (basis, grade, pivots), sorted by piece, with local pivots r K + c.
    The pieces' local entries are laid side by side as the columns of one
    `rref_array`; rows of different pieces share no nonzero column, so the
    elimination never mixes them and yields the union of the per-piece
    bases.  Consecutive pieces share one matrix while it stays within
    `_CHUNK` entries.  Rows are sorted by leading column first, so input
    that is reduced already, as disjoint 0/1 pieces are, takes the O(mn)
    path of `rref_array`.
    """
    nb, K = len(sizes), elems.shape[-1]
    order = np.argsort(grade, kind="stable")
    flat, grade = elems[order].reshape(len(order), K * K), grade[order]
    pieces, first, count = np.unique(grade, return_index=True, return_counts=True)
    width = sizes[pieces // nb] * sizes[pieces % nb]
    out = [(elems[:0], grade[:0], grade[:0])]
    lo, counts, widths = 0, count.tolist(), width.tolist()
    while lo < len(pieces):
        hi, rows, cols = lo + 1, counts[lo], widths[lo]
        while hi < len(pieces) and (rows + counts[hi]) * (cols + widths[hi]) <= _CHUNK:
            rows, cols, hi = rows + counts[hi], cols + widths[hi], hi + 1
        owner = np.repeat(pieces[lo:hi], width[lo:hi])
        t = np.arange(cols) - np.repeat(np.cumsum(width[lo:hi]) - width[lo:hi], width[lo:hi])
        col = t // sizes[owner % nb] * K + t % sizes[owner % nb]
        span = slice(first[lo], first[lo] + rows)
        x = np.where(grade[span, None] == owner, flat[span][:, col], 0)
        reduced, rank, piv = rref_array(x[np.argsort((x != 0).argmax(axis=1), kind="stable")], p)
        basis = np.zeros((rank, K * K), dtype=np.int64)
        r, c = np.nonzero(reduced[:rank])
        basis[r, col[c]] = reduced[r, c]
        out.append((basis.reshape(rank, K, K), owner[piv], col[piv]))
        lo = hi
    return tuple(np.concatenate(part) for part in zip(*out))


def _piece_bases(elems: np.ndarray, egrade: np.ndarray, epiv: np.ndarray, nb: int):
    """(dims, table, ext, pr, pc) for the reduced echelon bases of pieces,
    elems[e] of grade egrade[e] with local pivot epiv[e] = r K + c: the
    dimension of every piece, the rows of each piece's basis padded with
    the index of a zero element, the elements with that zero element
    appended, and the pivots' local rows and columns."""
    dims = np.bincount(egrade, minlength=nb * nb)
    eo = np.argsort(egrade, kind="stable")
    table = np.full((nb * nb, max(1, dims.max())), len(elems))
    table[egrade[eo], np.arange(len(eo)) - np.repeat(np.cumsum(dims) - dims, dims)] = eo
    ext = np.concatenate([elems, np.zeros((1, *elems.shape[1:]), dtype=np.int64)])
    return (dims, table, ext, *np.divmod(np.append(epiv, 0), elems.shape[-1]))


def _residuals(vals: np.ndarray, rows: np.ndarray, ext: np.ndarray, pr: np.ndarray,
               pc: np.ndarray, p: int) -> np.ndarray:
    """r = v - c B for local matrices v = vals[t] (P x Q) and the basis B of
    their piece, elements rows[t] of `_piece_bases`: c = v at B's pivots, as
    in `Subspace.reduce`, so r = 0 exactly when v lies in the piece."""
    k, P, Q = vals.shape
    coef = vals[np.arange(k)[:, None], pr[rows], pc[rows]]
    comb = matmul_mod(coef[:, None, :], ext[rows, :P, :Q].reshape(k, rows.shape[1], P * Q), p)
    return (vals - comb.reshape(vals.shape)) % p


def _outside(basis: np.ndarray, bgrade: np.ndarray, pieces: np.ndarray, grade: np.ndarray,
             nb: int, p: int) -> np.ndarray:
    """Which pieces (pieces[e] of grade grade[e], padded K x K) lie outside
    a graded space given by the reduced echelon bases of its pieces,
    basis[e] of grade bgrade[e], as a boolean per piece.  A matrix lies in
    the space exactly when each of its pieces lies in the space's piece of
    the same grade, which `_residuals` decides for all at once."""
    leads = (basis.reshape(len(basis), basis.shape[1] ** 2) != 0).argmax(axis=1)
    _, table, ext, pr, pc = _piece_bases(basis, bgrade, leads, nb)
    return _residuals(pieces, table[grade], ext, pr, pc, p).any(axis=(1, 2))


def _grouped_rref(rows: np.ndarray, item: np.ndarray, count: int, p: int, height: int = 0):
    """`rref_array` of the rows of each item 0..count-1 (row r belongs to
    item[r]), in one stacked elimination of as many rows per item as the
    largest item has, and at least `height`: (reduced, rank, pivots) as for
    a stack."""
    order = np.argsort(item, kind="stable")
    per = np.bincount(item, minlength=count)
    stack = np.zeros((count, max(per.max(initial=0), height), rows.shape[1]), dtype=np.int64)
    stack[item[order], np.arange(len(item)) - np.repeat(np.cumsum(per) - per, per)] = rows[order]
    return rref_array(stack, p)


def _reduced_products(mults: np.ndarray, mgrade: np.ndarray, elems: np.ndarray,
                      egrade: np.ndarray, epiv: np.ndarray, frontier: np.ndarray,
                      sizes: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero residuals, with their pieces, of every product m f of a
    multiplier m of grade (i, j) and a frontier element f of grade (j, l),
    reduced against the basis of piece (i, l) alone: r = v - c B with
    c = v at B's pivots, as in `Subspace.reduce`.  Grades are a nb + b.

    Products run through `matmul_mod` in batches of one padded shape
    (P_i, P_j, P_l): a block of at most `_SMALL` points is padded to the
    largest such block, a larger block keeps its size, and every batch,
    with the piece bases it gathers, stays within `_CHUNK` entries.
    """
    nb, K = len(sizes), elems.shape[-1]
    a, b = np.nonzero(mgrade[:, None] % nb == egrade[frontier] // nb)
    b = frontier[b]
    i, j, l = mgrade[a] // nb, mgrade[a] % nb, egrade[b] % nb
    target = i * nb + l
    dims, table, ext, pr, pc = _piece_bases(elems, egrade, epiv, nb)
    pad = np.where(sizes <= _SMALL, sizes[sizes <= _SMALL].max(initial=1), sizes)
    shapes = (pad[i] * (K + 1) + pad[j]) * (K + 1) + pad[l]
    res, rgrade = [elems[:0]], [target[:0]]
    for shape in np.unique(shapes).tolist():
        sel = np.flatnonzero(shapes == shape)
        Pi, Pj, Pl = shape // (K + 1) ** 2, shape // (K + 1) % (K + 1), shape % (K + 1)
        dg = max(1, dims[target[sel]].max())
        step = max(1, _CHUNK // (Pi * Pj + Pj * Pl + (dg + 2) * Pi * Pl))
        for part in np.split(sel, np.arange(step, len(sel), step)):
            prod = matmul_mod(mults[a[part], :Pi, :Pj], ext[b[part], :Pj, :Pl], p)
            r = _residuals(prod, table[target[part], :dg], ext, pr, pc, p)
            keep = r.any(axis=(1, 2))
            res.append(np.pad(r[keep], ((0, 0), (0, K - Pi), (0, K - Pl))))
            rgrade.append(target[part][keep])
    return np.concatenate(res), np.concatenate(rgrade)


def algebra_closure(field: FieldCtx, generators: np.ndarray) -> AlgebraBasis:
    """Smallest product-closed span T containing the generators and I,
    closed piece by piece.

    Pieces.  Let f_a be the indicators of the blocks of
    `_idempotent_blocks`, of k_a points each.  T is the direct sum of its
    pieces S_ab = f_a T f_b, and an element of S_ab is a k_a x k_b matrix in
    local coordinates.  The seed P holds the nonzero pieces f_a g f_b of
    every generator g and every f_a; all lie in T, and P generates T,
    since g and I are sums of elements of P.  A homogeneous element is one
    of a single piece; the product of grades (i, j) and (j', l) is 0 unless
    j = j', and then has grade (i, l).  f_a times a homogeneous element is
    the element itself or 0, so in a word in P every f_a can be dropped (or
    the word is 0, or it is f_a alone): the words in P span the same space
    as the f_a and the words in the multipliers M, the elements of P that
    are not some f_a.

    Worklist.  S_0 is the span of P, held as the reduced echelon bases of
    its pieces, and the first frontier F_0 is that basis.  Round k forms
    m f for every m in M of grade (i, j) and every f in F_k of grade
    (j, l), reduces it against the basis of S_il only, and echelonizes the
    nonzero residuals with the old bases of the pieces they hit, in one
    batch (see `_echelon_by_piece`).  The elements whose pivots are new
    form F_(k+1), and S_(k+1) = S_k + span F_(k+1): each is zero on the old
    pivots, so none is a combination of the others plus an element of S_k,
    and together they add the rank the residuals add.  The loop stops at
    the first round without a nonzero residual, with S = S_k.  Every other
    round raises the dimension, so there are at most n^2 rounds.

    S = S_k is T.  S is graded, so it is closed under left multiplication
    by every f_a.  An s in S is a sum of elements f of the frontiers, and
    m s is a sum of the m f, each formed in the round after f entered (the
    others are 0 by grade) and lying in S.  So S contains every f_a, and
    by induction on the length every word m_1 m_2 ... m_r =
    m_1 (m_2 ... m_r) in M, hence all of T; it holds nothing else, since
    every element found is a combination of such words.

    Output.  The pieces' supports in the flat n^2 order are disjoint, and
    the local row-major order of a piece is the flat order restricted to
    it.  So each local basis row keeps its leading 1 in the flat order,
    and every other row, of its piece or of another, is zero at that
    pivot: the union of the piece bases, sorted by pivot as `AlgebraBasis`
    keeps it, is in reduced row-echelon form.  That form of a subspace is unique, so the basis
    does not depend on how the closure found it.
    """
    p = field.p
    gens = np.asarray(generators, dtype=np.int64) % p
    if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
        raise InvalidParameter("generators must be a stack of square matrices")
    blocks = _idempotent_blocks(gens)
    sizes = np.bincount(blocks)
    nb, K = len(sizes), int(sizes.max())
    _, grade, pieces = _cut(gens, blocks)
    ident = (np.arange(K) < sizes[:, None])[:, :, None] * np.eye(K, dtype=np.int64)
    unit = (grade // nb == grade % nb) & (pieces == ident[grade // nb]).all(axis=(1, 2))
    mults, mgrade = pieces[~unit], grade[~unit]
    elems, egrade, epiv = _echelon_by_piece(np.concatenate([mults, ident]),
                                            np.append(mgrade, np.arange(nb) * (nb + 1)), sizes, p)
    frontier = np.arange(len(elems))
    while True:
        res, rgrade = _reduced_products(mults, mgrade, elems, egrade, epiv, frontier, sizes, p)
        if not len(res):
            break
        old = np.isin(egrade, rgrade)
        new = _echelon_by_piece(np.concatenate([elems[old], res]), np.append(egrade[old], rgrade), sizes, p)
        fresh = ~np.isin(new[1] * K * K + new[2], egrade[old] * K * K + epiv[old])
        frontier = np.count_nonzero(~old) + np.flatnonzero(fresh)
        elems, egrade, epiv = (np.concatenate([x[~old], y]) for x, y in zip((elems, egrade, epiv), new))
    return AlgebraBasis(field, gens, blocks, elems, egrade)


def generate_algebra(ctx: TalgContext) -> AlgebraBasis:
    """The modular Terwilliger algebra T(x) as an echelonized basis."""
    return algebra_closure(ctx.field, ctx.gens)


def assert_two_sided_ideal(alg: AlgebraBasis, ideal: Subspace, what: str) -> None:
    """Raise InternalInconsistency unless g I and I g lie in I for every
    generator g of the algebra, i.e. unless I is a two-sided ideal (see
    `_generator_products`).  The witness (side, g, b) names the first
    product outside I: generator g times basis element b of I, on the left
    ("left", g b) or on the right ("right", b g)."""
    n = alg.n
    prods = _generator_products(alg.generators, ideal.basis.reshape(-1, n, n), alg.field.p)
    outside = ideal.outside(prods.reshape(-1, n * n))
    if outside.size:
        side, g, b = np.unravel_index(outside[0], (2, len(alg.generators), ideal.dim))
        raise InternalInconsistency(f"{what} is not a two-sided ideal",
                                    witness=(("left", "right")[side], int(g), int(b)))


def block_relations(ctx: TalgContext, talgebra: AlgebraBasis) -> np.ndarray:
    """The relation of every block of T, after checking that the block is
    the support of its u_i = E_i* 1, as for T(x), whose generators include
    every E_i*; then E_i* is the block's indicator f_a.  The context has
    checked that the u_i partition the points and none is zero, so the
    blocks are then the supports, one each.  Otherwise
    InternalInconsistency is raised with the witness ("Ann_T(W0) blocks",
    block, point) of a point where the block and the support of the u_i
    at its first point differ.  `analysis.compute_artifacts` runs it once,
    before the annihilator, and passes its result on.
    """
    indicator = talgebra.blocks == np.arange(talgebra.blocks.max() + 1)[:, None]
    owner = ctx.u[:, indicator.argmax(axis=1)].argmax(axis=0)
    wrong = ctx.u[owner] != indicator
    if wrong.any():
        raise InternalInconsistency("the blocks of T are not the supports of the E_v* 1",
                                    witness=("Ann_T(W0) blocks", *np.argwhere(wrong)[0].tolist()))
    return owner


def b0_b1(talgebra: AlgebraBasis, relation: np.ndarray,
          filt: list[np.ndarray]) -> tuple[AlgebraBasis, AlgebraBasis]:
    """The ideal B0 = span{E_i* J E_j*} and its sub-ideal B1 from pairs with
    p | k_i k_j, graded over T's blocks; relation[a] is the relation of
    block a (see `block_relations`) and `filt` the chain of
    `primary.filtration`, whose W_1 = filt[1] holds the i with p | k_i.

    Both are ideals of T because `filtration` checked W_0 and W_1
    invariant, W_m spanned by its u_i = E_i* 1.  E_i* J E_j* = u_i u_j^T, so
    B0 = W_0 (x) W_0.  For a generator g, g u_i u_j^T = (g u_i) u_j^T and
    u_i u_j^T g = u_i (g^T u_j)^T, where g^T is again a generator
    (A_k^T = A_k' and E_k* is symmetric, asserted by TalgContext), so B0 is
    closed under the generators, hence under T (see `_generator_products`).
    As p is prime, p | k_i k_j iff p | k_i or p | k_j, so
    B1 = W_1 (x) W_0 + W_0 (x) W_1, closed the same way.  B0 lies in T
    (checked), hence so does B1.

    T's blocks are the supports of the u_i (checked by `block_relations`),
    so u_i u_j^T is the all-ones piece of grade (a, b), a and b the blocks
    of i and j.  These are (d+1)^2 pieces of distinct grades, each nonzero
    with leading entry 1, so they are independent and each is the reduced
    echelon basis of its piece: B0 and B1 need no elimination, and
    dim B0 = (d+1)^2.  B0 inside T is decided piece by piece, each all-ones
    piece reduced against the echelon basis of T's piece of its grade (see
    `_outside`); a failure raises InternalInconsistency with the witness
    ("B0 not contained in T", (i, j)) of the first pair whose E_i* J E_j*
    is not in T.
    """
    p, nb, blocks = talgebra.field.p, len(relation), talgebra.blocks
    block = np.argsort(relation)
    live = np.arange(talgebra.pieces.shape[-1]) < np.bincount(blocks)[:, None]
    i, j = np.divmod(np.arange(nb * nb), nb)
    a, b = block[i], block[j]
    pieces, grade = (live[a, :, None] & live[b, None, :]).astype(np.int64), a * nb + b
    outside = np.flatnonzero(_outside(talgebra.pieces, talgebra.grades, pieces, grade, nb, p))
    if outside.size:
        raise InternalInconsistency("B0 not contained in T",
                                    witness=("B0 not contained in T", divmod(int(outside[0]), nb)))
    divisible = np.isin(np.arange(nb), filt[1])
    pairs = (divisible[:, None] | divisible[None, :]).reshape(-1)
    return (AlgebraBasis(talgebra.field, None, blocks, pieces, grade),
            AlgebraBasis(talgebra.field, None, blocks, pieces[pairs], grade[pairs]))


def _stage_gram(pieces: np.ndarray, grade: np.ndarray, sizes: np.ndarray, p: int,
                power: int) -> np.ndarray:
    """Gram matrix G[a, b] of the stage function applied to products:
    G[a, b] = coefficient index `power` of det(tI - B_a B_b) mod p, for the
    homogeneous n x n matrices B_a held as local pieces of grade grade[a]
    over blocks of `sizes` points (see `AlgebraBasis`).

    Let B_a have grade (i, j) and B_b grade (l, m).  B_a B_b is zero unless
    j = l, and then lies in the piece (i, m); for i != m its square is
    zero, so it is nilpotent and G[a, b] = 0.  For i = m it is zero outside
    the k_i x k_i diagonal block of the points of block i, which is the
    product of the two local pieces, so det(tI - B_a B_b) is t^(n - k_i)
    times that block's polynomial: G[a, b] is its coefficient `power`, zero
    when power > k_i.  So G vanishes off the grade pairs (i, j), (j, i).

    power = 1 is the trace form, the sum of B_a[r, c] B_b[c, r] over the
    local entries: one `matmul_mod` product over the K^2 padded local
    entries, K the largest block, masked to those pairs; the kernel's
    delayed reduction keeps it exact at any length.  Larger powers form the
    products of matching pieces in batches of one block size k_i, the inner
    index padded to the largest block in the batch, and run the Berkowitz
    recurrence once per batch, split only where a factor would pass
    `_CHUNK` entries.
    """
    nb, (m, K, _) = len(sizes), pieces.shape
    row, col = np.divmod(grade, nb)
    pairs = (row[:, None] == col) & (col[:, None] == row)
    if power == 1:
        gram = matmul_mod(pieces.reshape(m, K * K), pieces.transpose(0, 2, 1).reshape(m, K * K).T, p)
        return np.where(pairs, gram, 0)
    gram = np.zeros((m, m), dtype=np.int64)
    a, b = np.nonzero(pairs & (sizes[row] >= power)[:, None])
    k = sizes[row[a]]
    for size in np.unique(k).tolist():
        sel = np.flatnonzero(k == size)
        inner = int(sizes[col[a[sel]]].max())
        step = max(1, _CHUNK // (size * inner))
        for part in np.split(sel, np.arange(step, len(sel), step)):
            prods = matmul_mod(pieces[a[part], :size, :inner], pieces[b[part], :inner, :size], p)
            gram[a[part], b[part]] = charpoly_coeffs(prods, p, upto=power)[:, power]
    return gram


def _graded_kernel(images: np.ndarray, grade: np.ndarray, p: int,
                   elements: bool = False) -> tuple[np.ndarray, int]:
    """(ker, rank): the reduced echelon basis of the left kernel
    {c : c images = 0} and the rank of `images`, where images[e] is the
    image of element e of grade grade[e] in coordinates that only the
    elements of its grade use.  With `elements` the coordinates are
    themselves elements, of one grade for each grade of rows, and are
    numbered among the elements of their grade.

    The images of different grades lie in independent coordinates, so the
    left kernel is the direct sum over the grades g of the left kernels of
    the blocks images[g], and the rank the sum of their ranks.  All blocks
    are solved in one stacked `kernel_array`, block g transposed as item g
    (a grade without elements gives an empty item), with the elements of g
    as its columns in index order.  Scattered back to those elements, a
    kernel row keeps its leading 1 and the other rows of g stay zero there;
    rows of other grades are zero on g.  So the rows, sorted by leading
    column, are in reduced row-echelon form, which is unique: the basis one
    elimination of the whole system would give.
    """
    order = np.argsort(grade, kind="stable")
    counts = np.bincount(grade)
    start = np.cumsum(counts) - counts
    pos, width = np.argsort(order) - start[grade], counts.max(initial=0)
    e, j = np.nonzero(images)
    stack = np.zeros((len(counts), width if elements else images.shape[1], width), dtype=np.int64)
    stack[grade[e], pos[j] if elements else j, pos[e]] = images[e, j]
    rows, which, rank = kernel_array(stack, p, counts)
    r, c = np.nonzero(rows)
    ker = np.zeros((len(rows), len(grade)), dtype=np.int64)
    ker[r, order[start[which[r]] + c]] = rows[r, c]
    return ker[np.argsort(order[start[which] + (rows != 0).argmax(axis=1)])], int(rank.sum())


def radical(algebra: AlgebraBasis, *, _verify: bool = True) -> AlgebraBasis:
    """Jacobson radical of a unital matrix algebra over GF(p), graded over
    the algebra's blocks.

    Characteristic-p trace-form iteration: for every p^k <= n the current
    subspace L shrinks to the null space of (x, y) -> c_{p^k}(x y), where
    c_m is the degree-(n-m) characteristic polynomial coefficient.  Over
    GF(p) each stage condition is linear in the coefficients of x.  The
    radical survives every stage (nilpotent products have vanishing
    coefficients), and the iteration is exact (Cohen, Ivanyos & Wales,
    JPAA 1997).  Stages p^k beyond the largest block of the grading are
    skipped: their Gram is zero (see `_stage_gram`).

    L is held as homogeneous elements in local coordinates, starting from
    the pieces of T.  G[a, b] != 0 only for grades (i, j) and (j, i), so
    row a of G lies in the coordinates of the elements of the transposed
    grade of a, and ker G^T, the left kernel of G, is the direct sum over
    the grades g of the left kernels of the blocks G[g, g^T], solved in one
    stacked elimination (see `_graded_kernel`).  Its reduced echelon basis,
    the union of theirs sorted by lead, has homogeneous rows; the assembled
    rows are checked, and a row that is not homogeneous raises
    InternalInconsistency with the witness (p^k, row).  A row of the kernel
    combines elements of one piece, so (ker G) L is the same combination of
    their local matrices, with the grade of the row's pivot.  Per grade,
    (ker G) L is the product of two reduced bases, so it is the reduced
    echelon basis of the new candidate's piece with no elimination (see
    `ffmat`), the form `AlgebraBasis` holds.

    A nonzero result is certified by `check_radical_postconditions` on
    every call, on the flag it spans in GF(p)^n, built block by block from
    the result's pieces; that certificate runs this function once more,
    unverified, on Phi(T), T's action on the factors of the flag, which has
    T's blocks and is read off one stacked elimination, not a second
    closure.  A zero result needs no certificate: its steps 1-3 hold for R = 0
    by construction (0 lies in T, the flag V > 0 reaches 0, is invariant,
    and Phi is the identity), and its step 4, the stage radical of T, is
    this computation, deterministic, which has just returned 0.
    """
    p, sizes = algebra.field.p, np.bincount(algebra.blocks)
    pieces, grade = algebra.pieces, algebra.grades
    power = 1
    while power <= sizes.max() and len(pieces):
        ker = _graded_kernel(_stage_gram(pieces, grade, sizes, p, power), grade, p, elements=True)[0]
        lead = (ker != 0).argmax(axis=1)
        mixed = np.flatnonzero(((ker != 0) & (grade != grade[lead][:, None])).any(axis=1))
        if mixed.size:
            raise InternalInconsistency(f"kernel row {mixed[0]} at stage {power} is not homogeneous",
                                        witness=(power, int(mixed[0])))
        if len(ker) < len(pieces):
            pieces = matmul_mod(ker, pieces.reshape(len(pieces), -1), p).reshape(-1, *pieces.shape[1:])
            grade = grade[lead]
        power *= p
    rad = AlgebraBasis(algebra.field, None, algebra.blocks, pieces, grade)
    if _verify and rad.dim:
        check_radical_postconditions(algebra, rad)
    return rad


def _loewy_flag(pieces: np.ndarray, grade: np.ndarray, sizes: np.ndarray, p: int):
    """(levels, adapted, inverse, level): the flag V_0 = GF(p)^n,
    V_(k+1) = R V_k, block by block, of a claim R given by the pieces of its
    echelon rows, all homogeneous: pieces[e] of grade grade[e] = a nb + b,
    over blocks of `sizes` points.

    levels[k] = (basis, pivots) for every nonzero V_k: basis[a] is the
    reduced echelon basis of V_k^a = f_a V_k in local coordinates, its rows
    padded with zeros to K x K, and pivots[a] their local pivots, K past
    the rank.  V_0 is graded, and if V_k is, so is V_(k+1), with
    V_(k+1)^a = sum_b R_ab V_k^b: an x of grade (a, b) sends V_k^b into
    block a and kills every other V_k^c.  So the pieces of V_(k+1) are the
    echelon forms, per block a, of the nonzero products x v of the x of
    grade (a, b) and the rows v of V_k^b, all blocks in one stacked
    elimination.  Raises InternalInconsistency with the witness
    ("nilpotency", k, dim V_k) when R maps V_k onto itself.

    adapted[a] is the flag-adapted basis B_a: as its columns, the rows of
    V_k^a whose pivots V_(k+1)^a lacks, in order of k, each of level
    level[a, column] = k; they complement V_(k+1)^a in V_k^a, so the k_a of
    them are a basis of the block.  The identity fills the padding, where
    level is -1, and inverse[a] is B_a^-1.
    """
    nb, K = len(sizes), pieces.shape[-1]
    live, eye = np.arange(K) < sizes[:, None], np.eye(K, dtype=np.int64)
    basis, pivots = live[:, :, None] * eye, np.where(live, np.arange(K), K)
    adapted, level = eye - basis, np.full((nb, K), -1)
    levels, (a, b) = [], np.divmod(grade, nb)
    while (pivots < K).any():
        levels.append((basis, pivots))
        prods = matmul_mod(basis[b], pieces.transpose(0, 2, 1), p).reshape(-1, K)
        keep = prods.any(axis=1)
        reduced, rank, piv = _grouped_rref(prods[keep], np.repeat(a, K)[keep], nb, p, K)
        if rank.sum() == (pivots < K).sum():
            raise InternalInconsistency("claimed radical is not nilpotent",
                                        witness=("nilpotency", len(levels) - 1, int(rank.sum())))
        # after the k_a - dim V_k^a columns of the levels above
        x, j = np.nonzero((pivots < K) & ~(pivots[:, :, None] == piv[:, None, :]).any(axis=2))
        col = sizes[x] - (pivots < K).sum(axis=1)[x] + np.arange(len(x)) - np.searchsorted(x, x)
        adapted[x, :, col], level[x, col] = basis[x, j], len(levels) - 1
        basis, pivots = reduced[:, :K], piv
    inverse = rref_array(np.concatenate([adapted, np.tile(eye, (nb, 1, 1))], axis=2), p)[0][..., K:]
    return levels, adapted, inverse, level


def check_radical_postconditions(algebra: AlgebraBasis, rad: AlgebraBasis | Subspace) -> None:
    """Certify that the claim R = `rad` is the Jacobson radical J(T) of the
    algebra T, on its Loewy flag in the standard module V = GF(p)^n: J(T) is
    the annihilator of a flag of submodules with semisimple factors (Curtis
    & Reiner, Methods of Representation Theory, section 5).  The claim is
    never trusted, so this certifies any subspace, not only the output of
    `radical`: graded over T's blocks, or as a `Subspace` of n^2-long rows.
    Every step runs on the pieces of T's grading (see `AlgebraBasis`; f_a
    is the indicator of block a, S_ab = f_a T f_b).

    1. R lies in T: each piece of each row of R lies in T's piece of its
       grade (see `_outside`).  Every row of R's reduced echelon basis is
       homogeneous: J(T) is a two-sided ideal and every f_a lies in T, so
       J(T) is the direct sum of its pieces f_a J(T) f_b, and the reduced
       echelon rows of such a graded space are homogeneous (see
       `algebra_closure`).  A claim with a row that is not is not J(T), and
       rejecting it loses no valid claim.  R is then the direct sum of the
       R_ab, its rows of grade (a, b) being their echelon bases.  A graded
       claim holds only homogeneous rows; a flat one is cut into its pieces
       (see `_claim`).
    2. The flag V_0 = V, V_(k+1) = R V_k reaches 0.  It decreases: V_1 lies
       in V_0, and V_(k+1) = R V_k lies in R V_(k-1) = V_k.  So it stops at
       the first V_(k+1) = V_k, and if that V_k is not 0, then R^j V_k = V_k
       for every j and R is not nilpotent.  Every V_k is graded, and is
       built block by block (see `_loewy_flag`).
    3. g V_k lies in V_k for every generator g, so every V_k is a
       T-submodule ({t : t V_k in V_k} is a unital subalgebra that holds
       the generators).  For each block a, the rows of V_k^a whose pivots
       V_(k+1)^a lacks complement V_(k+1)^a in V_k^a, so taken in order of
       k they are the columns of an invertible k_a x k_a matrix B_a, and
       V_k^a is spanned by its columns of level k and beyond (see
       `_loewy_flag`).  V_k is graded, so g v for v in V_k^b lies in V_k
       exactly when each piece f_a g f_b v lies in V_k^a, that is, when its
       coordinates B_a^-1 f_a g f_b v vanish on the levels below k.  Phi
       sends t to its action on the factors V_k / V_(k+1); with the flag
       invariant it is a unital homomorphism, and dim Phi(T) + dim R =
       dim T must hold.  Phi(T) is found without a second closure.  A t in
       S_ab maps V_k^b into V_k^a, so B_a^-1 t B_b is block lower
       triangular by level, and Phi(t) is its level-diagonal part, in the
       points of blocks a and b: Phi(T) has T's blocks, and
       Phi(f_a) = f_a.  The rows C of T's echelon basis whose pivots R
       lacks complement R in T: R in T gives leads(R) in leads(T), |C| =
       dim T - dim R, and a nonzero combination of C's rows leads at a
       pivot of C, which no element of R does.  R lies in N = ker Phi
       (R V_k = V_(k+1)), so Phi(T) = span Phi(C), and dim N = dim R
       exactly when rank Phi(C) = |C|.  One stacked elimination over the
       grades of C (Phi is graded) gives that rank and the reduced echelon
       bases of Phi(T)'s pieces.
    4. The stage radical of Phi(T) is 0.

    Soundness.  N = ker Phi = {t in T : t V_k in V_(k+1) for all k} is a
    two-sided ideal, because the flag is invariant: for s in N and t in T,
    t s V_k lies in t V_(k+1), inside V_(k+1), and s t V_k in s V_k.  With m
    steps in the flag, N^m V lies in V_m = 0, and V is faithful, so N^m = 0
    and N lies in J(T).  R lies in N by construction, as R V_k = V_(k+1),
    and step 3 makes dim N = dim T - dim Phi(T) = dim R, so N = R.
    Phi(T) is isomorphic to T/N.  The stage radical contains the radical of
    the algebra it runs on (nilpotent products have vanishing coefficients),
    so its zero result makes T/N semisimple; the image of J(T) there is a
    nilpotent ideal, hence 0, and J(T) lies in N.  So R = N = J(T).

    Completeness.  R = J(T) lies in T, is graded and is nilpotent.  It is an
    ideal, so t R V_k lies in R V_k and every V_k is a submodule.  N is a
    nilpotent ideal that contains R, so N = R, and Phi(T) = T/J(T) is
    semisimple, on which the stage radical, exact by Cohen, Ivanyos & Wales
    (JPAA 1997), returns 0.

    Phi(T) has T's blocks, with the same sizes, so the stage loop on it
    stops where the one on T did.  For R = 0 the flag is V > 0, whose one
    factor V has the identity as its adapted basis, so Phi is the identity,
    step 3 holds, and step 4 runs on T.

    A failure raises InternalInconsistency with the witness
    ("containment", first basis index of R outside T),
    ("graded", first basis index of R that is not homogeneous),
    ("nilpotency", k, dim V_k) for the V_k that R maps onto itself,
    ("flag", g, k, v) for the first generator g, in order of k, then g,
    then v, that sends basis vector v of V_k outside V_k,
    ("annihilator", first basis index of N outside R), N being computed
    only then, as R plus the kernel of Phi on C, or ("quotient", dim of the
    stage radical of Phi(T)).
    """
    rad, quotient = _claim(algebra, rad), algebra
    if rad.dim:
        field, n, p, blocks = algebra.field, algebra.n, algebra.field.p, algebra.blocks
        nb, K = int(blocks.max()) + 1, algebra.pieces.shape[-1]
        levels, adapted, inverse, level = _loewy_flag(rad.pieces, rad.grades, np.bincount(blocks), p)
        # step 3; v numbers V_k's flat echelon basis, every block's rows at
        # their points, sorted by pivot
        owner, grade, pieces = _cut(algebra.generators, blocks)
        a, b = np.divmod(grade, nb)
        points = _points(blocks, K + 1)
        for k, (basis, pivots) in enumerate(levels[1:], start=1):
            coords = matmul_mod(inverse[a], matmul_mod(pieces, basis[b].transpose(0, 2, 1), p), p)
            e, j = np.nonzero(((coords != 0) & (level[a] < k)[:, :, None]).any(axis=1))
            if e.size:
                leads = points[np.arange(nb)[:, None], pivots]
                v = np.searchsorted(np.sort(leads[leads < n]), leads[b[e], j])
                g, v = min(zip(owner[e].tolist(), v.tolist()))
                raise InternalInconsistency(f"generator {g} does not preserve V_{k} of the radical's flag",
                                            witness=("flag", g, k, v))
        # Phi(C), C the rows of T's basis whose pivots R lacks: the
        # level-diagonal part of B_a^-1 t B_b for t of grade (a, b)
        comp = ~np.isin(algebra.pivots, rad.pivots)
        c, cgrade = algebra.pieces[comp], algebra.grades[comp]
        ca, cb = np.divmod(cgrade, nb)
        phi = matmul_mod(matmul_mod(inverse[ca], c, p), adapted[cb], p)
        phi = (phi * (level[ca][:, :, None] == level[cb][:, None, :])).reshape(len(c), K * K)
        keys, item = np.unique(cgrade, return_inverse=True)
        reduced, rank, _ = _grouped_rref(phi, item, len(keys), p)
        if rank.sum() < len(c):
            ker = _graded_kernel(phi, cgrade, p)[0]
            kernel = matmul_mod(ker, c.reshape(len(c), -1), p).reshape(-1, K, K)
            kgrade = cgrade[(ker != 0).argmax(axis=1)]
            found = _echelon_by_piece(np.concatenate([rad.pieces, kernel]), np.append(rad.grades, kgrade),
                                      np.bincount(blocks), p)
            extra = rad.outside(AlgebraBasis(field, None, blocks, *found[:2]))
            raise InternalInconsistency(
                f"the radical's flag is annihilated by dim {algebra.dim - int(rank.sum())}, not {rad.dim}",
                witness=("annihilator", int(extra[0])))
        e, r = np.nonzero(np.arange(reduced.shape[1]) < rank[:, None])
        quotient = AlgebraBasis(field, None, blocks, reduced[e, r].reshape(-1, K, K), keys[e])
    again = radical(quotient, _verify=False)
    if again.dim:
        raise InternalInconsistency(f"quotient by the radical still has a radical of dim {again.dim}",
                                    witness=("quotient", again.dim))


def _claim(algebra: AlgebraBasis, rad: AlgebraBasis | Subspace) -> AlgebraBasis:
    """Step 1 of `check_radical_postconditions`: the claim, graded over the
    algebra's blocks, once each piece of each of its rows is found in the
    algebra's piece of its grade and each row is homogeneous.  A flat claim
    is cut into its pieces here, the one place it is converted."""
    nb, p = int(algebra.blocks.max()) + 1, algebra.field.p
    if isinstance(rad, Subspace):
        owner, grade, pieces = _cut(rad.basis.reshape(rad.dim, algebra.n, algebra.n), algebra.blocks)
    else:
        owner, grade, pieces = np.arange(rad.dim), rad.grades, rad.pieces
    outside = owner[_outside(algebra.pieces, algebra.grades, pieces, grade, nb, p)]
    if outside.size:
        raise InternalInconsistency("claimed radical is not contained in the algebra",
                                    witness=("containment", int(outside[0])))
    mixed = owner[1:][np.diff(owner) == 0]
    if mixed.size:
        raise InternalInconsistency(f"row {mixed[0]} of the claimed radical is not homogeneous",
                                    witness=("graded", int(mixed[0])))
    return AlgebraBasis(algebra.field, None, algebra.blocks, pieces, grade)


def annihilator_W0(talgebra: AlgebraBasis) -> AlgebraBasis:
    """Ann_T(W_0): the elements of T that kill W_0, the span of the
    u_v = E_v* 1, graded over T's blocks.  It is an ideal of T because
    `filtration` checked W_0 invariant: for s in Ann and t in T, ts W_0 = 0
    and st W_0 lies in s W_0 = 0.

    Solved on T's pieces.  T's blocks must be the supports of the u_v, as
    `block_relations` checks before `analysis.compute_artifacts` calls
    this; then an element x of grade (a, b) sends the u_v of block b to
    its local row sums on block a and every other u_v to 0.
    Elements of different grades so map into independent coordinates
    (block a, u_v), and Ann, in the coordinates of T's basis, is the direct
    sum of the left kernels of the row sums, one per grade, solved in one
    stacked elimination (see `_graded_kernel`); (ker) L on T's pieces is
    the reduced echelon basis of Ann's pieces, as in `radical`.

    Certified: the row sums of the result vanish, so it kills W_0 (and lies
    in Ann, being made from T's basis); its leading entries are distinct,
    so it is independent; and its dimension plus the rank of the row sums,
    read off the same elimination, is dim T.  A failure raises
    InternalInconsistency with the witness ("Ann_T(W0)", element, v) for
    the first element that does not kill basis vector v of W_0 (the u_v in
    order of their first points), or "Ann_T(W0) dimension".
    """
    p, blocks = talgebra.field.p, talgebra.blocks
    pieces, grade = talgebra.pieces, talgebra.grades
    ker, rank = _graded_kernel(pieces.sum(axis=2) % p, grade, p)
    mats = matmul_mod(ker, pieces.reshape(len(pieces), -1), p).reshape(-1, *pieces.shape[1:])
    ann = AlgebraBasis(talgebra.field, None, blocks, mats, grade[(ker != 0).argmax(axis=1)])
    bad = np.flatnonzero((ann.pieces.sum(axis=2) % p).any(axis=1))
    if bad.size:
        a, first = int(bad[0]), np.unique(blocks, return_index=True)[1]
        v = int(np.argsort(np.argsort(first))[ann.grades[a] % len(first)])
        raise InternalInconsistency(f"Ann_T(W0) element {a} does not kill basis vector {v} of W_0",
                                    witness=("Ann_T(W0)", a, v))
    if len(np.unique(ann.pivots)) + rank != talgebra.dim:
        raise InternalInconsistency(f"dim Ann_T(W0) = {ann.dim}, but dim T - rank = "
                                    f"{talgebra.dim - rank}", witness="Ann_T(W0) dimension")
    return ann
