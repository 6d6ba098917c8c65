"""Exact dense linear algebra over a prime field GF(p).

Matrices are numpy int64 arrays with every entry reduced to [0, p).
Subspaces are kept in reduced row-echelon form, so two subspaces are equal
exactly when their basis arrays are identical.  Everything here is
deterministic and exact; nothing is probabilistic.  Products of matrices
go through `matmul_mod`, which uses float64 BLAS only where every partial
sum is an integer below 2^53 and so carries no rounding (see its
docstring).  Row reduction (`rref_array`) is exact in int64 as long as one
product of two residues, (p-1)^2, stays below 2^63.

Products of reduced bases are often reduced already, and `rref_array`
returns such input after one O(mn) test.  Let K (k x m) and B (m x N) be
in reduced row-echelon form with full row rank, B with pivots P.  Then KB
is too, with pivots P[piv(K)].  Since B[:, P] = I, (KB)[:, P] = K, so
(KB)[:, P[piv(K)]] = K[:, piv(K)] = I.  Row i of K is zero left of
l = piv(K)[i], and rows j >= l of B are zero left of P[j] >= P[l], so row
i of KB is zero left of P[l] and 1 there.  So a kernel basis times a
basis (`kernel_array` returns its basis reduced) needs no elimination:
`talg.radical` and `talg.annihilator_W0` form (ker) L on the pieces of T,
and it is the reduced echelon basis of each piece as it stands.

`rref_array` and `kernel_array` also take a stack (s x m x n) and
eliminate every item at once, one vectorized step per pivot of the item
of largest rank, for the many small systems of a graded algebra.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPrime, PrimeTooLarge

__all__ = [
    "FieldCtx",
    "field_ctx",
    "Subspace",
    "matmul_mod",
    "pairwise_mod",
    "rref_array",
    "kernel_array",
    "solve_array",
    "charpoly_coeffs",
]


# Strong-probable-prime tests to these bases decide primality exactly for
# every p < 3.18 * 10^23 (Sorenson & Webster 2017), beyond 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for every p < 2^64."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldCtx:
    """Arithmetic context for the prime field GF(p), p < 2^64."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        p = int(p)
        if p >= 2**64:
            raise PrimeTooLarge(f"p={p} >= 2^64 is outside the supported range")
        if not _is_prime(p):
            raise NotPrime(f"{p} is not a prime number")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and other.p == self.p

    def __hash__(self):
        return hash(("FieldCtx", self.p))

    def __repr__(self):
        return f"FieldCtx({self.p})"


def field_ctx(p: int) -> FieldCtx:
    """Build a GF(p) context; raises NotPrime on composite p and
    PrimeTooLarge on p >= 2^64."""
    return FieldCtx(p)


def _require_int64(terms: int, p: int) -> None:
    """Raise PrimeTooLarge unless a sum of `terms` products of two residues
    mod p, the caller's longest contraction, stays below 2^63."""
    if terms * (p - 1) ** 2 >= 2**63:
        raise PrimeTooLarge(
            f"p={p} is too large: a sum of {terms} products of residues would overflow int64"
        )


# Entries of one float64 block of `matmul_mod`: its temporaries stay near
# 256 KB whatever the size of the product.
_BLOCK = 2**15


def _reduce(x: np.ndarray, p: int) -> None:
    """x %= p in place for nonnegative int64 x; the floor division by a
    scalar is about twice as fast as numpy's remainder."""
    q = x // p
    q *= p
    x -= q


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p exactly, as int64, for residues a (m x k), b (k x n)
    in [0, p), or item by item for stacks a (s x m x k), b (s x k x n).

    The path follows from k and p alone.  When k (p-1)^2 < 2^53 the product
    runs in float64 BLAS.  Every partial sum of the k products is then a
    nonnegative integer at most k (p-1)^2 < 2^53, and every such integer is
    an IEEE double; so each product, each addition and each fused
    multiply-add returns the exact integer, whatever the order of
    summation, the blocking or the number of BLAS threads.  The float64
    temporaries are one copy of b (of a block of its items, for stacks) and
    blocks of about `_BLOCK` entries of a and of the result, converted and
    reduced into the int64 result one block of rows, or of items, at a time.

    Otherwise the product runs in int64 with delayed reduction: chunks of
    c = floor((2^63 - 1) / (p-1)^2) terms sum to at most c (p-1)^2 < 2^63,
    each chunk's sum is reduced mod p, and the running total stays below
    2p.  When even c = 1 fails, that is (p-1)^2 >= 2^63, and k >= 1, it
    raises PrimeTooLarge, the bound `rref_array` enforces as well.  k = 0
    gives the zero matrix for every p.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if (a.ndim not in (2, 3) or b.ndim != a.ndim or a.shape[-1] != b.shape[-2]
            or a.shape[:-2] != b.shape[:-2]):
        raise DimensionMismatch("matmul_mod expects (m x k) @ (k x n), or stacks of them")
    k = a.shape[-1]
    out = np.zeros(a.shape[:-1] + b.shape[-1:], dtype=np.int64)
    if k == 0:
        return out
    if k * (p - 1) ** 2 < 2**53:
        stacked = a.ndim == 3
        fb = None if stacked else b.astype(np.float64)
        step = max(1, _BLOCK * len(a) // max(1, a.size, out.size, b.size * stacked))
        for r in range(0, len(a), step):
            block = out[r : r + step]
            block[...] = a[r : r + step].astype(np.float64) @ (
                b[r : r + step].astype(np.float64) if stacked else fb)
            _reduce(block, p)
        return out
    chunk = (2**63 - 1) // (p - 1) ** 2
    if chunk == 0:
        raise PrimeTooLarge(f"p={p} is too large: (p-1)^2 >= 2^63 would overflow int64")
    for s in range(0, k, chunk):
        part = a[..., s : s + chunk] @ b[..., s : s + chunk, :]
        _reduce(part, p)
        out += part
        np.subtract(out, p, out=out, where=out >= p)
    return out


def pairwise_mod(left: np.ndarray, right: np.ndarray, p: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """left[a] @ right[b] mod p for every pair, shape (A, B, m, n), from
    stacks of residues left (A x m x k) and right (B x k x n); written into
    `out` (any array or view of that shape) when given.

    All products are one gemm (A m x k) @ (k x B n) with rows (a, i) and
    columns (b, l), run through `matmul_mod` over slices of the left stack
    so that each int64 slice of the result stays near `_BLOCK` entries on
    its way into out[a, b, i, l].  Each slice converts the whole right
    stack again, so the narrower side is the one converted: when B n > A m
    the products are taken as (right[b]^T left[a]^T)^T instead.
    """
    (A, m, k), (B, _, n) = left.shape, right.shape
    if out is None:
        out = np.empty((A, B, m, n), dtype=np.int64)
    if B * n > A * m:
        pairwise_mod(right.transpose(0, 2, 1), left.transpose(0, 2, 1), p,
                     out.transpose(1, 0, 3, 2))
        return out
    wide = right.transpose(1, 0, 2).reshape(k, B * n)
    step = max(1, _BLOCK // max(1, B * m * n))
    for a in range(0, A, step):
        part = left[a : a + step]
        prod = matmul_mod(part.reshape(len(part) * m, k), wide, p)
        out[a : a + step] = prod.reshape(len(part), m, B, n).transpose(0, 2, 1, 3)
    return out


def rref_array(a: np.ndarray, p: int):
    """Reduced row-echelon form of an integer matrix mod p.

    Returns (R, rank, pivot_columns).  R is always a new array: the input
    is not modified and never returned.  Raises PrimeTooLarge when
    (p-1)^2 >= 2^63; `kernel_array`, `solve_array` and `Subspace.span`
    inherit that bound.

    A stack (s x m x n) is reduced item by item, all items at once (see
    `_rref_stack`); rank is then an array of s ranks, and pivots an
    s x min(m, n) array whose row i starts with item i's rank[i] pivot
    columns and is n after them.

    Input already in reduced row-echelon form with full row rank is
    returned after one O(mn) test on its reduction mod p: the leading
    columns lead[i] of the rows increase strictly and R[:, lead] = I.  Then
    every row is nonzero with leading entry 1, alone in its column, so R is
    in reduced row-echelon form, which is unique: it is the answer, with
    rank m and pivots lead.

    Otherwise Gauss-Jordan elimination visits the pivot columns in order
    and touches only what can change:

    - Row operations keep a zero column zero, so only the columns nonzero
      in the input can hold a pivot.
    - One nonzero search per column c gives its nonzero rows; with r pivots
      found, the pivot row pr is the first of them >= r.  If pr != r, row
      r is zero in column c, so after the swap the rows to clear are the
      same rows less pr.
    - When column c is visited, every row from r on is zero left of c:
      each earlier pivot column is zero off its pivot row, and each earlier
      column without a pivot was zero from row r on when it was passed,
      which adding multiples of those rows kept.  So scaling the pivot row
      and subtracting it from the rows nonzero in column c change columns
      c onwards only.

    Every product is of two residues and every difference stays above
    -(p-1)^2, so int64 holds each step exactly.
    """
    _require_int64(1, p)
    a = np.array(a, dtype=np.int64)  # a new array: the input is never written
    if a.ndim not in (2, 3):
        raise DimensionMismatch("rref expects a matrix or a stack of matrices")
    if a.size and not 0 <= a.min() <= a.max() < p:  # residues skip the costly %
        a %= p
    if a.ndim == 3:
        return _rref_stack(a, p)
    m, n = a.shape
    if 0 < m <= n:
        lead = (a != 0).argmax(axis=1)
        if (lead[1:] > lead[:-1]).all() and np.array_equal(a[:, lead], np.eye(m, dtype=np.int64)):
            return a, m, lead.tolist()
    r = 0
    pivots: list[int] = []
    for c in a.any(axis=0).nonzero()[0].tolist():
        if r == m:
            break
        rows = a[:, c].nonzero()[0]
        i = int(rows.searchsorted(r))
        if i == rows.size:
            continue
        pr = int(rows[i])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        pivot = a[r, c:]
        if pivot[0] != 1:
            pivot[:] = pivot * pow(int(pivot[0]), p - 2, p) % p
        others = rows[rows != pr]
        if others.size:
            a[others, c:] = (a[others, c:] - a[others, c, None] * pivot) % p
        pivots.append(c)
        r += 1
    return a, r, pivots


def _rref_stack(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`rref_array` of every item of a stack of residues a (s x m x n), in
    place, as (a, rank, pivots).

    Each step takes, in every item with a nonzero entry at or below its
    rank r, the first column c that holds one, and the first row pr >= r
    nonzero there.  Every row from r on is zero left of c, as in the
    column-driven path, so the steps of one item visit its pivot columns
    in order.  The step swaps rows r and pr, scales row r by the inverse
    x^(p-2) of its entry x at c, taken by square and multiply (each product
    is of two residues, below 2^63), and subtracts it from every row, so
    that column c is zero off row r (row r, cleared too, is then written
    back); row r is zero left of c, so earlier columns keep their values.
    The loop runs as often as the largest rank.
    """
    s, m, n = a.shape
    rank, pivots = np.zeros(s, dtype=np.int64), np.full((s, min(m, n)), n, dtype=np.int64)
    while True:
        live = (a != 0) & (np.arange(m)[:, None] >= rank[:, None, None])
        cols = live.any(axis=1)
        i = np.flatnonzero(cols.any(axis=1))
        if not i.size:
            return a, rank, pivots
        c, r = cols[i].argmax(axis=1), rank[i]
        pr = live[i, :, c].argmax(axis=1)
        x, inv, e = a[i, pr, c], np.ones(len(i), dtype=np.int64), p - 2
        while e:
            inv, x, e = inv * x % p if e & 1 else inv, x * x % p, e >> 1
        pivot = a[i, pr] * inv[:, None] % p
        a[i, pr] = a[i, r]
        a[i] = (a[i] - a[i, :, c][:, :, None] * pivot[:, None, :]) % p
        a[i, r] = pivot
        pivots[i, r], rank[i] = c, r + 1


def kernel_array(a: np.ndarray, p: int, widths=None):
    """Reduced row-echelon basis (rows) of the right null space
    {v : a v = 0} mod p, from one elimination.

    Let R be the reduced row-echelon form of a with its columns reversed.
    Each column f of R without a pivot gives the null vector with 1 at f,
    -R[i, f] at the pivot column of every row i, and 0 elsewhere; R[i, f]
    is 0 for pivots right of f, so these entries all lie left of f.
    Reversed back, the vector has its leading 1 at its own free column,
    entries right of it only, and 0 at every other free column.  There are
    n - rank of them, independent, so they span the null space; sorted by
    their free columns they are in reduced row-echelon form, which is
    unique: the kernel basis, with no second elimination.

    A stack (s x m x n) is solved item by item in one stacked elimination,
    and the result is (rows, item, rank): the kernel rows of all items, in
    item order, item[r] naming the item of row r, and the items' ranks.
    With `widths`, columns from widths[i] on in item i are zero padding,
    and the rows of their free columns, unit vectors, are dropped.
    """
    a = np.asarray(a, dtype=np.int64)
    reduced, rank, pivots = rref_array(a[..., ::-1], p)
    reduced, pivots = (reduced, pivots) if a.ndim == 3 else (reduced[None], np.array([pivots], dtype=int))
    n, columns = reduced.shape[2], np.arange(reduced.shape[2])
    # pivots in a's column order; a stack's padding n lands on column -1,
    # past the end of the n columns kept, where rows beyond the rank write 0
    lead = n - 1 - pivots
    width = n if widths is None else np.asarray(widths)[:, None]
    item, col = np.nonzero((columns != lead[:, :, None]).all(axis=1) & (columns < width))
    vecs = (np.arange(n + 1) == col[:, None]).astype(np.int64)
    vecs[np.arange(len(item))[:, None], lead[item]] = -reduced[item, : pivots.shape[1], n - 1 - col] % p
    return vecs[:, :n] if a.ndim == 2 else (vecs[:, :n], item, rank)


def solve_array(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution x of a x = b mod p, or None when inconsistent."""
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    if b.ndim != 1 or a.shape[0] != b.shape[0]:
        raise DimensionMismatch("solve_array shape mismatch")
    aug = np.concatenate([a, b[:, None]], axis=1)
    reduced, rank, pivots = rref_array(aug, p)
    n = a.shape[1]
    if pivots and pivots[-1] == n:
        return None
    x = np.zeros(n, dtype=np.int64)
    x[pivots] = reduced[:rank, n]
    return x


class Subspace:
    """Subspace of GF(p)^ambient held in reduced row-echelon form.

    Construct through span()/zero(); the canonical basis makes equality,
    membership, and coordinate extraction plain array operations.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: FieldCtx, ambient_dim: int, basis: np.ndarray, pivots: tuple[int, ...]):
        self.field = field
        self.ambient_dim = int(ambient_dim)
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def span(cls, field: FieldCtx, vectors, ambient_dim: int | None = None) -> "Subspace":
        arr = np.asarray(vectors, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.size == 0:
            if ambient_dim is None:
                ambient_dim = arr.shape[1] if arr.ndim == 2 else 0
            return cls.zero(field, ambient_dim)
        if ambient_dim is not None and arr.shape[1] != ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        # `rref_array` returns a new array: copy only to drop its zero rows
        reduced, rank, pivots = rref_array(arr, field.p)
        basis = reduced if rank == len(reduced) else reduced[:rank].copy()
        basis.setflags(write=False)
        return cls(field, arr.shape[1], basis, tuple(pivots))

    @classmethod
    def zero(cls, field: FieldCtx, ambient_dim: int) -> "Subspace":
        basis = np.zeros((0, ambient_dim), dtype=np.int64)
        basis.setflags(write=False)
        return cls(field, ambient_dim, basis, ())

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _check(self, other: "Subspace") -> None:
        if not isinstance(other, Subspace):
            raise TypeError("expected a Subspace")
        if other.field != self.field or other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")

    def reduce(self, vectors) -> tuple[np.ndarray, np.ndarray]:
        """(c, r) for a stack of row vectors v: c = v[:, pivots] and the
        residual r = v - c basis mod p, one `matmul_mod` product.

        The basis is fully reduced, basis[i, pivots[j]] = [i = j], so r is
        zero on every pivot column.  r = 0 exactly when v lies in the
        subspace: if v = x basis then x = v[:, pivots] = c.  Then c holds the
        coordinates of v in the basis.
        """
        p = self.field.p
        v = np.asarray(vectors, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        if v.size and not 0 <= v.min() <= v.max() < p:  # residues skip the costly %
            v = v % p
        c = v[:, list(self.pivots)]
        r = matmul_mod(c, self.basis, p)
        np.subtract(v, r, out=r)
        np.add(r, p, out=r, where=r < 0)
        return c, r

    def outside(self, vectors) -> np.ndarray:
        """Indices of the rows of `vectors` that lie outside the subspace, in
        increasing order: the rows whose residual (see `reduce`) is nonzero."""
        return np.flatnonzero(self.reduce(vectors)[1].any(axis=1))

    def coords(self, vectors) -> np.ndarray | None:
        """Coordinates of row vectors in the echelon basis, or None if any
        vector falls outside the subspace."""
        v = np.asarray(vectors, dtype=np.int64)
        single = v.ndim == 1
        c, r = self.reduce(v[None, :] if single else v)
        if r.any():
            return None
        return c[0] if single else c

    def adjoin(self, vectors) -> tuple["Subspace", np.ndarray]:
        """(S, N): S is the span of the subspace and the rows of `vectors`,
        and N the echelon basis of a complement of the subspace in S.

        N is the reduced row-echelon form of the rows' nonzero residuals (see
        `reduce`), so it is zero on the subspace's pivot columns and its
        pivots are new.  Reducing the old basis against N clears N's pivot
        columns.  An old row is nonzero at a pivot of N only right of its
        own pivot, and the row of N subtracted there is zero left of that
        pivot and on every old pivot column, so the old row keeps its
        leading 1 and its zeros on the other old pivots.  Both blocks,
        ordered by pivot, form the reduced row-echelon basis of S, which is
        unique.
        """
        _, residual = self.reduce(vectors)
        new = Subspace.span(self.field, residual[residual.any(axis=1)], ambient_dim=self.ambient_dim)
        if new.dim == 0:
            return self, new.basis
        _, old = new.reduce(self.basis)
        pivots = np.array(self.pivots + new.pivots, dtype=np.int64)
        order = np.argsort(pivots)
        basis = np.concatenate([old, new.basis])[order]
        basis.setflags(write=False)
        return Subspace(self.field, self.ambient_dim, basis, tuple(pivots[order].tolist())), new.basis

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return self.outside(other.basis).size == 0

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return self.adjoin(other.basis)[0]

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and other.field == self.field
            and other.ambient_dim == self.ambient_dim
            and self.basis.shape == other.basis.shape
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self):
        return hash((self.field.p, self.ambient_dim, self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(p={self.field.p}, dim={self.dim}, ambient={self.ambient_dim})"


def charpoly_coeffs(mats: np.ndarray, p: int, upto: int | None = None) -> np.ndarray:
    """Leading coefficients of det(tI - M) for a batch of matrices mod p.

    Returns v of shape (batch, t+1) with det(tI - M) = sum_m v[:, m] t^(n-m)
    truncated to the first t+1 coefficients, t = upto (default n).  Uses the
    division-free Berkowitz recurrence, valid in any characteristic; all the
    Toeplitz factors are lower triangular, so truncation is exact, and each
    multiplies the coefficients so far in one product over the batch.
    Raises PrimeTooLarge when (n+1) (p-1)^2 >= 2^63, which keeps every sum
    of the recurrence, at most n products of residues, exact in int64.
    """
    mats = np.asarray(mats, dtype=np.int64)
    if mats.ndim == 2:
        mats = mats[None]
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise DimensionMismatch("charpoly_coeffs expects square matrices")
    b, n, _ = mats.shape
    _require_int64(n + 1, p)
    mats = mats % p
    t = n if upto is None else max(0, min(int(upto), n))
    v = np.ones((b, 1), dtype=np.int64)
    for i in range(1, n + 1):
        kmax = min(i, t)
        s = np.zeros((b, kmax + 1), dtype=np.int64)
        s[:, 0] = 1
        if kmax >= 1:
            s[:, 1] = (-mats[:, i - 1, i - 1]) % p
        if kmax >= 2:
            blk = mats[:, : i - 1, : i - 1]
            r = mats[:, i - 1, : i - 1]
            w = mats[:, : i - 1, i - 1]
            for j in range(2, kmax + 1):
                s[:, j] = (-np.einsum("bk,bk->b", r, w)) % p
                if j < kmax:
                    w = np.einsum("bkl,bl->bk", blk, w) % p
        # the new v[m], m <= kmax, is sum_j s[j] v[m - j]: one product of the
        # lower triangular Toeplitz matrix of s and v, whose sums of at most
        # n products of residues the bound above keeps within int64
        shift = np.arange(kmax + 1)[:, None] - np.arange(v.shape[1])
        v = (np.where(shift >= 0, s[:, np.maximum(shift, 0)], 0) @ v[:, :, None])[:, :, 0] % p
    return v
