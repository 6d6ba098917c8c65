"""Brute-force oracles: independent recomputations that cross-check the
fast paths.

Everything here avoids the machinery it checks: axiom validation by raw
pair counting, matrix rank by minors, algebra dimension by word spanning,
module structure by exhaustive subspace enumeration.  Slow on purpose and
only run at desk scale.
"""

from __future__ import annotations

import itertools

import numpy as np

from .ffmat import Subspace
from .scheme import RelationTable, SchemeData
from .talg import TalgContext

__all__ = [
    "axioms_brute",
    "intersection_count",
    "det_leibniz",
    "rank_by_minors",
    "charpoly_leibniz",
    "word_closure_dim",
    "enumerate_subspaces",
    "count_subspaces",
    "invariant_subspaces",
    "module_lattice_analysis",
    "radical_brute",
    "strata_brute",
]


def axioms_brute(table: RelationTable):
    """Re-check the three scheme axioms by directly recounting all pairs.

    Returns (True, None) or (False, witness).  Pure python loops, no
    numpy matrix products.
    """
    a = table.entries.tolist()
    n = table.n
    d = table.d
    for x in range(n):
        if a[x][x] != 0:
            return False, ("axiom1", x, x)
        for y in range(n):
            if x != y and a[x][y] == 0:
                return False, ("axiom1", x, y)
    conv: dict[int, int] = {}
    for x in range(n):
        for y in range(n):
            i = a[x][y]
            back = a[y][x]
            if conv.setdefault(i, back) != back:
                return False, ("axiom2", x, y, i)
    for i, ip in conv.items():
        if conv.get(ip) != i:
            return False, ("axiom2", i, ip)
    counts: dict[tuple[int, int, int], int] = {}
    for x in range(n):
        for y in range(n):
            l = a[x][y]
            seen = [0] * ((d + 1) * (d + 1))
            row = a[x]
            for z in range(n):
                seen[row[z] * (d + 1) + a[z][y]] += 1
            for i in range(d + 1):
                for j in range(d + 1):
                    key = (i, j, l)
                    c = seen[i * (d + 1) + j]
                    if counts.setdefault(key, c) != c:
                        return False, ("axiom3", x, y, i, j)
    return True, None


def intersection_count(table: RelationTable, i: int, j: int, x: int, y: int) -> int:
    """|{z : (x,z) in R_i and (z,y) in R_j}| counted directly."""
    a = table.entries
    return int(np.count_nonzero((a[x] == i) & (a[:, y] == j)))


def det_leibniz(a: np.ndarray, p: int) -> int:
    """Determinant mod p by the permutation-sum formula (for tiny sizes)."""
    a = np.asarray(a, dtype=np.int64) % p
    n = a.shape[0]
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            cur = start
            while not seen[cur]:
                seen[cur] = True
                cur = perm[cur]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for r in range(n):
            term = term * int(a[r, perm[r]])
        total += term
    return total % p


def rank_by_minors(a: np.ndarray, p: int) -> int:
    """Rank = size of the largest square submatrix with nonzero determinant."""
    a = np.asarray(a, dtype=np.int64) % p
    m, n = a.shape
    for r in range(min(m, n), 0, -1):
        for rows in itertools.combinations(range(m), r):
            sub = a[list(rows)]
            for cols in itertools.combinations(range(n), r):
                if det_leibniz(sub[:, list(cols)], p) != 0:
                    return r
    return 0


def charpoly_leibniz(a: np.ndarray, p: int) -> list[int]:
    """Coefficients of det(tI - a) mod p via symbolic permutation expansion.

    Entry m of the result multiplies t^(n-m); exact integer polynomial
    arithmetic, reduced mod p at the end.
    """
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[0]
    total = np.zeros(n + 1, dtype=object)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            cur = start
            while not seen[cur]:
                seen[cur] = True
                cur = perm[cur]
                length += 1
            if length % 2 == 0:
                sign = -sign
        poly = np.array([sign], dtype=object)
        for r in range(n):
            if perm[r] == r:
                factor = np.array([1, -int(a[r, r])], dtype=object)
            else:
                factor = np.array([-int(a[r, perm[r]])], dtype=object)
            poly = np.convolve(poly, factor)
        total[n + 1 - len(poly) :] += poly
    return [int(c) % p for c in total]


def word_closure_dim(ctx: TalgContext, max_rounds: int = 64) -> int:
    """Algebra dimension by spanning with raw generator words.

    Keeps a list of word product matrices (never echelon recombinations);
    a word is retained only when it grows the span, and the loop stops when
    no retained word extends by any generator.  The final span is closed
    under right multiplication by generators, hence under products.
    """
    f = ctx.field
    n = ctx.n
    words: list[np.ndarray] = [np.eye(n, dtype=np.int64)]
    span = Subspace.span(f, np.eye(n, dtype=np.int64).reshape(1, -1), ambient_dim=n * n)
    frontier = list(words)
    for _ in range(max_rounds):
        new_frontier = []
        for w in frontier:
            for g in ctx.gens:
                cand = (w @ g) % f.p
                flat = cand.reshape(1, -1)
                grown = span.sum(Subspace.span(f, flat, ambient_dim=n * n))
                if grown.dim > span.dim:
                    span = grown
                    new_frontier.append(cand)
                    words.append(cand)
        if not new_frontier:
            return span.dim
        frontier = new_frontier
    raise RuntimeError("word closure did not stabilize")


def enumerate_subspaces(p: int, m: int):
    """Every subspace of GF(p)^m, as echelonized basis arrays.

    Iterates reduced row-echelon forms directly: choose pivot columns,
    then fill the free entries (zero under other pivots).
    """
    yield np.zeros((0, m), dtype=np.int64)
    for r in range(1, m + 1):
        for pivots in itertools.combinations(range(m), r):
            free_slots = []
            for row, pc in enumerate(pivots):
                for c in range(pc + 1, m):
                    if c not in pivots:
                        free_slots.append((row, c))
            for fill in itertools.product(range(p), repeat=len(free_slots)):
                basis = np.zeros((r, m), dtype=np.int64)
                for row, pc in enumerate(pivots):
                    basis[row, pc] = 1
                for (row, c), v in zip(free_slots, fill):
                    basis[row, c] = v
                yield basis


def count_subspaces(p: int, m: int) -> int:
    """Number of subspaces of GF(p)^m, the length of enumerate_subspaces:
    the sum over r of the Gaussian binomials [m choose r]_p, each built by
    [m choose r] = [m choose r-1] (p^(m-r+1) - 1) / (p^r - 1)."""
    total, term = 1, 1
    for r in range(1, m + 1):
        term = term * (p ** (m - r + 1) - 1) // (p**r - 1)
        total += term
    return total


def _is_invariant(basis: np.ndarray, mats: np.ndarray, p: int, pivots: list[int]) -> bool:
    if basis.shape[0] == 0:
        return True
    images = np.einsum("gij,bj->gbi", mats, basis).reshape(-1, basis.shape[1]) % p
    c = images[:, pivots]
    return not ((c @ basis - images) % p).any()


def invariant_subspaces(mats: np.ndarray, p: int) -> list[np.ndarray]:
    """All subspaces of the column space closed under every matrix."""
    mats = np.asarray(mats, dtype=np.int64) % p
    m = mats.shape[1]
    found = []
    for basis in enumerate_subspaces(p, m):
        pivots = [int(np.nonzero(row)[0][0]) for row in basis]
        if _is_invariant(basis, mats, p, pivots):
            found.append(basis)
    return found


def _contains(big: np.ndarray, small: np.ndarray, p: int) -> bool:
    if small.shape[0] == 0:
        return True
    if big.shape[0] < small.shape[0]:
        return False
    pivots = [int(np.nonzero(row)[0][0]) for row in big]
    c = small[:, pivots]
    return not ((c @ big - small) % p).any()


def module_lattice_analysis(mats: np.ndarray, p: int):
    """Composition data by exhaustive lattice search.

    Returns (composition_length, sorted factor dimension multiset,
    uniserial flag) computed from the full poset of invariant subspaces:
    a maximal chain gives the length and dimension jumps, and the module
    is uniserial exactly when all invariant subspaces are comparable.
    """
    subs = invariant_subspaces(mats, p)
    subs.sort(key=lambda b: (b.shape[0], b.tobytes()))
    uniserial = True
    for a, b in itertools.combinations(subs, 2):
        if not (_contains(a, b, p) or _contains(b, a, p)):
            uniserial = False
            break
    m = mats.shape[1]
    chain_dims = [0]
    current = subs[0]
    while current.shape[0] < m:
        candidates = [
            s for s in subs
            if s.shape[0] > current.shape[0] and _contains(s, current, p)
        ]
        best = min(candidates, key=lambda b: (b.shape[0], b.tobytes()))
        chain_dims.append(best.shape[0])
        current = best
    jumps = sorted(b - a for a, b in zip(chain_dims, chain_dims[1:]))
    return len(jumps), jumps, uniserial


def radical_brute(algebra) -> Subspace:
    """Radical as the span of all nilpotent two-sided ideals, found by
    enumerating every subspace of the algebra (coefficient space).

    Exponential in dim(algebra); intended for dimensions up to ~6 as an
    independent check of the staged radical computation.
    """
    f = algebra.field
    p = f.p
    k = algebra.dim
    n = algebra.n
    if p**k > 100_000:
        raise ValueError("algebra too large for exhaustive radical search")
    basis = algebra.expand().basis
    amats = basis.reshape(-1, n, n)
    nilpotent_vectors = []
    for coeffs in enumerate_subspaces(p, k):
        if coeffs.shape[0] == 0:
            continue
        vecs = (coeffs @ basis) % p
        space = Subspace.span(f, vecs, ambient_dim=n * n)
        mats = space.basis.reshape(-1, n, n)
        prods_l = np.einsum("aij,bjk->abik", amats, mats).reshape(-1, n * n) % p
        prods_r = np.einsum("bij,ajk->abik", mats, amats).reshape(-1, n * n) % p
        if space.coords(prods_l) is None or space.coords(prods_r) is None:
            continue
        current = space
        nilpotent = False
        for _ in range(k + 1):
            if current.dim == 0:
                nilpotent = True
                break
            cm = current.basis.reshape(-1, n, n)
            nxt = np.einsum("aij,bjk->abik", cm, mats).reshape(-1, n * n) % p
            nxt_space = Subspace.span(f, nxt, ambient_dim=n * n)
            if nxt_space.dim >= current.dim:
                break
            current = nxt_space
        if nilpotent:
            nilpotent_vectors.append(space.basis)
    if not nilpotent_vectors:
        return Subspace.zero(f, n * n)
    return Subspace.span(f, np.concatenate(nilpotent_vectors), ambient_dim=n * n)


def strata_brute(s: SchemeData, p: int):
    """Valuation partition recomputed with integer arithmetic only."""
    sets: dict[int, list[int]] = {}
    for i in range(s.d + 1):
        k = int(s.valencies[i])
        v = 0
        while k % p == 0:
            k //= p
            v += 1
        sets.setdefault(v, []).append(i)
    eps = max(sets)
    return [tuple(sets.get(m, ())) for m in range(eps + 1)], eps
