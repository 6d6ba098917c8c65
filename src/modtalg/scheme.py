"""Association scheme tables: parsing, validation, invariants, generators.

Scheme file format (UTF-8 text): optional comment lines starting with '#',
then a line holding the point count n, then exactly n lines of n
space-separated relation indices in [0, d].  Relation 0 is the identity
relation and indices must be contiguous.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    AxiomI,
    AxiomII,
    AxiomIII,
    EmptyInput,
    IndexOutOfRange,
    InternalInconsistency,
    InvalidParameter,
    Malformed,
    OutOfRange,
)
from .ffmat import FieldCtx

__all__ = [
    "RelationTable",
    "relation_table",
    "parse_scheme",
    "serialize_scheme",
    "SchemeData",
    "validate_axioms",
    "Strata",
    "strata",
    "check_point_count",
    "gen_cyclic",
    "gen_hamming",
    "gen_thin",
]


@dataclass(frozen=True, eq=False)
class RelationTable:
    """Square table r(x, y) of relation indices; d is the largest index."""

    n: int
    d: int
    entries: np.ndarray


def relation_table(entries) -> RelationTable:
    try:
        a = np.asarray(entries, dtype=np.int64)
    except OverflowError:
        raise OutOfRange("relation index outside the int64 range") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise Malformed("relation table must be square and nonempty")
    if (a < 0).any():
        raise Malformed("negative relation index")
    d = int(a.max())
    if d >= a.size:
        # n^2 entries hold at most n^2 distinct indices
        raise OutOfRange(f"relation indices have a gap: {d} occurs in a table of {a.size} entries")
    present = np.zeros(d + 1, dtype=bool)
    present[a.reshape(-1)] = True
    if not present.all():
        missing = int(np.nonzero(~present)[0][0])
        raise OutOfRange(
            f"relation indices have a gap: {missing} never occurs but {d} does"
        )
    a = a.copy()
    a.setflags(write=False)
    return RelationTable(n=int(a.shape[0]), d=d, entries=a)


def parse_scheme(text: str | bytes) -> RelationTable:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise Malformed(f"scheme input is not UTF-8: {exc}") from None
    lines = [ln.strip() for ln in text.splitlines()]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    if not data:
        raise EmptyInput("no data lines in scheme input")
    head = data[0].split()
    if len(head) != 1:
        raise Malformed(f"expected a single point count on the first data line, got {data[0]!r}")
    try:
        n = int(head[0])
    except ValueError:
        raise Malformed(f"point count is not an integer: {head[0]!r}") from None
    if n < 1:
        raise Malformed(f"point count must be positive, got {n}")
    check_point_count(n)
    rows = data[1:]
    if len(rows) != n:
        raise Malformed(f"expected {n} table rows, found {len(rows)}")
    table = []
    for k, row in enumerate(rows):
        toks = row.split()
        if len(toks) != n:
            raise Malformed(f"row {k} has {len(toks)} values, expected {n}")
        try:
            table.append([int(t) for t in toks])
        except ValueError:
            raise Malformed(f"non-integer token in row {k}: {row!r}") from None
    return relation_table(table)


def serialize_scheme(t: RelationTable) -> str:
    lines = [str(t.n)]
    for row in t.entries:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


class SchemeData:
    """Validated scheme: table plus converse map, valencies, and the full
    intersection tensor p_ij^l kept over the integers (reduced mod p only
    at algebra construction time)."""

    __slots__ = ("table", "n", "d", "converse", "valencies", "tensor")

    def __init__(self, table: RelationTable, converse: np.ndarray, valencies: np.ndarray, tensor: np.ndarray):
        self.table = table
        self.n = table.n
        self.d = table.d
        self.converse = converse
        self.valencies = valencies
        self.tensor = tensor

    def p(self, i: int, j: int, l: int) -> int:
        for idx in (i, j, l):
            if not 0 <= idx <= self.d:
                raise IndexOutOfRange(f"relation index {idx} outside [0, {self.d}]")
        return int(self.tensor[i, j, l])

    def __repr__(self):
        return f"SchemeData(n={self.n}, d={self.d}, k={tuple(int(v) for v in self.valencies)})"


def _axiom_ii_witness(a: np.ndarray, i: int) -> tuple[int, int]:
    mask = a == i
    vals = a.T[mask]
    bad = int(np.nonzero(vals != vals[0])[0][0])
    x, y = np.argwhere(mask)[bad]
    return int(x), int(y)


def validate_axioms(t: RelationTable) -> SchemeData:
    """Check the three scheme axioms and assemble converse/valencies/tensor.

    Raises AxiomI, AxiomII, or AxiomIII with a concrete witness on failure.
    """
    a = t.entries
    n, d = t.n, t.d

    diag = np.diagonal(a)
    bad = np.nonzero(diag != 0)[0]
    if bad.size:
        x = int(bad[0])
        raise AxiomI(f"r({x},{x}) = {int(a[x, x])}, expected 0", witness=(x, x))
    off = a.copy()
    np.fill_diagonal(off, -1)
    zeros = np.argwhere(off == 0)
    if zeros.size:
        x, y = (int(v) for v in zeros[0])
        raise AxiomI(f"identity relation appears off the diagonal at ({x},{y})", witness=(x, y))

    converse = np.zeros(d + 1, dtype=np.int64)
    at = a.T
    for i in range(d + 1):
        vals = at[a == i]
        u = np.unique(vals)
        if u.size != 1:
            x, y = _axiom_ii_witness(a, i)
            raise AxiomII(
                f"relation {i} has inconsistent transpose classes {sorted(int(v) for v in u)}",
                witness=(x, y, i),
            )
        converse[i] = u[0]
    if not np.array_equal(converse[converse], np.arange(d + 1)):
        raise AxiomII("transpose classes do not form an involution", witness=tuple(int(v) for v in converse))

    flat_cls = a.reshape(-1)
    order = np.argsort(flat_cls, kind="stable")
    counts = np.bincount(flat_cls, minlength=d + 1)
    starts = np.concatenate([[0], np.cumsum(counts)])
    indicators = np.stack([(a == i).astype(np.int64) for i in range(d + 1)])
    tensor = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for i in range(d + 1):
        for j in range(d + 1):
            m = (indicators[i] @ indicators[j]).reshape(-1)
            seg = m[order]
            for l in range(d + 1):
                span = seg[starts[l] : starts[l + 1]]
                first = int(span[0])
                if (span != first).any():
                    where = int(np.nonzero(span != first)[0][0])
                    flat = int(order[starts[l] + where])
                    x, y = divmod(flat, n)
                    raise AxiomIII(
                        f"count of z with (x,z) in R_{i}, (z,y) in R_{j} is not constant on R_{l}",
                        witness=(x, y, i, j),
                    )
                tensor[i, j, l] = first

    valencies = np.array([tensor[i, converse[i], 0] for i in range(d + 1)], dtype=np.int64)
    if (valencies <= 0).any() or int(valencies.sum()) != n:
        raise InternalInconsistency(f"valencies {valencies.tolist()} do not sum to {n}",
                                    witness=("valencies", tuple(valencies.tolist()), n))

    # k_l p_ij^l = k_i p_{l j'}^i = k_j p_{i' l}^j must hold on every validated table
    t1 = valencies[None, None, :] * tensor
    t2 = valencies[:, None, None] * np.transpose(tensor[:, converse, :], (2, 1, 0))
    t3 = valencies[None, :, None] * np.transpose(tensor[converse, :, :], (0, 2, 1))
    wrong = np.argwhere((t1 != t2) | (t1 != t3))
    if wrong.size:
        raise InternalInconsistency("triangle identity failed on a validated table",
                                    witness=("triangle identity", tuple(wrong[0].tolist())))

    return SchemeData(t, converse, valencies, tensor)


@dataclass(frozen=True, eq=False)
class Strata:
    """Partition of the relation indices by p-adic valuation of the valency."""

    p: int
    sets: tuple[tuple[int, ...], ...]
    epsilon: int
    thin: tuple[int, ...]
    p_prime_valenced: bool
    valuations: np.ndarray


def strata(s: SchemeData, f: FieldCtx) -> Strata:
    p = f.p
    vals = []
    for k in s.valencies:
        k = int(k)
        v = 0
        while k % p == 0:
            k //= p
            v += 1
        vals.append(v)
    valuations = np.array(vals, dtype=np.int64)
    eps = int(valuations.max())
    sets = tuple(
        tuple(int(i) for i in np.nonzero(valuations == m)[0]) for m in range(eps + 1)
    )
    thin = tuple(int(i) for i in np.nonzero(s.valencies == 1)[0])
    for invariant, holds in (("top stratum nonempty", bool(sets[-1])), ("0 in S_0", 0 in sets[0]),
                             ("0 thin", 0 in thin)):
        if not holds:
            raise InternalInconsistency("strata invariants failed", witness=("strata", invariant))
    if sum(len(t) for t in sets) != s.d + 1:
        raise InternalInconsistency("strata do not partition the relation indices",
                                    witness=("strata partition", sum(len(t) for t in sets), s.d + 1))
    return Strata(
        p=p,
        sets=sets,
        epsilon=eps,
        thin=thin,
        p_prime_valenced=(eps == 0),
        valuations=valuations,
    )


# Desk scale: the generators and `parse_scheme` refuse larger schemes
# before allocating any n x n table.  At n = 60000 one int64 table alone is
# 29 GB, and the analysis works with matrices of dimension n^2.
MAX_POINTS = 1024


def check_point_count(n: int) -> None:
    """Raise InvalidParameter when n points is beyond desk scale."""
    if n > MAX_POINTS:
        raise InvalidParameter(f"{n} points is beyond desk scale (at most {MAX_POINTS})")


def gen_cyclic(n: int) -> RelationTable:
    """Cyclic scheme on Z_n with classes {c, n-c} of differences."""
    if not isinstance(n, int) or n < 1:
        raise InvalidParameter(f"gen_cyclic needs an integer n >= 1, got {n!r}")
    check_point_count(n)
    idx = np.arange(n)
    delta = (idx[None, :] - idx[:, None]) % n
    cls = np.minimum(delta, n - delta)
    return relation_table(cls)


def gen_hamming(length: int, q: int) -> RelationTable:
    """Hamming scheme H(length, q): distance classes on q-ary strings."""
    if not isinstance(length, int) or not isinstance(q, int) or length < 1 or q < 2:
        raise InvalidParameter(f"gen_hamming needs length >= 1 and q >= 2, got ({length!r}, {q!r})")
    # q >= 2, so from length MAX_POINTS.bit_length() on there are too many
    # points without forming q^length, which can have thousands of digits
    if length >= MAX_POINTS.bit_length() or q**length > MAX_POINTS:
        raise InvalidParameter(f"q^length = {q}^{length} points is beyond desk scale "
                               f"(at most {MAX_POINTS})")
    pts = np.array(list(itertools.product(range(q), repeat=length)), dtype=np.int64)
    dist = (pts[:, None, :] != pts[None, :, :]).sum(axis=2)
    return relation_table(dist)


def gen_thin(mult_table) -> RelationTable:
    """Thin scheme of a finite group given by its multiplication table.

    table[a][b] must be the index of a*b; the table is validated to be a
    group (Latin square, identity, associativity).  Relations are labeled
    so that the identity element is relation 0.
    """
    tbl = np.asarray(mult_table, dtype=np.int64)
    if tbl.ndim != 2 or tbl.shape[0] != tbl.shape[1] or tbl.shape[0] == 0:
        raise InvalidParameter("multiplication table must be square and nonempty")
    n = tbl.shape[0]
    check_point_count(n)
    if (tbl < 0).any() or (tbl >= n).any():
        raise InvalidParameter("multiplication table entries must be in [0, n)")
    ident = np.arange(n)
    for axis in (0, 1):
        rows = tbl if axis == 0 else tbl.T
        for r in range(n):
            if np.bincount(rows[r], minlength=n).max() != 1:
                raise InvalidParameter("multiplication table is not a Latin square")
    e_candidates = [
        e for e in range(n)
        if np.array_equal(tbl[e], ident) and np.array_equal(tbl[:, e], ident)
    ]
    if len(e_candidates) != 1:
        raise InvalidParameter("multiplication table has no two-sided identity")
    e = e_candidates[0]
    # (ab)c = a(bc) one a at a time, so memory stays at n^2 entries
    if not all(np.array_equal(tbl[tbl[a]], tbl[a][tbl]) for a in range(n)):
        raise InvalidParameter("multiplication table is not associative")
    inv = np.zeros(n, dtype=np.int64)
    for x in range(n):
        inv[x] = int(np.nonzero(tbl[x] == e)[0][0])
    rel = tbl[inv]
    if e != 0:
        relabel = np.arange(n)
        relabel[e], relabel[0] = 0, e
        rel = relabel[rel]
    return relation_table(rel)
