"""Bundled scheme corpus used by the test suite and the batch CLI."""

from __future__ import annotations

import functools
import itertools
from importlib import resources

import numpy as np

from .errors import FixtureInvalid
from .scheme import (
    SchemeData,
    check_point_count,
    gen_cyclic,
    gen_hamming,
    gen_thin,
    parse_scheme,
    validate_axioms,
)

__all__ = ["load_order12_no21", "s3_table", "cyclic_group_table", "corpus"]

# Constants the bundled order-12 fixture must reproduce; anything else about
# the table is treated as unverified.
ORDER12_CONSTANTS = {
    "n": 12,
    "d": 4,
    "valencies": (1, 1, 2, 4, 4),
    "converse_3": 4,
    "p_44_3": 4,
    "p_33_4": 4,
}


def order12_no21_text() -> str:
    return resources.files("modtalg").joinpath("data/as12-21.scheme").read_text()


def load_order12_no21() -> SchemeData:
    """Load and identity-check the order-12, valency (1,1,2,4,4) fixture.

    Raises FixtureInvalid when the data file does not reproduce the expected
    constants, so dependent tests fail loudly instead of skipping.
    """
    s = validate_axioms(parse_scheme(order12_no21_text()))
    want = ORDER12_CONSTANTS
    checks = [
        s.n == want["n"],
        s.d == want["d"],
        tuple(int(v) for v in s.valencies) == want["valencies"],
        int(s.converse[3]) == want["converse_3"],
        s.p(4, 4, 3) == want["p_44_3"],
        s.p(3, 3, 4) == want["p_33_4"],
    ]
    if not all(checks):
        raise FixtureInvalid(
            f"order-12 fixture failed identity validation: {s}, converse {s.converse.tolist()}"
        )
    return s


def cyclic_group_table(n: int) -> np.ndarray:
    """Addition table of Z_n; refuses n beyond desk scale before allocating it."""
    check_point_count(n)
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def s3_table() -> np.ndarray:
    """Multiplication table of the symmetric group on 3 letters."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    tbl = np.zeros((6, 6), dtype=np.int64)
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            comp = tuple(pa[pb[x]] for x in range(3))
            tbl[a, b] = index[comp]
    return tbl


@functools.cache
def corpus() -> tuple[tuple[str, SchemeData], ...]:
    """The fixture corpus swept by the acceptance suite (all n <= 12)."""
    entries = [
        ("trivial", validate_axioms(gen_cyclic(1))),
        ("thin-z2", validate_axioms(gen_thin(cyclic_group_table(2)))),
        ("thin-z3", validate_axioms(gen_thin(cyclic_group_table(3)))),
        ("thin-z4", validate_axioms(gen_thin(cyclic_group_table(4)))),
        ("thin-s3", validate_axioms(gen_thin(s3_table()))),
        ("cyclic-5", validate_axioms(gen_cyclic(5))),
        ("cyclic-6", validate_axioms(gen_cyclic(6))),
        ("cyclic-7", validate_axioms(gen_cyclic(7))),
        ("hamming-2-2", validate_axioms(gen_hamming(2, 2))),
        ("hamming-2-3", validate_axioms(gen_hamming(2, 3))),
        ("hamming-3-2", validate_axioms(gen_hamming(3, 2))),
        ("as12-no21", load_order12_no21()),
    ]
    return tuple(entries)
