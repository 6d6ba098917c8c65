"""Benchmark workloads: the (scheme, prime, base points) cases each one runs.

Inputs come only from generators and fixtures bundled with modtalg.  Seed 0
keeps the canonical point labels; any other seed relabels the points of each
scheme with a seeded permutation and moves the base points with it.  The
reports are invariant under relabeling apart from `base_points`, so one
golden report per case checks every seed.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"

CORPUS_PRIMES = (2, 3, 5, 7)

# Why each workload is here, and which layers it stresses: README.md.
WORKLOADS = ("corpus-allbp", "cyclic16-p2", "semisimple-cert")


class MissingSource(RuntimeError):
    """The checkout has no modtalg sources to benchmark."""


def import_modtalg():
    """Import modtalg from this checkout's `src/`, never from an installed copy."""
    pkg = SRC / "modtalg"
    if not (pkg / "__init__.py").is_file():
        raise MissingSource(f"no modtalg sources at {pkg}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import modtalg

    if Path(modtalg.__file__).resolve().parent != pkg.resolve():
        raise MissingSource(f"modtalg imported from {modtalg.__file__}, not from {pkg}")
    return modtalg


@dataclass(frozen=True, eq=False)
class Case:
    """One `analyze` call: a validated scheme, a prime and its base points."""

    name: str
    scheme: object
    prime: int
    base_points: tuple[int, ...]

    @property
    def case_id(self) -> str:
        return f"{self.name}-p{self.prime}"

    def golden_path(self, workload: str) -> Path:
        return GOLDEN_DIR / workload / f"{self.case_id}.json"


def _canonical_inputs(workload: str):
    """(scheme name, relation table entries, [(prime, canonical base points)])."""
    from modtalg import fixtures, scheme

    if workload == "corpus-allbp":
        for name, s in fixtures.corpus():
            yield name, s.table.entries, [(p, tuple(range(s.n))) for p in CORPUS_PRIMES]
    elif workload == "cyclic16-p2":
        yield "cyclic-16", scheme.gen_cyclic(16).entries, [(2, (0,))]
    elif workload == "semisimple-cert":
        thin = scheme.gen_thin(fixtures.cyclic_group_table(8))
        yield "thin-z8", thin.entries, [(2, (0,))]
        yield "cyclic-14", scheme.gen_cyclic(14).entries, [(3, (0,))]
    else:
        raise ValueError(f"unknown workload {workload!r}")


def relabeling(seed: int, index: int, n: int) -> np.ndarray:
    """Point permutation for scheme number `index`; the identity at seed 0."""
    perm = list(range(n))
    if seed != 0:
        random.Random(f"{seed}:{index}").shuffle(perm)
    return np.array(perm)


def relabel_table(entries: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The relation table after moving point a to perm[a]."""
    moved = np.empty_like(entries)
    moved[np.ix_(perm, perm)] = entries
    return moved


def build_cases(workload: str, seed: int) -> list[Case]:
    """Build, relabel and validate the workload's schemes.

    Validation goes through the `modtalg.scheme` module attribute so that a
    traced set-up records it.
    """
    from modtalg import scheme

    cases = []
    for index, (name, entries, runs) in enumerate(_canonical_inputs(workload)):
        perm = relabeling(seed, index, entries.shape[0])
        s = scheme.validate_axioms(scheme.relation_table(relabel_table(entries, perm)))
        for p, points in runs:
            bps = tuple(int(perm[x]) for x in points)
            cases.append(Case(name, s, p, bps))
    return cases


def golden_matches(report_json: str, golden_json: str, base_points) -> bool:
    """Byte comparison with the golden report, whose base points are moved
    to the relabeled ones first."""
    want = json.loads(golden_json)
    want["base_points"] = list(base_points)
    return report_json == json.dumps(want, sort_keys=True, indent=2) + "\n"
