"""Acceptance suite: one test per criterion, exact tolerances, stated time
budgets.  Each test prints a single pass/fail line."""

import time

import numpy as np
from test_primary import explicit_map_intertwines

from modtalg.analysis import compute_artifacts
from modtalg.characterize import check_equivalences
from modtalg.cli import main
from modtalg.errors import InternalInconsistency
from modtalg.ffmat import Subspace, field_ctx
from modtalg.fixtures import corpus, load_order12_no21
from modtalg.oracles import module_lattice_analysis
from modtalg.scheme import gen_cyclic, gen_thin, serialize_scheme, validate_axioms
from modtalg.talg import (
    algebra_closure,
    build_context,
    check_radical_postconditions,
    radical,
    triple_product,
)

PRIMES = (2, 3, 5, 7)


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}{(' ' + detail) if detail else ''}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_order12_p2_reproduction():
    start = time.perf_counter()
    art = compute_artifacts(load_order12_no21(), field_ctx(2), 0)
    elapsed = time.perf_counter() - start
    ok = (
        art.strata.sets == ((0, 1), (2,), (3, 4))
        and art.strata.epsilon == 2
        and art.comp.qn == [[(0, 1)], [(2,)], [(3,), (4,)]]
        and art.comp.composition_length == 4
        and sorted(f.dim for f in art.comp.factors) == [1, 1, 1, 2]
        and elapsed < 2.0
    )
    _report(1, ok, f"length={art.comp.composition_length} time={elapsed:.2f}s")


def test_criterion_2_order12_p3_reachability():
    start = time.perf_counter()
    s = load_order12_no21()
    art = compute_artifacts(s, field_ctx(3), 0)
    elapsed = time.perf_counter() - start
    ok = (
        art.digraph.same_class(3, 4)
        and int(s.converse[3]) == 4
        and s.p(4, 4, 3) == 4
        and s.p(3, 3, 4) == 4
        and elapsed < 1.0
    )
    _report(2, ok, f"3~4={art.digraph.same_class(3, 4)} time={elapsed:.2f}s")


def test_criterion_3_order5_no2_p3():
    start = time.perf_counter()
    s = validate_axioms(gen_cyclic(5))
    art = compute_artifacts(s, field_ctx(3), 0)
    z = (triple_product(art.ctx, 1, 1, 2) - triple_product(art.ctx, 1, 2, 2)) % 3
    elapsed = time.perf_counter() - start
    ok = (
        z.any()
        and not art.ann.expand().outside([z.reshape(-1)]).size
        and art.rad.dim == 0
        and art.ann.dim > art.rad.dim
        and elapsed < 1.0
    )
    _report(3, ok, f"dimAnn={art.ann.dim} dimRad={art.rad.dim} time={elapsed:.2f}s")


def test_criterion_4_structural_constants_sweep():
    start = time.perf_counter()
    failures = []
    for name, s in corpus():
        conv = s.converse
        k = s.valencies
        for i in range(s.d + 1):
            for j in range(s.d + 1):
                for l in range(s.d + 1):
                    if not (
                        int(k[l]) * s.p(i, j, l)
                        == int(k[i]) * s.p(l, int(conv[j]), i)
                        == int(k[j]) * s.p(int(conv[i]), l, j)
                    ):
                        failures.append((name, "triangle", i, j, l))
        for p in PRIMES:
            art = compute_artifacts(s, field_ctx(p), 0)
            if art.b0.dim != (s.d + 1) ** 2:
                failures.append((name, p, "dimB0"))
            if art.module.dim != s.d + 1:
                failures.append((name, p, "dimW0"))
            for m, sn in enumerate(art.strata.sets):
                if len(art.filt[m]) - len(art.filt[m + 1]) != len(sn):
                    failures.append((name, p, "quotient", m))
            if art.b1.dim:
                n = art.ctx.n
                mats = art.b1.expand().basis.reshape(-1, n, n)
                sq = np.einsum("aij,bjk->abik", mats, mats).reshape(-1, n, n) % p
                span2 = Subspace.span(art.field, sq.reshape(-1, n * n), ambient_dim=n * n)
                if span2.dim:
                    cubes = np.einsum(
                        "aij,bjk->abik", span2.basis.reshape(-1, n, n), mats
                    ) % p
                    if cubes.any():
                        failures.append((name, p, "B1cubed"))
            if not art.rad.expand().contains(art.b1.expand()):
                failures.append((name, p, "B1radical"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _report(4, ok, f"time={elapsed:.1f}s failures={failures[:3]}")


def test_criterion_5_theorem_consistency_all_base_points():
    start = time.perf_counter()
    failures = []
    for name, s in corpus():
        for p in PRIMES:
            f = field_ctx(p)
            flag = None
            for x in range(s.n):
                art = compute_artifacts(s, f, x)
                try:
                    c = check_equivalences(art)
                except InternalInconsistency as exc:
                    failures.append((name, p, x, str(exc)))
                    continue
                if c.i_pprime != art.strata.p_prime_valenced:
                    failures.append((name, p, x, "flag mismatch"))
                if flag is None:
                    flag = c.i_pprime
                elif c.i_pprime != flag:
                    failures.append((name, p, x, "base point flip"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(5, ok, f"time={elapsed:.1f}s failures={failures[:3]}")


def test_criterion_6_radical_oracle_battery():
    failures = []
    for p in PRIMES:
        f = field_ctx(p)
        upper = algebra_closure(
            f, np.array([[[1, 0], [0, 0]], [[0, 1], [0, 0]]], dtype=np.int64)
        )
        rad_upper = radical(upper)
        if rad_upper.dim != 1:
            failures.append((p, "upper-triangular", rad_upper.dim))
        check_radical_postconditions(upper, rad_upper)
        full = algebra_closure(
            f, np.array([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], dtype=np.int64)
        )
        rad_full = radical(full)
        if rad_full.dim != 0:
            failures.append((p, "M2", rad_full.dim))
        check_radical_postconditions(full, rad_full)
    ctx = build_context(validate_axioms(gen_thin([[0, 1], [1, 0]])), field_ctx(2), 0)
    c2 = algebra_closure(ctx.field, ctx.A[1:2])
    if c2.dim != 2:
        failures.append(("C2 algebra dim", c2.dim))
    rad_c2 = radical(c2)
    if rad_c2.dim != 1:
        failures.append(("C2 group algebra", rad_c2.dim))
    check_radical_postconditions(c2, rad_c2)
    _report(6, not failures, str(failures[:3]))


def test_criterion_7_lattice_oracle_equivalence():
    failures = []
    for name, s in corpus():
        if s.d > 3:
            continue
        for p in (2, 3):
            art = compute_artifacts(s, field_ctx(p), 0)
            length, dims, uniserial = module_lattice_analysis(
                art.module.action.all_mats(), p
            )
            if (
                length != art.comp.composition_length
                or dims != sorted(fc.dim for fc in art.comp.factors)
                or uniserial != art.uniserial
            ):
                failures.append((name, p))
    _report(7, not failures, str(failures))


def test_criterion_8_selfcontragredient_suite():
    failures = []
    for name, s in corpus():
        for p in PRIMES:
            art = compute_artifacts(s, field_ctx(p), 0)
            if art.w0_selfcontra != art.strata.p_prime_valenced:
                failures.append((name, p, "W0 flag"))
            for fac in art.comp.factors:
                if not explicit_map_intertwines(art, fac):
                    failures.append((name, p, fac))
    _report(8, not failures, str(failures[:3]))


def test_criterion_9_mixed_block_squares_and_semisimplicity():
    failures = []
    for name, s in corpus():
        for p in PRIMES:
            art = compute_artifacts(s, field_ctx(p), 0)
            if art.rad.dim == 0 and not art.strata.p_prime_valenced:
                failures.append((name, p, "zero radical but not p'-valenced"))
            if art.strata.p_prime_valenced:
                continue
            ctx = art.ctx
            hit = False
            for i in range(s.d + 1):
                if int(s.valencies[i]) % p != 0:
                    continue
                mixed = ctx.eje(i, 0) + ctx.eje(0, i)
                sq = mixed @ mixed % p
                if np.array_equal(sq, ctx.eje(i, i)) and sq.any():
                    hit = True
                    break
            if not hit:
                failures.append((name, p, "no mixed-block witness"))
    _report(9, not failures, str(failures[:3]))


def test_criterion_10_batch_determinism(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for fname, table in (
        ("z5.scheme", gen_cyclic(5)),
        ("z6.scheme", gen_cyclic(6)),
        ("thin2.scheme", gen_thin([[0, 1], [1, 0]])),
    ):
        (d / fname).write_text(serialize_scheme(table))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    rc1 = main(["batch", "--dir", str(d), "--primes", "2,3", "--out", str(out1)])
    rc2 = main(["batch", "--dir", str(d), "--primes", "2,3", "--out", str(out2)])
    ok = rc1 == 0 and rc2 == 0 and out1.read_bytes() == out2.read_bytes()
    _report(10, ok, f"bytes={out1.stat().st_size}")
