"""Command-line interface.

Subcommands: analyze (one scheme, one prime), batch (directory sweep),
gen (fixture generators), verify (brute-force oracle cross-checks).
Exit codes: 0 success, 1 I/O or argument error or out of memory, 2 input
validation failure, 3 characterization-consistency or oracle failure or
any other InternalInconsistency.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from pathlib import Path
from traceback import walk_tb

import numpy as np

from . import oracles
from .analysis import analyze, report_to_json, scheme_artifacts
from .errors import (
    AxiomViolation,
    Error,
    InternalInconsistency,
    InvalidParameter,
    NotPrime,
    PrimeTooLarge,
    SchemeParseError,
)
from .ffmat import Subspace, field_ctx
from .fixtures import cyclic_group_table
from .primary import filtration, hom_space, radical_layers, uniserial_check, verify_Ml_iso
from .scheme import gen_cyclic, gen_hamming, gen_thin, parse_scheme, serialize_scheme, validate_axioms
from .talg import (
    block_relations,
    build_context,
    check_radical_postconditions,
    generate_algebra,
    radical,
    triple_product,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3


def _load_scheme(path: str):
    return validate_axioms(parse_scheme(Path(path).read_bytes()))


def _emit(text: str, out: str | None) -> int:
    """Write the text to the file `out`, or to stdout; the exit code."""
    if not out:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        Path(out).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _with_witness(exc: Exception) -> str:
    """The error message, followed by its witness when it carries one."""
    witness = getattr(exc, "witness", None)
    return f"{exc}" + (f" witness={witness}" if witness else "")


def cmd_analyze(args) -> int:
    try:
        s = _load_scheme(args.scheme)
    except OSError as exc:
        print(f"error: cannot read {args.scheme}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemeParseError, AxiomViolation) as exc:
        print(f"validation failure: {_with_witness(exc)}", file=sys.stderr)
        return EXIT_INVALID
    try:
        f = field_ctx(args.prime)
    except (NotPrime, PrimeTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.all_base_points:
        points = range(s.n)
    else:
        if not 0 <= args.base_point < s.n:
            print(f"error: base point {args.base_point} outside [0, {s.n})", file=sys.stderr)
            return EXIT_USAGE
        points = [args.base_point]
    try:
        report = analyze(s, f, points, scheme_id=Path(args.scheme).stem)
    except PrimeTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _emit(report_to_json(report) if args.json else _human_summary(report), args.out)


def _human_summary(report) -> str:
    lines = [
        f"scheme {report.scheme_id}: n={report.n} d={report.d} "
        f"valencies={list(report.valencies)} over GF({report.prime})",
        f"  base points {list(report.base_points)}: dim T = {list(report.dim_T)}",
        f"  dim B0 = {report.dim_B0}, dim B1 = {report.dim_B1}, "
        f"dim Rad = {list(report.dim_rad)}, dim Ann = {list(report.dim_ann)}",
        f"  strata: {[list(t) for t in report.strata.sets]} (epsilon {report.strata.epsilon})",
        f"  composition length {report.composition.composition_length}: "
        + ", ".join(f"level {f.level} class {list(f.cls)} dim {f.dim}"
                    for f in report.composition.factors),
        f"  uniserial: {report.uniserial}",
        f"  p'-valenced: {report.characterization.i_pprime} "
        f"(all characterization items consistent: {report.characterization.consistent})",
    ]
    return "\n".join(lines) + "\n"


def _batch_entry(task):
    path, prime = task
    name = Path(path).stem
    try:
        s = _load_scheme(path)
        report = analyze(s, field_ctx(prime), [0], scheme_id=name)
        return {"scheme_id": name, "prime": prime, "status": "ok",
                "report": report.to_dict()}
    except (SchemeParseError, AxiomViolation, OSError) as exc:
        return {"scheme_id": name, "prime": prime, "status": "invalid",
                "message": str(exc)}
    except InternalInconsistency as exc:
        return {"scheme_id": name, "prime": prime, "status": "inconsistent",
                "message": _with_witness(exc)}
    except (Error, MemoryError) as exc:
        return {"scheme_id": name, "prime": prime, "status": "error",
                "message": str(exc) or "out of memory"}


def cmd_batch(args) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, not {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    root = Path(args.dir)
    if not root.is_dir():
        print(f"error: {args.dir} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    try:
        primes = [field_ctx(int(tok)).p for tok in args.primes.split(",") if tok]
    except (ValueError, NotPrime, PrimeTooLarge) as exc:
        print(f"error: bad prime list {args.primes!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not primes:
        print("error: empty prime list", file=sys.stderr)
        return EXIT_USAGE
    files = sorted(str(f) for f in root.glob("*.scheme"))
    if not files:
        print(f"error: no .scheme files in {args.dir}", file=sys.stderr)
        return EXIT_USAGE
    tasks = [(f, p) for f in files for p in primes]
    if (workers := min(args.jobs, len(tasks))) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(_batch_entry, tasks))
    else:
        entries = [_batch_entry(t) for t in tasks]
    summary = [
        {"scheme_id": e["scheme_id"], "prime": e["prime"], "status": e["status"]}
        for e in entries
    ]
    doc = {"schema": 1, "entries": entries, "summary": summary}
    if _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out) != EXIT_OK:
        return EXIT_USAGE
    for e in entries:
        if e["status"] == "inconsistent":
            print(f"internal inconsistency in {e['scheme_id']} at p={e['prime']}: "
                  f"{e['message']}", file=sys.stderr)
    statuses = {e["status"] for e in entries}
    if "inconsistent" in statuses:
        return EXIT_INCONSISTENT
    if "invalid" in statuses:
        return EXIT_INVALID
    if "error" in statuses:
        return EXIT_USAGE
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        if args.family == "cyclic":
            if args.n is None:
                raise InvalidParameter("--n is required for the cyclic family")
            table = gen_cyclic(args.n)
        elif args.family == "hamming":
            if args.len is None or args.q is None:
                raise InvalidParameter("--len and --q are required for the hamming family")
            table = gen_hamming(args.len, args.q)
        else:
            if args.n is None:
                raise InvalidParameter("--n is required for the thin family")
            if args.n < 1:
                raise InvalidParameter("--n must be at least 1")
            table = gen_thin(cyclic_group_table(args.n))
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(serialize_scheme(table))
    return EXIT_OK


def _verify_fail(what: str, fast, oracle) -> int:
    print(f"oracle disagreement on {what}: fast={fast} oracle={oracle}", file=sys.stderr)
    return EXIT_INCONSISTENT


def cmd_verify(args) -> int:
    try:
        text = Path(args.scheme).read_bytes()
    except OSError as exc:
        print(f"error: cannot read {args.scheme}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        table = parse_scheme(text)
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemeParseError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_INVALID
    ok, witness = oracles.axioms_brute(table)
    try:
        s = validate_axioms(table)
        fast_ok = True
    except AxiomViolation:
        s = None
        fast_ok = False
    if fast_ok != ok:
        return _verify_fail("axiom validation", fast_ok, (ok, witness))
    if not fast_ok:
        print(f"validation failure confirmed by oracle: witness={witness}", file=sys.stderr)
        return EXIT_INVALID
    try:
        f = field_ctx(args.prime)
        sa = scheme_artifacts(s, f)
    except (NotPrime, PrimeTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    st = sa.strata
    brute_sets, brute_eps = oracles.strata_brute(s, f.p)
    if tuple(st.sets) != tuple(brute_sets) or st.epsilon != brute_eps:
        return _verify_fail("strata", (st.sets, st.epsilon), (brute_sets, brute_eps))

    for i in range(s.d + 1):
        for j in range(s.d + 1):
            for l in range(s.d + 1):
                locs = np.argwhere(s.table.entries == l)
                x, y = (int(v) for v in locs[0])
                brute = oracles.intersection_count(table, i, j, x, y)
                if brute != s.p(i, j, l):
                    return _verify_fail(f"p_{i}{j}^{l}", s.p(i, j, l), brute)

    ctx = build_context(s, f, 0)
    talgebra = generate_algebra(ctx)
    words = oracles.word_closure_dim(ctx)
    if words != talgebra.dim:
        return _verify_fail("dim T", talgebra.dim, words)

    rad = radical(talgebra, _verify=False)
    if args.inject_radical_fault:
        extra = talgebra.expand().basis[rad.outside(talgebra)[0]]
        corrupted = Subspace.span(
            f, np.concatenate([rad.expand().basis, extra[None, :]]), ambient_dim=ctx.n * ctx.n
        )
        try:
            check_radical_postconditions(talgebra, corrupted)
        except InternalInconsistency as exc:
            print(
                f"oracle disagreement on radical: corrupted dim={corrupted.dim} "
                f"recomputed dim={rad.dim} ({_with_witness(exc)})",
                file=sys.stderr,
            )
            return EXIT_INCONSISTENT
        return _verify_fail("radical fault injection", corrupted.dim, rad.dim)
    try:
        check_radical_postconditions(talgebra, rad)
    except InternalInconsistency as exc:
        return _verify_fail("radical postconditions", rad.dim, _with_witness(exc))

    if args.deep:
        module = sa.module
        filt = filtration(ctx, st, module)
        for l in range(s.d + 1):
            if not verify_Ml_iso(ctx, l, module):
                return _verify_fail(f"column module iso at {l}", False, True)
        p = f.p
        for i in range(s.d + 1):
            for j in range(s.d + 1):
                for l in range(s.d + 1):
                    # the row sums are the action on 1, and E_i* 1 = u_i
                    lhs = triple_product(ctx, i, j, l).sum(axis=1) % p
                    coef = s.p(l, int(s.converse[j]), i) % p
                    rhs = coef * ctx.u[i] % p
                    if not np.array_equal(lhs, rhs):
                        return _verify_fail(f"triple product ({i},{j},{l})", lhs.tolist(), rhs.tolist())
        # every intertwiner W_0 -> W_0* is diagonal (`scheme_artifacts` checked
        # that W_0 ~ W_0* iff p'-valenced)
        homs = hom_space(module, module.contragredient())
        off = np.nonzero(homs * (1 - np.eye(module.dim, dtype=np.int64)))
        if off[0].size:
            return _verify_fail("diagonal intertwiners of W_0", "diagonal",
                                f"entry {(int(off[1][0]), int(off[2][0]))} nonzero")
        subcount = oracles.count_subspaces(f.p, s.d + 1)
        if subcount <= 5000:
            layers = radical_layers(rad, block_relations(ctx, talgebra), filt)[1]
            uni = uniserial_check(sa.comp, layers, filt)
            fast = (sa.comp.composition_length, sorted(fac.dim for fac in sa.comp.factors), uni)
            brute = oracles.module_lattice_analysis(module.all_mats(), f.p)
            if brute != fast:
                return _verify_fail("module lattice", fast, brute)
        else:
            print("deep: module lattice oracle skipped (too many subspaces)", file=sys.stderr)

    print(f"verify: all oracles agree for {args.scheme} at p={args.prime}"
          + (" (deep)" if args.deep else ""))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modtalg",
        description="Modular Terwilliger algebras of association schemes over GF(p)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one scheme at one prime")
    pa.add_argument("--scheme", required=True)
    pa.add_argument("--prime", type=int, required=True)
    pa.add_argument("--base-point", type=int, default=0)
    pa.add_argument("--all-base-points", action="store_true")
    pa.add_argument("--json", action="store_true")
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_analyze)

    pb = sub.add_parser("batch", help="analyze every .scheme file in a directory")
    pb.add_argument("--dir", required=True)
    pb.add_argument("--primes", required=True, help="comma-separated primes")
    pb.add_argument("--out")
    pb.add_argument("--jobs", type=int, default=1)
    pb.set_defaults(func=cmd_batch)

    pg = sub.add_parser("gen", help="print a generated scheme table")
    pg.add_argument("--family", choices=("cyclic", "hamming", "thin"), required=True)
    pg.add_argument("--n", type=int)
    pg.add_argument("--len", type=int)
    pg.add_argument("--q", type=int)
    pg.set_defaults(func=cmd_gen)

    pv = sub.add_parser("verify", help="cross-check fast paths against brute-force oracles")
    pv.add_argument("--scheme", required=True)
    pv.add_argument("--prime", type=int, required=True)
    pv.add_argument("--deep", action="store_true")
    pv.add_argument("--inject-radical-fault", action="store_true",
                    help=argparse.SUPPRESS)
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the exit code.  An --out that cannot be written
    is refused before any analysis, without opening (and so truncating)
    it; `_emit` still reports a write that fails.  Running out of memory
    (numpy's allocation failures are MemoryError too) exits 1 naming the
    stage it happened in, the innermost frame of this package, not with a
    traceback.  So does an InternalInconsistency, the mark of a bug, from
    any subcommand: it exits 3 with its message and witness."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    out = Path(getattr(args, "out", None) or "")
    if out.name and (out.is_dir() or not out.parent.is_dir() or not os.access(out.parent, os.W_OK)):
        print(f"error: cannot write {out}: not a file in a writable directory", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {_with_witness(exc)}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except MemoryError as exc:
        ours = [f for f, _ in walk_tb(exc.__traceback__) if f.f_globals.get("__package__") == __package__]
        module = ours[-1].f_globals["__name__"].rpartition(".")[2]
        print(f"error: out of memory in {module}.{ours[-1].f_code.co_name}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
