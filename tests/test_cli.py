import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modtalg.cli import main
from modtalg.errors import InternalInconsistency


@pytest.fixture()
def z5_file(tmp_path):
    from modtalg.scheme import gen_cyclic, serialize_scheme

    path = tmp_path / "z5.scheme"
    path.write_text(serialize_scheme(gen_cyclic(5)))
    return path


def test_gen_cyclic_roundtrip(capsys):
    assert main(["gen", "--family", "cyclic", "--n", "5"]) == 0
    out = capsys.readouterr().out
    from modtalg.scheme import parse_scheme, serialize_scheme

    assert serialize_scheme(parse_scheme(out)) == out
    assert out.splitlines()[0] == "5"


def test_gen_hamming(capsys):
    assert main(["gen", "--family", "hamming", "--len", "2", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "4"


def test_gen_thin(capsys):
    assert main(["gen", "--family", "thin", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "3"


def test_gen_bad_parameters(capsys):
    assert main(["gen", "--family", "cyclic", "--n", "0"]) == 1
    assert main(["gen", "--family", "hamming", "--len", "2"]) == 1
    assert main(["gen", "--family", "cyclic"]) == 1


@pytest.mark.parametrize("args", [
    ["--family", "cyclic", "--n", "60000"],  # refused before a 29 GB table is allocated
    ["--family", "thin", "--n", "60000"],
    ["--family", "hamming", "--len", "20000", "--q", "2"],  # 2^20000 has 6021 digits
])
def test_gen_refuses_more_points_than_desk_scale(args, capsys):
    assert main(["gen", *args]) == 1
    assert "beyond desk scale" in capsys.readouterr().err


def test_analyze_json_cyclic5_p3(z5_file, capsys):
    rc = main(["analyze", "--scheme", str(z5_file), "--prime", "3", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["composition_length"] == 1
    assert doc["characterization"]["i_pprime"] is True
    assert all(
        doc["characterization"][key] is True
        for key in (
            "ii_b0_unital_central",
            "iii_complement_ideal",
            "iv_b0_simple",
            "v_ann_thin_kills",
            "vi_rad_thin_kills",
            "viii_W0_irreducible",
            "ix_W0_selfcontra",
        )
    )


def test_analyze_order12_p2(tmp_path, capsys):
    from modtalg.fixtures import order12_no21_text

    path = tmp_path / "as12-21.scheme"
    path.write_text(order12_no21_text())
    rc = main(["analyze", "--scheme", str(path), "--prime", "2", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["composition_length"] == 4
    assert doc["characterization"]["i_pprime"] is False


def test_analyze_broken_scheme_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.scheme"
    text = "5\n0 1 2 2 1\n1 0 1 2 2\n2 1 0 1 2\n2 2 1 0 1\n1 2 2 0 0\n"
    bad.write_text(text)
    rc = main(["analyze", "--scheme", str(bad), "--prime", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "witness" in err


BAD_INPUTS = {
    "not-utf8": b"2\n0 \xff\n1 0\n",
    "beyond-int64": b"2\n0 99999999999999999999\n1 0\n",
    "past-n-squared": b"2\n0 100000000000000\n100000000000000 0\n",
}


@pytest.mark.parametrize("kind", sorted(BAD_INPUTS))
def test_bad_scheme_input_is_a_validation_failure(kind, z5_file, tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    bad = d / f"{kind}.scheme"
    bad.write_bytes(BAD_INPUTS[kind])
    (d / "z5.scheme").write_bytes(z5_file.read_bytes())
    assert main(["analyze", "--scheme", str(bad), "--prime", "2"]) == 2
    assert main(["verify", "--scheme", str(bad), "--prime", "2"]) == 2
    assert "validation failure" in capsys.readouterr().err
    assert main(["batch", "--dir", str(d), "--primes", "2"]) == 2
    doc = json.loads(capsys.readouterr().out)
    status = {e["scheme_id"]: e["status"] for e in doc["entries"]}
    assert status == {kind: "invalid", "z5": "ok"}


def test_analyze_missing_file_exits_1():
    assert main(["analyze", "--scheme", "/nonexistent.scheme", "--prime", "2"]) == 1


def test_analyze_composite_prime_exits_1(z5_file):
    assert main(["analyze", "--scheme", str(z5_file), "--prime", "4"]) == 1


def test_analyze_prime_bound(z5_file, capsys):
    # 607400093 is the largest prime with 5^2 (p-1)^2 < 2^63
    def report(p):
        assert main(["analyze", "--scheme", str(z5_file), "--prime", str(p), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc["field"], doc["prime"]
        return doc

    assert report(607400093) == report(7)
    rc = main(["analyze", "--scheme", str(z5_file), "--prime", "4294967311"])
    assert rc == 1
    assert "2^63" in capsys.readouterr().err


def test_cli_rejects_huge_primes_at_once(z5_file, capsys):
    # 2^61 - 1 is prime: rejected by the int64 bound, not by a primality search
    rc = main(["analyze", "--scheme", str(z5_file), "--prime", "2305843009213693951"])
    assert rc == 1
    assert "2^63" in capsys.readouterr().err
    huge = str(2**64 + 13)
    for argv in (["analyze", "--scheme", str(z5_file), "--prime", huge],
                 ["verify", "--scheme", str(z5_file), "--prime", huge],
                 ["batch", "--dir", str(z5_file.parent), "--primes", "2," + huge]):
        assert main(argv) == 1, argv[0]
        captured = capsys.readouterr()
        assert captured.out == "" and "2^64" in captured.err, argv[0]


def test_analyze_all_base_points(z5_file, capsys):
    rc = main(["analyze", "--scheme", str(z5_file), "--prime", "2",
               "--all-base-points", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["base_points"] == list(range(5))
    assert len(set(doc["dim_T"])) == 1


def test_batch_and_determinism(tmp_path):
    from modtalg.scheme import gen_cyclic, gen_hamming, serialize_scheme

    d = tmp_path / "corpus"
    d.mkdir()
    (d / "z5.scheme").write_text(serialize_scheme(gen_cyclic(5)))
    (d / "h22.scheme").write_text(serialize_scheme(gen_hamming(2, 2)))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    rc1 = main(["batch", "--dir", str(d), "--primes", "2,3", "--out", str(out1)])
    rc2 = main(["batch", "--dir", str(d), "--primes", "2,3", "--out", str(out2)])
    assert rc1 == rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert len(doc["entries"]) == 4
    assert all(e["status"] == "ok" for e in doc["entries"])
    assert [e["scheme_id"] for e in doc["summary"]] == ["h22", "h22", "z5", "z5"]


def test_batch_empty_dir_exits_1(tmp_path):
    d = tmp_path / "nothing"
    d.mkdir()
    assert main(["batch", "--dir", str(d), "--primes", "2"]) == 1


def test_batch_partial_failure_exits_2(tmp_path, capsys):
    from modtalg.scheme import gen_cyclic, serialize_scheme

    d = tmp_path / "corpus"
    d.mkdir()
    (d / "z5.scheme").write_text(serialize_scheme(gen_cyclic(5)))
    (d / "broken.scheme").write_text("2\n0 1\n")
    rc = main(["batch", "--dir", str(d), "--primes", "2"])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    status = {e["scheme_id"]: e["status"] for e in doc["entries"]}
    assert status == {"broken": "invalid", "z5": "ok"}


def test_batch_rejects_composite_prime_before_the_sweep(z5_file, capsys):
    rc = main(["batch", "--dir", str(z5_file.parent), "--primes", "2,4"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "4 is not a prime" in captured.err


def test_batch_maps_library_errors_to_entry_status(z5_file, capsys):
    rc = main(["batch", "--dir", str(z5_file.parent), "--primes", "2,4294967311"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert [e["status"] for e in doc["entries"]] == ["ok", "error"]
    assert "2^63" in doc["entries"][1]["message"]


def test_batch_parallel_matches_serial(tmp_path):
    from modtalg.scheme import gen_cyclic, serialize_scheme

    d = tmp_path / "corpus"
    d.mkdir()
    (d / "z5.scheme").write_text(serialize_scheme(gen_cyclic(5)))
    (d / "z6.scheme").write_text(serialize_scheme(gen_cyclic(6)))
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    assert main(["batch", "--dir", str(d), "--primes", "2,3", "--out", str(serial)]) == 0
    assert main(["batch", "--dir", str(d), "--primes", "2,3", "--out", str(parallel),
                 "--jobs", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


class _RecordedPool:
    # stands in for ProcessPoolExecutor: records max_workers and maps in
    # this process, so no worker process starts
    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_batch_jobs_below_one_exit_1_before_any_analysis(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    from modtalg import cli
    from modtalg.scheme import gen_cyclic, serialize_scheme

    (tmp_path / "z5.scheme").write_text(serialize_scheme(gen_cyclic(5)))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordedPool)
    monkeypatch.setattr(cli, "_batch_entry", lambda task: pytest.fail("analysis ran"))
    _RecordedPool.workers = []
    for jobs in ("0", "-3"):
        out = tmp_path / f"jobs{jobs}.json"
        assert main(["batch", "--dir", str(tmp_path), "--primes", "2", "--out", str(out),
                     "--jobs", jobs]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
    assert _RecordedPool.workers == []


def test_batch_starts_no_more_workers_than_tasks(tmp_path, monkeypatch):
    import concurrent.futures

    from modtalg.scheme import gen_cyclic, serialize_scheme

    (tmp_path / "z5.scheme").write_text(serialize_scheme(gen_cyclic(5)))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordedPool)
    _RecordedPool.workers = []
    # 1 task runs in this process, 3 tasks in at most 3 workers
    for primes, jobs in (("2", "4"), ("2,3,5", "8"), ("2,3,5", "2")):
        assert main(["batch", "--dir", str(tmp_path), "--primes", primes, "--out",
                     str(tmp_path / "report.json"), "--jobs", jobs]) == 0
    assert _RecordedPool.workers == [3, 2]


def test_verify_z5(z5_file, capsys):
    assert main(["verify", "--scheme", str(z5_file), "--prime", "2", "--deep"]) == 0
    assert main(["verify", "--scheme", str(z5_file), "--prime", "3"]) == 0


def test_verify_deep_skips_lattice_oracle_at_large_prime(z5_file, capsys):
    assert main(["verify", "--scheme", str(z5_file), "--prime", "10007", "--deep"]) == 0
    assert "skipped" in capsys.readouterr().err


def test_verify_deep_selfduality_oracle_on_corpus(tmp_path, capsys):
    from modtalg.fixtures import corpus
    from modtalg.scheme import serialize_scheme

    for name, s in corpus():
        path = tmp_path / f"{name}.scheme"
        path.write_text(serialize_scheme(s.table))
        for p in (2, 3, 5, 7):
            assert main(["verify", "--scheme", str(path), "--prime", str(p), "--deep"]) == 0, (name, p)


def test_verify_deep_non_diagonal_intertwiner_exits_3(z5_file, capsys, monkeypatch):
    import numpy as np

    from modtalg import cli

    def non_diagonal(src, dst):
        phi = np.eye(src.dim, dtype=np.int64)
        phi[0, 1] = 1
        return phi[None]

    monkeypatch.setattr(cli, "hom_space", non_diagonal)
    assert main(["verify", "--scheme", str(z5_file), "--prime", "2", "--deep"]) == 3
    assert "diagonal intertwiners" in capsys.readouterr().err


def test_verify_fault_injection_exits_3(z5_file, capsys):
    rc = main(["verify", "--scheme", str(z5_file), "--prime", "2",
               "--inject-radical-fault"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "oracle disagreement" in err and "dim" in err


def test_inconsistency_witness_is_printed(z5_file, tmp_path, capsys, monkeypatch):
    from modtalg import cli

    assert main(["verify", "--scheme", str(z5_file), "--prime", "2",
                 "--inject-radical-fault"]) == 3
    assert "witness=('nilpotency', 1, 3)" in capsys.readouterr().err

    from modtalg import analysis
    real_context = analysis.build_context

    def stray_vector(s, f, x):
        # E_1* 1 shrunk to one point, so A_1 E_0* 1 = E_1* 1 leaves W_0
        ctx = real_context(s, f, x)
        ctx.u = ctx.u.copy()
        ctx.u[1, ctx.u[1].nonzero()[0][1:]] = 0
        return ctx

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "build_context", stray_vector)
        assert main(["analyze", "--scheme", str(z5_file), "--prime", "2"]) == 3
    assert "W_0 is not invariant" in (err := capsys.readouterr().err)
    assert "witness=(0, 1, 0)" in err

    def inconsistent(*args, **kwargs):
        raise InternalInconsistency("stage failed", witness=(2, 7, [(0, 1), (1, 1)]))

    monkeypatch.setattr(cli, "analyze", inconsistent)
    assert main(["analyze", "--scheme", str(z5_file), "--prime", "2"]) == 3
    assert "witness=(2, 7, [(0, 1), (1, 1)])" in capsys.readouterr().err
    assert main(["batch", "--dir", str(z5_file.parent), "--primes", "2",
                 "--out", str(tmp_path / "out.json")]) == 3
    assert "witness=(2, 7, [(0, 1), (1, 1)])" in capsys.readouterr().err


def _inconsistent(*args, **kwargs):
    raise InternalInconsistency("stage failed", witness=("stage", 1))


def test_inconsistency_in_a_verify_stage_exits_3(z5_file, capsys, monkeypatch):
    from modtalg import cli

    monkeypatch.setattr(cli, "filtration", _inconsistent)
    assert main(["verify", "--scheme", str(z5_file), "--prime", "2", "--deep"]) == 3
    err = capsys.readouterr().err
    assert err == "internal inconsistency: stage failed witness=('stage', 1)\n"


def test_inconsistency_in_the_scheme_load_exits_3(z5_file, capsys, monkeypatch):
    # `validate_axioms` raises this when the valencies or the triangle identity fail
    from modtalg import cli

    monkeypatch.setattr(cli, "validate_axioms", _inconsistent)
    assert main(["analyze", "--scheme", str(z5_file), "--prime", "2"]) == 3
    err = capsys.readouterr().err
    assert err == "internal inconsistency: stage failed witness=('stage', 1)\n"


def test_out_of_memory_exits_1_with_its_stage(z5_file, tmp_path, capsys, monkeypatch):
    from modtalg import talg

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(talg, "_stage_gram", exhausted)
    for command in ("analyze", "verify"):
        assert main([command, "--scheme", str(z5_file), "--prime", "2"]) == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory in talg.radical\n" and "Traceback" not in err
    out = tmp_path / "out.json"
    assert main(["batch", "--dir", str(z5_file.parent), "--primes", "2", "--out", str(out)]) == 1
    [entry] = json.loads(out.read_text())["entries"]
    assert (entry["status"], entry["message"]) == ("error", "out of memory")


def test_verify_rejects_broken_scheme(tmp_path):
    bad = tmp_path / "broken.scheme"
    bad.write_text("2\n0 1\n")
    assert main(["verify", "--scheme", str(bad), "--prime", "2"]) == 2


def test_usage_errors_exit_1():
    assert main(["analyze", "--prime", "2"]) == 1
    assert main(["nonsense"]) == 1


def test_analyze_base_point_out_of_range(z5_file):
    assert main(["analyze", "--scheme", str(z5_file), "--prime", "2",
                 "--base-point", "9"]) == 1


def _run_cli(*args):
    # a fresh interpreter, so an uncaught exception shows as a traceback on stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "modtalg.cli", *args],
                          capture_output=True, text=True, env=env, check=False)


def test_out_to_unwritable_path_exits_1(z5_file, tmp_path):
    missing = tmp_path / "no-such-dir"
    for args in (["analyze", "--scheme", str(z5_file), "--prime", "3"],
                 ["batch", "--dir", str(z5_file.parent), "--primes", "2"]):
        out = missing / "x.json"
        proc = _run_cli(*args, "--out", str(out))
        assert proc.returncode == 1, proc.stderr
        assert f"error: cannot write {out}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not missing.exists()


def test_unwritable_out_is_refused_before_any_analysis(z5_file, tmp_path, capsys, monkeypatch):
    from modtalg import cli

    def no_analysis(*args, **kwargs):
        raise AssertionError("an analysis ran")

    monkeypatch.setattr(cli, "_batch_entry", no_analysis)
    monkeypatch.setattr(cli, "analyze", no_analysis)
    kept = tmp_path / "kept.json"
    kept.write_text("old report\n")
    for out in (tmp_path / "no-such-dir" / "y.json", tmp_path, kept / "y.json"):
        for args in (["batch", "--dir", str(z5_file.parent), "--primes", "2"],
                     ["analyze", "--scheme", str(z5_file), "--prime", "3"]):
            assert main([*args, "--out", str(out)]) == 1
            assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert kept.read_text() == "old report\n"


def test_point_count_beyond_desk_scale_is_refused(tmp_path, capsys):
    # only the point count is read: the table is refused before it is parsed
    d = tmp_path / "corpus"
    d.mkdir()
    big = d / "big.scheme"
    big.write_text("1025\n")
    for cmd in ("analyze", "verify"):
        assert main([cmd, "--scheme", str(big), "--prime", "2"]) == 1
        assert "error: 1025 points is beyond desk scale" in capsys.readouterr().err
    assert main(["batch", "--dir", str(d), "--primes", "2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [(e["status"], e["message"]) for e in doc["entries"]] == [
        ("error", "1025 points is beyond desk scale (at most 1024)")]
