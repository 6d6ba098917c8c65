import json

import pytest

from modtalg.cli import main


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


def test_verify_z5(z5_file, capsys):
    assert main(["verify", "--scheme", str(z5_file), "--prime", "2", "--deep"]) == 0
    assert main(["verify", "--scheme", str(z5_file), "--prime", "3"]) == 0


def test_verify_deep_skips_lattice_oracle_at_large_prime(z5_file, capsys):
    assert main(["verify", "--scheme", str(z5_file), "--prime", "10007", "--deep"]) == 0
    assert "skipped" in capsys.readouterr().err


def test_verify_fault_injection_exits_3(z5_file, capsys):
    rc = main(["verify", "--scheme", str(z5_file), "--prime", "2",
               "--inject-radical-fault"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "oracle disagreement" in err and "dim" in err


def test_inconsistency_witness_is_printed(z5_file, tmp_path, capsys, monkeypatch):
    from modtalg import cli
    from modtalg.errors import InternalInconsistency

    assert main(["verify", "--scheme", str(z5_file), "--prime", "2",
                 "--inject-radical-fault"]) == 3
    assert "witness=nilpotency" in capsys.readouterr().err

    def inconsistent(*args, **kwargs):
        raise InternalInconsistency("stage failed", witness=(2, 7, [(0, 1), (1, 1)]))

    monkeypatch.setattr(cli, "analyze", inconsistent)
    assert main(["analyze", "--scheme", str(z5_file), "--prime", "2"]) == 3
    assert "witness=(2, 7, [(0, 1), (1, 1)])" in capsys.readouterr().err
    assert main(["batch", "--dir", str(z5_file.parent), "--primes", "2",
                 "--out", str(tmp_path / "out.json")]) == 3
    assert "witness=(2, 7, [(0, 1), (1, 1)])" in capsys.readouterr().err


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
