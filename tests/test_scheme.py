import tracemalloc

import numpy as np
import pytest

from modtalg.errors import (
    AxiomI,
    AxiomII,
    AxiomIII,
    AxiomViolation,
    EmptyInput,
    FixtureInvalid,
    IndexOutOfRange,
    InternalInconsistency,
    InvalidParameter,
    Malformed,
    OutOfRange,
)
from modtalg.ffmat import field_ctx
from modtalg.fixtures import cyclic_group_table, load_order12_no21, s3_table
from modtalg.oracles import axioms_brute, intersection_count, strata_brute
from modtalg import scheme
from modtalg.scheme import (
    RelationTable,
    SchemeData,
    gen_cyclic,
    gen_hamming,
    gen_thin,
    parse_scheme,
    relation_table,
    serialize_scheme,
    strata,
    validate_axioms,
)


def test_parse_roundtrip_cyclic5():
    text = serialize_scheme(gen_cyclic(5))
    parsed = parse_scheme(text)
    assert parsed.n == 5 and parsed.d == 2
    assert serialize_scheme(parsed) == text


def test_parse_ignores_comments_and_blanks():
    text = "# header\n\n3\n# middle\n0 1 1\n1 0 1\n1 1 0\n"
    t = parse_scheme(text)
    assert t.n == 3 and t.d == 1


def test_parse_wrong_row_count_is_malformed():
    rows = serialize_scheme(gen_cyclic(5)).splitlines()[:-1]
    with pytest.raises(Malformed):
        parse_scheme("\n".join(rows))


def test_parse_bad_token_is_malformed():
    with pytest.raises(Malformed):
        parse_scheme("2\n0 x\n1 0\n")
    with pytest.raises(Malformed):
        parse_scheme("2\n0 1 1\n1 0\n")


def test_parse_gap_in_indices_is_out_of_range():
    with pytest.raises(OutOfRange):
        parse_scheme("2\n0 2\n2 0\n")


def test_parse_non_utf8_is_malformed():
    with pytest.raises(Malformed, match="UTF-8"):
        parse_scheme(b"2\n0 \xff\n1 0\n")
    assert parse_scheme(b"2\n0 1\n1 0\n").d == 1


def test_parse_index_beyond_int64_is_out_of_range():
    with pytest.raises(OutOfRange):
        parse_scheme("2\n0 99999999999999999999\n1 0\n")


def test_index_past_table_size_is_a_gap_without_allocation(monkeypatch):
    # an index >= n^2 cannot come with all smaller indices; the bound is
    # checked before the presence array of length d + 1 is allocated
    zeros = np.zeros

    def bounded_zeros(shape, *args, **kwargs):
        assert np.prod(shape) < 10**6
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", bounded_zeros)
    with pytest.raises(OutOfRange, match="gap"):
        parse_scheme("2\n0 100000000000000\n100000000000000 0\n")
    with pytest.raises(OutOfRange, match="gap"):
        relation_table([[0, 4], [4, 0]])


def test_parse_empty_input():
    with pytest.raises(EmptyInput):
        parse_scheme("# nothing here\n\n")


def test_one_point_scheme_is_valid():
    s = validate_axioms(parse_scheme("1\n0\n"))
    assert s.d == 0 and s.valencies.tolist() == [1]


def test_cyclic5_valencies():
    s = validate_axioms(gen_cyclic(5))
    assert s.valencies.tolist() == [1, 2, 2]
    assert s.converse.tolist() == [0, 1, 2]


def test_mutated_cyclic5_rejected_with_witness():
    t = gen_cyclic(5)
    a = t.entries.copy()
    a[0, 1] = 0
    with pytest.raises(AxiomI) as exc:
        validate_axioms(relation_table(a))
    assert exc.value.witness is not None


def test_validator_equals_brute_oracle_on_mutations(schemes):
    rng = np.random.default_rng(42)
    for name in ("cyclic-5", "hamming-2-2", "thin-z3"):
        base = schemes[name].table
        for _ in range(34):
            a = base.entries.copy()
            x = int(rng.integers(0, base.n))
            y = int(rng.integers(0, base.n))
            a[x, y] = int(rng.integers(0, base.d + 1))
            try:
                t = relation_table(a)
            except (Malformed, OutOfRange):
                continue
            try:
                validate_axioms(t)
                fast_ok = True
            except AxiomViolation:
                fast_ok = False
            brute_ok, _ = axioms_brute(t)
            assert fast_ok == brute_ok


def test_validator_accepts_whole_corpus_like_oracle(schemes):
    for name, s in schemes.items():
        ok, witness = axioms_brute(s.table)
        assert ok, (name, witness)


def test_axiom_ii_detection():
    # break symmetry of a symmetric scheme at a single off-diagonal cell
    a = gen_cyclic(5).entries.copy()
    a[0, 1] = 2
    with pytest.raises((AxiomII, AxiomIII)):
        validate_axioms(relation_table(a))


def test_intersection_identity_column(schemes):
    for name, s in schemes.items():
        for i in range(s.d + 1):
            assert s.p(i, 0, i) == 1, name


def test_order12_fixture_constants():
    s = load_order12_no21()
    assert s.valencies.tolist() == [1, 1, 2, 4, 4]
    assert int(s.converse[3]) == 4
    assert s.p(4, 4, 3) == 4
    assert s.p(3, 3, 4) == 4


def test_order12_fixture_validation_rejects_corruption(monkeypatch):
    import modtalg.fixtures as fx

    good = fx.order12_no21_text()
    bad = good.replace("12\n", "12\n", 1)
    lines = [ln for ln in good.splitlines() if ln and not ln.startswith("#")]
    # swap two relation labels to break the valency profile
    lines[1] = lines[1].replace("3", "9")
    monkeypatch.setattr(fx, "order12_no21_text", lambda: "\n".join(lines) + "\n")
    with pytest.raises((FixtureInvalid, AxiomViolation, OutOfRange)):
        fx.load_order12_no21()
    monkeypatch.undo()
    assert fx.load_order12_no21().n == 12
    assert bad == good


def test_cyclic5_p112_against_count():
    s = validate_axioms(gen_cyclic(5))
    locs = np.argwhere(s.table.entries == 2)
    x, y = (int(v) for v in locs[0])
    assert s.p(1, 1, 2) == 1 == intersection_count(s.table, 1, 1, x, y)


def test_tensor_matches_brute_counts_everywhere():
    s = validate_axioms(gen_hamming(2, 2))
    for i in range(s.d + 1):
        for j in range(s.d + 1):
            for l in range(s.d + 1):
                locs = np.argwhere(s.table.entries == l)
                x, y = (int(v) for v in locs[0])
                assert s.p(i, j, l) == intersection_count(s.table, i, j, x, y)


def test_intersection_numbers_bounds():
    s = validate_axioms(gen_cyclic(5))
    assert s.p(1, 1, 2) == 1
    with pytest.raises(IndexOutOfRange):
        s.p(3, 0, 0)


def test_strata_order12_p2():
    s = load_order12_no21()
    st = strata(s, field_ctx(2))
    assert st.sets == ((0, 1), (2,), (3, 4))
    assert st.epsilon == 2
    assert not st.p_prime_valenced
    assert st.thin == (0, 1)


def test_strata_thin_scheme_any_p(schemes):
    for p in (2, 3, 5, 7):
        st = strata(schemes["thin-z4"], field_ctx(p))
        assert st.epsilon == 0
        assert st.sets == ((0, 1, 2, 3),)
        assert st.p_prime_valenced


def test_strata_cyclic5_p2():
    st = strata(validate_axioms(gen_cyclic(5)), field_ctx(2))
    assert st.sets == ((0,), (1, 2))
    assert st.epsilon == 1 and not st.p_prime_valenced


def test_strata_matches_brute(schemes):
    for name, s in schemes.items():
        for p in (2, 3, 5, 7):
            st = strata(s, field_ctx(p))
            bsets, beps = strata_brute(s, p)
            assert tuple(st.sets) == tuple(bsets) and st.epsilon == beps


def test_triangle_identity_all_fixtures(schemes):
    for name, s in schemes.items():
        k = s.valencies
        conv = s.converse
        for i in range(s.d + 1):
            for j in range(s.d + 1):
                for l in range(s.d + 1):
                    lhs = int(k[l]) * s.p(i, j, l)
                    mid = int(k[i]) * s.p(l, int(conv[j]), i)
                    rhs = int(k[j]) * s.p(int(conv[i]), l, j)
                    assert lhs == mid == rhs, name


def test_row_sums_give_valencies(schemes):
    for name, s in schemes.items():
        sums = s.tensor.sum(axis=1)
        for i in range(s.d + 1):
            for l in range(s.d + 1):
                assert sums[i, l] == int(s.valencies[i]), name


def test_gen_cyclic_examples():
    assert gen_cyclic(1).d == 0
    t = gen_cyclic(5)
    assert t.d == 2 and validate_axioms(t).valencies.tolist() == [1, 2, 2]
    with pytest.raises(InvalidParameter):
        gen_cyclic(0)


def test_gen_hamming_examples():
    t = gen_hamming(2, 2)
    s = validate_axioms(t)
    assert t.d == 2 and s.valencies.tolist() == [1, 2, 1]
    s32 = validate_axioms(gen_hamming(3, 2))
    assert s32.valencies.tolist() == [1, 3, 3, 1]
    with pytest.raises(InvalidParameter):
        gen_hamming(0, 2)
    with pytest.raises(InvalidParameter):
        gen_hamming(2, 1)


def test_gen_thin_z2():
    s = validate_axioms(gen_thin([[0, 1], [1, 0]]))
    assert s.d == 1 and s.valencies.tolist() == [1, 1]


def test_gen_thin_relabels_identity():
    # identity element is index 1 in this Z2 presentation
    t = gen_thin([[1, 0], [0, 1]])
    assert np.diagonal(t.entries).tolist() == [0, 0]


def test_gen_thin_s3_is_noncommutative_scheme():
    s = validate_axioms(gen_thin(s3_table()))
    assert s.n == 6 and s.d == 5
    assert all(int(v) == 1 for v in s.valencies)
    assert any(int(s.converse[i]) != i for i in range(6))


def test_gen_thin_rejects_non_groups():
    with pytest.raises(InvalidParameter):
        gen_thin([[0, 0], [1, 1]])
    with pytest.raises(InvalidParameter):
        gen_thin([[0, 1], [1, 1]])
    # Latin square with identity but not associative
    nonassoc = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InvalidParameter):
        gen_thin(nonassoc)


def test_gen_thin_checks_associativity_in_quadratic_memory():
    # all n^3 products (ab)c at once would take 8 n^3 bytes, 64 MB at n = 200
    n = 200
    tracemalloc.start()
    try:
        assert gen_thin(cyclic_group_table(n)).n == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n**3 // 10


def test_point_count_the_valencies_miss_is_witnessed():
    # a table whose n overstates its entries: the valencies sum to 5, not 6
    t = gen_cyclic(5)
    with pytest.raises(InternalInconsistency) as err:
        validate_axioms(RelationTable(n=6, d=t.d, entries=t.entries))
    assert err.value.witness == ("valencies", (1, 2, 2), 6)


def test_triangle_identity_failure_is_witnessed(monkeypatch):
    # the identity holds on every table that passes axiom III, so the
    # tensor k_i p_(l j')^i is corrupted at (i, j, l) = (1, 2, 0) on its way in
    class CorruptedTranspose:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def transpose(a, axes):
            out = np.transpose(a, axes).copy()
            out[1, 2, 0] += 1
            return out

    t = gen_cyclic(5)
    monkeypatch.setattr(scheme, "np", CorruptedTranspose())
    with pytest.raises(InternalInconsistency) as err:
        validate_axioms(t)
    assert err.value.witness == ("triangle identity", (1, 2, 0))


@pytest.mark.parametrize("valencies, witness", [
    ([2, 2, 2], ("strata", "0 in S_0")),
    ([3, 2, 2], ("strata", "0 thin")),
    ([1, 2, 2, 4], ("strata partition", 4, 3)),
])
def test_corrupted_valencies_break_a_strata_invariant(valencies, witness):
    s = validate_axioms(gen_cyclic(5))
    corrupted = SchemeData(s.table, s.converse, np.array(valencies), s.tensor)
    with pytest.raises(InternalInconsistency) as err:
        strata(corrupted, field_ctx(2))
    assert err.value.witness == witness
