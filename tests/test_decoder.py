import gc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqi_bench import (
    CapacityError,
    GateList,
    ValidationError,
    XorsatInstance,
    build_graph,
    build_path_list,
    code_distance,
    default_degree,
    emit_circuit,
    encode_icc,
    failure_profile_exact,
    format_circuit,
    gate_cost,
    generate_instance,
    greedy_decode,
    min_length_decode,
    reduce_instance,
    simulate_circuit,
    simulate_circuit_batch,
    syndrome,
    write_circuit,
)
from dqi_bench import decoder
from dqi_bench.decoder import DECODERS, even_sets, pack_rows
from oracles import (
    bfs_distance,
    boundary_system,
    build_path_list_sorted,
    compile_gates,
    even_syndromes,
    format_circuit_gates,
    graph_adjacency,
    greedy_decode_sets,
    matchings_bruteforce,
    min_length_decode_pairs,
    min_length_join,
    parity_systems,
    path_lengths,
    run_program_per_gate,
    simulate_circuit_gates,
    syndrome_words,
)

instances = st.builds(
    generate_instance,
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**32),
)


def reduced_system(inst):
    return reduce_instance(encode_icc(inst), inst)[0]


def weight_k_errors(m, k):
    for pos in combinations(range(m), k):
        y = [0] * m
        for j in pos:
            y[j] = 1
        yield tuple(y)


# ----------------------------------------------------------------- graph


def test_build_graph_worked_example(ex1_graph):
    assert ex1_graph.n_vertices == 4
    assert [(u, v) for _, u, v in ex1_graph.edges] == [
        (1, 2), (2, 3), (3, 4), (4, 2), (2, 3),
    ]
    assert ex1_graph.dedup_class == {1: 1, 2: 2, 3: 3, 4: 4, 5: 2}
    assert ex1_graph.pairs == {(1, 2): 1, (2, 3): 2, (3, 4): 3, (2, 4): 4}
    assert ex1_graph.adjacency == {1: (2,), 2: (1, 3, 4), 3: (2, 4), 4: (2, 3)}
    assert ex1_graph.component == {1: 1, 2: 1, 3: 1, 4: 1}


def test_build_graph_single_row():
    g = build_graph(XorsatInstance(n_vars=2, rows=((1, 2),), targets=(0,)))
    assert g.edges == ((1, 1, 2),)
    assert g.dedup_class == {1: 1}


def test_build_graph_parallel_rows():
    g = build_graph(XorsatInstance(n_vars=2, rows=((1, 2), (2, 1)), targets=(0, 1)))
    assert g.dedup_class == {1: 1, 2: 1}


# ------------------------------------------------------------ pathlists


def test_path_list_worked_example(ex1_paths):
    got = [((e.u, e.v), e.edges) for e in ex1_paths.entries]
    assert got == [
        ((1, 2), (1,)),
        ((2, 3), (2,)),
        ((2, 4), (4,)),
        ((3, 4), (3,)),
        ((1, 3), (1, 2)),
        ((1, 4), (1, 4)),
    ]


def test_path_list_path_graph():
    x = XorsatInstance(n_vars=3, rows=((1, 2), (2, 3)), targets=(0, 0))
    p = build_path_list(build_graph(x))
    assert [e.edges for e in p.entries] == [(1,), (2,), (1, 2)]


def test_path_list_triangle():
    x = XorsatInstance(n_vars=3, rows=((1, 2), (2, 3), (1, 3)), targets=(0,) * 3)
    p = build_path_list(build_graph(x))
    assert [e.length for e in p.entries] == [1, 1, 1]


def test_path_list_lexicographic_tie_break():
    # square 1-2-3-4-1: the two shortest 1..3 routes tie; vertex sequence
    # (1,2,3) beats (1,4,3)
    x = XorsatInstance(
        n_vars=4, rows=((1, 2), (2, 3), (3, 4), (1, 4)), targets=(0,) * 4
    )
    p = build_path_list(build_graph(x))
    entry = p.entries[p.index[(1, 3)]]
    assert entry.edges == (1, 2)
    entry = p.entries[p.index[(2, 4)]]
    assert entry.edges == (1, 4)  # (2,1),(1,4) beats (2,3),(3,4)


def test_path_list_skips_cross_component_pairs():
    x = XorsatInstance(n_vars=4, rows=((1, 2), (3, 4)), targets=(0, 0))
    p = build_path_list(build_graph(x))
    assert {(e.u, e.v) for e in p.entries} == {(1, 2), (3, 4)}
    assert p.component == {1: 1, 2: 1, 3: 2, 4: 2}


@settings(max_examples=30, deadline=None)
@given(instances)
def test_path_list_matches_bfs_oracle(inst):
    x = reduced_system(inst)
    if x.m == 0:
        return
    p = build_path_list(build_graph(x))
    adj = graph_adjacency(x)
    for (u, v), i in p.index.items():
        assert bfs_distance(adj, u)[v] == p.entries[i].length
    lengths = [e.length for e in p.entries]
    assert lengths == sorted(lengths)
    for entry in p.entries:
        assert entry.length == len(entry.edges)


@settings(max_examples=100, deadline=None)
@given(parity_systems())
@example(XorsatInstance(n_vars=2, rows=(), targets=()))  # no rows
@example(XorsatInstance(n_vars=3, rows=((1, 2),), targets=(0,)))  # an isolated vertex
@example(XorsatInstance(n_vars=5, rows=((1, 2), (4, 5), (2, 3)), targets=(0,) * 3))  # two components
@example(XorsatInstance(n_vars=3, rows=((2, 1), (1, 2), (2, 3), (3, 2)), targets=(0, 1, 1, 0)))  # parallel edges
@example(XorsatInstance(n_vars=2, rows=((1, 2),), targets=(1,)))  # a single path
def test_path_list_matches_sorted_oracle(x):
    g = build_graph(x)
    p, want = build_path_list(g), build_path_list_sorted(g)
    assert p.entries == want.entries
    assert p.index == {(e.u, e.v): i for i, e in enumerate(want.entries)}
    assert p == want


# ---------------------------------------------------------------- greedy


def test_greedy_zero_error(ex1_paths, ex1_reduced):
    out = greedy_decode(ex1_paths, ex1_reduced[0], (0,) * 5)
    assert out.success and out.decoded_residual == (0,) * 5


def test_greedy_single_edge_error(ex1_paths, ex1_reduced):
    out = greedy_decode(ex1_paths, ex1_reduced[0], (1, 0, 0, 0, 0))
    assert out.success
    assert out.decoded_error == (1, 0, 0, 0, 0)


def test_greedy_parallel_edge_failure(ex1_paths, ex1_reduced):
    out = greedy_decode(ex1_paths, ex1_reduced[0], (0, 0, 0, 0, 1))
    assert not out.success
    assert out.decoded_residual == (0, 1, 0, 0, 1)
    assert out.decoded_error == (0, 1, 0, 0, 0)


def test_greedy_paths_need_not_be_disjoint():
    # path graph 1-2-3-4-5 with the error e1+e2+e4: the scan first matches
    # {3,4} through e3, then {1,5} through the full path, flipping e3 a
    # second time; the double flip cancels and the decode still succeeds
    x = XorsatInstance(
        n_vars=5, rows=((1, 2), (2, 3), (3, 4), (4, 5)), targets=(0,) * 4
    )
    p = build_path_list(build_graph(x))
    y = (1, 1, 0, 1)
    assert syndrome(x, y) == (1, 0, 1, 1, 1)
    out = greedy_decode(p, x, y)
    assert out.success


def test_decoders_handle_disconnected_graphs():
    rows = ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6))
    x = XorsatInstance(n_vars=6, rows=rows, targets=(0,) * 6)
    p = build_path_list(build_graph(x))
    assert p.component[1] != p.component[4]
    y = (1, 0, 0, 0, 1, 0)  # one edge per triangle
    for decode in (greedy_decode, min_length_decode):
        out = decode(p, x, y)
        assert out.success, decode.__name__


@settings(max_examples=25, deadline=None)
@given(instances, st.data())
def test_greedy_syndrome_consistency(inst, data):
    x = reduced_system(inst)
    if x.m == 0:
        return
    p = build_path_list(build_graph(x))
    y = tuple(data.draw(st.integers(0, 1)) for _ in range(x.m))
    out = greedy_decode(p, x, y)
    assert syndrome(x, out.decoded_error) == syndrome(x, y)
    assert out.decoded_residual == tuple(a ^ b for a, b in zip(y, out.decoded_error))


# ------------------------------------------------------------ min-length


def test_min_length_zero_error(ex1_paths, ex1_reduced):
    assert min_length_decode(ex1_paths, ex1_reduced[0], (0,) * 5).success


def test_min_length_parallel_edge_failure(ex1_paths, ex1_reduced):
    out = min_length_decode(ex1_paths, ex1_reduced[0], (0, 0, 0, 0, 1))
    assert not out.success
    assert out.decoded_error == (0, 1, 0, 0, 0)


def test_weight_one_failures_match(ex1_paths, ex1_reduced):
    x = ex1_reduced[0]
    fails = {
        dec: [y for y in weight_k_errors(x.m, 1) if not dec(ex1_paths, x, y).success]
        for dec in (greedy_decode, min_length_decode)
    }
    assert fails[greedy_decode] == fails[min_length_decode] == [(0, 0, 0, 0, 1)]


def batch_kinds(x, top):
    """The two batch kinds the min-length decoder takes, on the same rows: every even
    set up to ``top`` vertices, read from the pairing tables, and those rows as a plain
    array, paired through the memo."""
    batch = even_sets(build_graph(x).component, top)
    return batch, batch.syndromes


def test_min_length_capacity_error(monkeypatch, ex1_paths, ex1_reduced):
    # e1 + e3 touch four distinct vertices
    x = ex1_reduced[0]
    monkeypatch.setattr(decoder, "_T_CAP", 2)
    with pytest.raises(CapacityError):
        min_length_decode(ex1_paths, x, (1, 0, 1, 0, 0))
    for batch in batch_kinds(x, 4):  # both hold sets of four vertices
        with pytest.raises(CapacityError):
            DECODERS["min-length"](ex1_paths, x, batch)


def test_min_length_refuses_before_any_pairing(monkeypatch, ex1_paths, ex1_reduced):
    # the offending syndrome comes last, yet no row is paired before the refusal
    x = ex1_reduced[0]
    syn = syndrome_words([[1, 1, 0, 0], [1, 1, 1, 1]])
    for name in ("_table_decode", "_memo_decode"):
        monkeypatch.setattr(decoder, name, lambda *args: pytest.fail("paired before the check"))
    monkeypatch.setattr(decoder, "_T_CAP", 2)
    with pytest.raises(CapacityError):
        DECODERS["min-length"](ex1_paths, x, syn)
    monkeypatch.setattr(decoder, "_T_CAP", 22)
    with pytest.raises(ValidationError, match="odd syndrome parity"):
        DECODERS["min-length"](ex1_paths, x, syndrome_words([[1, 1, 0, 0], [1, 0, 0, 0]]))


def test_min_length_odd_parity_error():
    # two components: {1, 2} and {3, 4}; T = {1, 3} is even overall but odd in each
    x = XorsatInstance(n_vars=4, rows=((1, 2), (3, 4)), targets=(0, 0))
    p = build_path_list(build_graph(x))
    odd = syndrome_words([[1, 0, 1, 0]])
    with pytest.raises(ValidationError, match="odd syndrome parity"):
        DECODERS["min-length"](p, x, odd)
    # an even-set batch holds only even parts, so it never holds T
    batch, rows = batch_kinds(x, 4)
    assert len(rows) == 4 and odd.tolist()[0] not in rows.tolist()
    assert np.array_equal(DECODERS["min-length"](p, x, batch), DECODERS["min-length"](p, x, rows))


def test_exact_batches_take_the_table(monkeypatch):
    # an exact profile's batch always fits the table rule
    x = reduced_system(generate_instance(8, 3))
    monkeypatch.setattr(decoder, "_memo_decode", lambda *args: pytest.fail("took the recursion"))
    failure_profile_exact("min-length", x, default_degree(x.n_vars, x.m))


@settings(max_examples=25, deadline=None)
@given(instances, st.data())
def test_min_length_matches_bruteforce_matching(inst, data):
    x = reduced_system(inst)
    if x.m == 0:
        return
    p = build_path_list(build_graph(x))
    y = tuple(data.draw(st.integers(0, 1)) for _ in range(x.m))
    out = min_length_decode(p, x, y)
    assert syndrome(x, out.decoded_error) == syndrome(x, y)
    # the decoded weight equals the best perfect-matching weight per component
    t_by_comp = {}
    for v, bit in enumerate(syndrome(x, y), start=1):
        if bit:
            t_by_comp.setdefault(p.component[v], []).append(v)
    best = sum(
        min(w for w, _ in matchings_bruteforce(tuple(sorted(vs)), path_lengths(p)))
        for vs in t_by_comp.values()
    )
    assert sum(out.decoded_error) == best


@settings(max_examples=20, deadline=None)
@given(instances)
def test_low_weight_errors_decode_exactly(inst):
    # any error lighter than half the code distance has a unique minimum
    # preimage of its syndrome, so the matching decoder must recover it
    x = reduced_system(inst)
    if x.m == 0:
        return
    p = build_path_list(build_graph(x))
    dist = code_distance(x, cap=12)
    bound = 12 if dist is None else dist
    for k in (1, 2):
        if 2 * k >= bound:
            continue
        for y in weight_k_errors(x.m, k):
            assert min_length_decode(p, x, y).success


@settings(max_examples=20, deadline=None)
@given(instances)
def test_parallel_edge_blindness(inst):
    # an error on a non-representative parallel edge shares its syndrome
    # with the representative; neither decoder can ever return it
    x = reduced_system(inst)
    if x.m == 0:
        return
    g = build_graph(x)
    p = build_path_list(g)
    for eid, rep in g.dedup_class.items():
        if eid == rep:
            continue
        y = tuple(1 if j == eid else 0 for j in range(1, x.m + 1))
        assert not greedy_decode(p, x, y).success
        assert not min_length_decode(p, x, y).success


SQUARE = XorsatInstance(n_vars=4, rows=((1, 2), (2, 3), (3, 4), (1, 4)), targets=(0,) * 4)


@settings(max_examples=80, deadline=None)
@given(parity_systems(), st.lists(st.integers(0, 2**40 - 1), min_size=1, max_size=8))
# rows 1 and 3 of a square: T = {1, 2, 3, 4}, where {1-2, 3-4} and {1-4, 2-3} tie
@example(SQUARE, [0b0101])
def test_min_length_batch_matches_pairing_oracle(x, masks):
    # errors given as row bitmasks; their syndromes are exactly the even ones
    p = build_path_list(build_graph(x))
    errors = [tuple((mask >> j) & 1 for j in range(x.m)) for mask in masks]
    syn = np.array([syndrome(x, y) for y in errors], dtype=np.uint8).reshape(len(errors), x.n_vars)
    got = DECODERS["min-length"](p, x, syndrome_words(syn))
    assert got.shape == (len(errors), -(-x.m // 64)) and got.dtype == np.uint64
    for y, row, t in zip(errors, got, syn.tolist()):
        assert np.array_equal(row, pack_rows([min_length_decode_pairs(p, x, y).decoded_error])[0])
        # per component, the lexicographically smallest minimum-weight matching
        by_comp = {}
        for v, bit in enumerate(t, start=1):
            if bit:
                by_comp.setdefault(p.component[v], []).append(v)
        want = [0] * x.m
        for verts in by_comp.values():
            _, pairs = min(matchings_bruteforce(tuple(verts), path_lengths(p)))
            for pair in pairs:
                for eid in p.entries[p.index[pair]].edges:
                    want[eid - 1] ^= 1
        assert np.array_equal(row, pack_rows([want])[0])


def test_min_length_batch_leaves_no_garbage():
    # the shared memo and the table must die with the call, not wait in a reference cycle
    inst = generate_instance(8, 3)
    x = reduced_system(inst)
    p = build_path_list(build_graph(x))
    syn = syndrome_words([syndrome(x, y) for y in weight_k_errors(x.m, 2)])
    for batch in (*batch_kinds(x, 4), syn):
        gc.collect()
        gc.disable()
        try:
            DECODERS["min-length"](p, x, batch)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0


@settings(max_examples=40, deadline=None)
@given(parity_systems())
# T = {1, 2, 3, 4} on a square, where {1-2, 3-4} and {1-4, 2-3} tie
@example(SQUARE)
def test_min_length_paths_match_on_every_even_syndrome(x):
    p = build_path_list(build_graph(x))
    batch, rows = batch_kinds(x, x.n_vars)
    syn = np.unpackbits(rows.view(np.uint8), axis=1, count=x.n_vars + 1, bitorder="little")[:, 1:]
    want = np.array([min_length_join(p, x, t) for t in syn.tolist()], dtype=np.uint8)
    want = pack_rows(want.reshape(len(syn), x.m))
    table = DECODERS["min-length"](p, x, batch)
    memo = DECODERS["min-length"](p, x, rows)
    for got in (table, memo):
        assert got.dtype == np.uint64 and np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(parity_systems(), st.integers(0, 13))
@example(XorsatInstance(n_vars=3, rows=((1, 3),), targets=(1,)), 2)  # vertex 2 is isolated
@example(XorsatInstance(n_vars=5, rows=((1, 2), (3, 4), (4, 5)), targets=(0, 0, 1)), 4)  # two components
@example(SQUARE, 3)  # an odd top keeps the sets of top - 1 vertices
@example(SQUARE, 0)  # only the empty set
def test_even_sets_match_the_oracle(x, top):
    g = build_graph(x)
    batch = even_sets(g.component, top)
    want = even_syndromes(g.component, top).view("<u8")
    assert batch.syndromes.dtype == np.uint64 and batch.syndromes.shape == want.shape
    assert sorted(batch.syndromes.tolist()) == sorted(want.tolist())
    # each row is the union of its parts, each part read from its component's layers at its entry
    parts = [[] for _ in batch.syndromes]
    for verts, layers, entry in batch.parts:
        sets = [[verts[i] for i in subset] for layer in layers for subset in layer.tolist()]
        assert all(len(subset) % 2 == 0 for subset in sets)
        entries = range(len(sets)) if entry is None else entry.tolist()
        assert len(entries) == len(parts)
        for part, e in zip(parts, entries):
            part += sets[e]
    bits = np.unpackbits(batch.syndromes.view(np.uint8), axis=1, count=x.n_vars + 1, bitorder="little")
    assert [sorted(part) for part in parts] == [np.flatnonzero(row).tolist() for row in bits]


@pytest.mark.parametrize("n_vars, m", [(63, 64), (63, 65), (64, 64), (64, 65)])
def test_decoders_take_and_return_packed_words(n_vars, m):
    # syndromes of 63 and 64 variables fill one and two words; errors of 64
    # and 65 rows fill one word, or spill one row into a second
    x = boundary_system(n_vars, m)
    p = build_path_list(build_graph(x))
    errors = [(j,) for j in range(m)] + [(j, m - 1 - j) for j in range(m // 2)] + [()]
    ys = [tuple(int(j in e) for j in range(m)) for e in errors]
    syn = syndrome_words([syndrome(x, y) for y in ys])
    assert syn.shape == (len(ys), n_vars // 64 + 1)
    want = {
        name: pack_rows([oracle(p, x, y).decoded_error for y in ys])
        for name, oracle in (("greedy", greedy_decode_sets), ("min-length", min_length_decode_pairs))
    }
    got = {name: decode(p, x, syn) for name, decode in DECODERS.items()}
    # an even-set batch: greedy reads its rows, the min-length decoder its pairing tables
    batch, rows = batch_kinds(x, 2)
    t = np.unpackbits(rows.view(np.uint8), axis=1, count=n_vars + 1, bitorder="little")[:, 1:]
    got["greedy", "even sets"] = DECODERS["greedy"](p, x, batch)
    want["greedy", "even sets"] = DECODERS["greedy"](p, x, rows)
    got["min-length", "even sets"] = DECODERS["min-length"](p, x, batch)
    want["min-length", "even sets"] = pack_rows([min_length_join(p, x, row) for row in t.tolist()])
    for name, words in got.items():
        assert words.dtype == np.uint64 and words.shape == (len(want[name]), -(-m // 64))
        bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        assert not bits[:, m:].any()  # the padding bits are 0
        assert np.array_equal(words, want[name]), name


# ----------------------------------------------------------------- circuit


def test_emit_circuit_worked_example(ex1_paths, ex1_graph):
    gl = emit_circuit(ex1_paths, ex1_graph)
    kinds = [g[0] for g in gl.gates]
    assert kinds.count("CCX") == 6
    assert kinds.count("CX") == 32
    error_cx = sum(1 for g in gl.gates if g[0] == "CX" and g[2][0] == "e")
    syndrome_cx = sum(1 for g in gl.gates if g[0] == "CX" and g[2][0] == "v")
    assert error_cx == 8 and syndrome_cx == 24


def test_emit_circuit_empty():
    no_rows = build_graph(XorsatInstance(n_vars=1, rows=(), targets=()))
    assert emit_circuit(build_path_list(no_rows), no_rows).gates == ()

    x = XorsatInstance(n_vars=2, rows=((1, 2),), targets=(0,))
    g = build_graph(x)
    p = build_path_list(g)
    empty = GateList(n_syndrome=2, n_path=0, n_error=1, gates=())
    assert simulate_circuit(empty, (1,), (1, 1)) == ((1, 1), (), (1,))
    gl = emit_circuit(p, g)
    assert gl.gates == (
        ("CCX", ("v", 1), ("v", 2), ("p", 1)),
        ("CX", ("p", 1), ("e", 1)),
        ("CX", ("p", 1), ("v", 1)),
        ("CX", ("p", 1), ("v", 2)),
        ("CX", ("p", 1), ("v", 1)),
        ("CX", ("p", 1), ("v", 2)),
    )


def test_simulate_circuit_worked_example(ex1_paths, ex1_graph, ex1_reduced):
    x = ex1_reduced[0]
    gl = emit_circuit(ex1_paths, ex1_graph)
    y = (1, 0, 0, 0, 0)
    s = syndrome(x, y)
    v_reg, p_reg, e_reg = simulate_circuit(gl, y, s)
    assert v_reg == s == (1, 1, 0, 0)
    assert p_reg == (1, 0, 0, 0, 0, 0)
    assert e_reg == (0,) * 5

    y = (0, 0, 0, 0, 1)
    v_reg, _, e_reg = simulate_circuit(gl, y, syndrome(x, y))
    assert e_reg == (0, 1, 0, 0, 1)
    assert v_reg == syndrome(x, y)


def test_simulate_rejects_bad_wire():
    gl = GateList(n_syndrome=1, n_path=1, n_error=1, gates=(("CX", ("p", 2), ("e", 1)),))
    with pytest.raises(ValidationError, match="out of range"):
        simulate_circuit(gl, (0,), (0,))


def test_simulate_rejects_bad_lengths(ex1_paths, ex1_graph):
    gl = emit_circuit(ex1_paths, ex1_graph)
    with pytest.raises(ValidationError):
        simulate_circuit(gl, (0, 0), (0, 0, 0, 0))


def test_simulate_checks_every_wire_before_running():
    # the first control is 0, so a gate-by-gate run never reads the second
    gl = GateList(n_syndrome=1, n_path=0, n_error=1, gates=(("CCX", ("v", 1), ("v", 9), ("e", 1)),))
    assert simulate_circuit_gates(gl, (0,), (0,)) == ((0,), (), (0,))
    with pytest.raises(ValidationError, match="wire v:9 out of range"):
        simulate_circuit(gl, (0,), (0,))
    with pytest.raises(ValidationError, match="wire v:9 out of range"):
        simulate_circuit_batch(gl, np.zeros((1, 1), np.uint8), np.zeros((1, 1), np.uint8))


@pytest.mark.parametrize("value", [2, -1])
def test_simulate_rejects_non_binary_registers(value):
    gl = GateList(n_syndrome=1, n_path=0, n_error=1, gates=(("CX", ("v", 1), ("e", 1)),))
    with pytest.raises(ValidationError, match="syndrome register values must be 0 or 1"):
        simulate_circuit(gl, (0,), (value,))
    with pytest.raises(ValidationError, match="error register values must be 0 or 1"):
        simulate_circuit(gl, (value,), (0,))
    with pytest.raises(ValidationError, match="syndrome register values must be 0 or 1"):
        simulate_circuit_batch(gl, [[0], [0]], [[1], [value]])
    with pytest.raises(ValidationError, match="error register values must be 0 or 1"):
        simulate_circuit_batch(gl, [[value]], [[0]])


@st.composite
def gate_lists(draw):
    """A gate list of random register sizes and CX/CCX gates over in-range wires."""
    sizes = [draw(st.integers(0, 4)) for _ in "vpe"]
    wires = [(reg, i) for reg, size in zip("vpe", sizes) for i in range(1, size + 1)]
    gates = ()
    if wires:
        wire = st.sampled_from(wires)
        gate = st.one_of(
            st.tuples(st.just("CX"), wire, wire),
            st.tuples(st.just("CCX"), wire, wire, wire),
        )
        gates = tuple(draw(st.lists(gate, max_size=40)))
    return GateList(n_syndrome=sizes[0], n_path=sizes[1], n_error=sizes[2], gates=gates)


def assert_matches_gate_oracle(gl, states):
    """simulate_circuit and each row of simulate_circuit_batch equal the gate-by-gate oracle."""
    want = [simulate_circuit_gates(gl, y, s) for y, s in states]
    assert [simulate_circuit(gl, y, s) for y, s in states] == want
    errors = np.array([y for y, _ in states], dtype=np.uint8).reshape(len(states), gl.n_error)
    syndromes = np.array([s for _, s in states], dtype=np.uint8).reshape(len(states), gl.n_syndrome)
    regs = simulate_circuit_batch(gl, errors, syndromes)
    assert [tuple(tuple(int(b) for b in reg[row]) for reg in regs) for row in range(len(states))] == want


@settings(max_examples=150, deadline=None)
@given(gate_lists(), st.data())
def test_simulate_matches_gate_oracle(gl, data):
    def bits(size):
        return st.tuples(*[st.integers(0, 1)] * size)

    states = data.draw(st.lists(st.tuples(bits(gl.n_error), bits(gl.n_syndrome)), min_size=1, max_size=9))
    assert_matches_gate_oracle(gl, states)


def test_simulate_repeated_controls_and_control_targets():
    gates = (
        ("CCX", ("v", 1), ("v", 1), ("p", 1)),  # a Toffoli with one control twice
        ("CX", ("p", 1), ("p", 1)),  # a CNOT onto its own control clears it
        ("CCX", ("e", 1), ("v", 1), ("e", 1)),  # a Toffoli onto one of its controls
        ("CX", ("v", 1), ("p", 1)),
    )
    gl = GateList(n_syndrome=1, n_path=1, n_error=1, gates=gates)
    states = [((e,), (v,)) for e in (0, 1) for v in (0, 1)]
    assert_matches_gate_oracle(gl, states)
    assert [simulate_circuit(gl, y, s) for y, s in states] == [
        ((0,), (0,), (0,)), ((1,), (1,), (0,)), ((0,), (0,), (1,)), ((1,), (1,), (0,)),
    ]


def control_run_case(gates):
    """A gate list over two wires per register, checked on all 16 error and syndrome states."""
    gl = GateList(n_syndrome=2, n_path=2, n_error=2, gates=gates)
    states = [
        ((e1, e2), (v1, v2)) for e1 in (0, 1) for e2 in (0, 1) for v1 in (0, 1) for v2 in (0, 1)
    ]
    assert_matches_gate_oracle(gl, states)
    return gl.program.runs


def test_control_run_ends_at_a_cx_onto_its_own_control():
    # the CX onto v:1 clears it mid-run, so the last CX must not fire
    gates = (
        ("CX", ("v", 1), ("e", 1)),
        ("CX", ("v", 1), ("v", 1)),
        ("CX", ("v", 1), ("e", 2)),
    )
    assert control_run_case(gates) == [0, 1, 2, 3]
    assert simulate_circuit(GateList(2, 2, 2, gates), (0, 0), (1, 0)) == ((0, 0), (0, 0), (1, 0))


def test_control_run_ends_at_a_ccx_onto_its_control():
    gates = (
        ("CCX", ("v", 1), ("v", 2), ("e", 1)),
        ("CCX", ("v", 1), ("v", 2), ("v", 2)),
        ("CCX", ("v", 1), ("v", 2), ("e", 2)),
        ("CCX", ("v", 1), ("v", 2), ("e", 1)),
    )
    assert control_run_case(gates) == [0, 1, 2, 4]
    assert simulate_circuit(GateList(2, 2, 2, gates), (0, 0), (1, 1)) == ((1, 0), (0, 0), (1, 0))


def test_control_run_repeats_targets():
    gates = (
        ("CX", ("p", 1), ("e", 1)),
        ("CX", ("p", 1), ("e", 1)),
        ("CX", ("p", 1), ("e", 2)),
        ("CX", ("p", 1), ("e", 1)),
        ("CX", ("v", 1), ("p", 1)),
        ("CX", ("p", 1), ("e", 1)),
        ("CX", ("p", 1), ("e", 1)),
        ("CX", ("p", 1), ("v", 2)),
    )
    assert control_run_case(gates) == [0, 4, 5, 8]


def test_control_run_broken_by_a_gate_onto_its_control():
    # the middle gate sets p:1, so the run after it reads the new value
    gates = (
        ("CX", ("p", 1), ("e", 1)),
        ("CX", ("p", 1), ("e", 2)),
        ("CX", ("v", 1), ("p", 1)),
        ("CX", ("p", 1), ("e", 1)),
        ("CX", ("p", 1), ("v", 2)),
    )
    assert control_run_case(gates) == [0, 2, 3, 5]
    assert simulate_circuit(GateList(2, 2, 2, gates), (0, 0), (1, 0)) == ((1, 1), (1, 0), (1, 0))


def compiled_or_error(compile_, gl):
    """A gate list's program, or the message of the ValidationError its compile raises."""
    try:
        return compile_(gl)
    except ValidationError as exc:
        return str(exc)


@st.composite
def user_gate_lists(draw):
    """A gate list of random register sizes whose gates may be malformed or name wires out of range."""
    sizes = [draw(st.integers(0, 3)) for _ in "vpe"]
    wire = st.tuples(st.sampled_from("vpeq"), st.integers(0, 4))
    gate = st.one_of(
        st.tuples(st.sampled_from(["CX", "CCX", "CZ"]), wire, wire),
        st.tuples(st.sampled_from(["CX", "CCX"]), wire, wire, wire),
        st.tuples(st.just("CX"), wire),
    )
    return GateList(*sizes, tuple(draw(st.lists(gate, max_size=12))))


@settings(max_examples=200, deadline=None)
@given(st.one_of(gate_lists(), user_gate_lists()))
@example(GateList(1, 1, 1, (
    ("CCX", ("v", 1), ("v", 1), ("p", 1)),  # a Toffoli with one control twice
    ("CX", ("p", 1), ("p", 1)),  # a CNOT onto its own control
    ("CCX", ("e", 1), ("v", 1), ("e", 1)),  # a Toffoli onto one of its controls
)))
@example(GateList(1, 1, 1, (("CX", ("v", 1), ("e", 1)), ("CX", ("e", 1), ("v", 2)))))
def test_user_lists_compile_as_oracle(gl):
    assert compiled_or_error(lambda gl: gl.program, gl) == compiled_or_error(compile_gates, gl)


@settings(max_examples=60, deadline=None)
@given(st.one_of(instances.map(reduced_system), parity_systems()))
def test_emitted_columns_match_compiled_gates(x):
    g = build_graph(x)
    gl = emit_circuit(build_path_list(g), g)
    want = compile_gates(gl)  # from the gates derived off the emitted columns
    assert gl.program == want
    assert GateList(gl.n_syndrome, gl.n_path, gl.n_error, gl.gates).program == want
    assert format_circuit(gl) == format_circuit_gates(gl)
    words = gl.n_syndrome + gl.n_path + gl.n_error
    assert len({id(w) for w in [*gl.program.c1, *gl.program.c2, *gl.program.t]}) <= words
    assert len({id(w) for gate in gl.gates for w in gate[1:]}) <= words


def test_emitted_list_is_never_compiled(monkeypatch, ex1_paths, ex1_graph, ex1_reduced):
    def refuse(gl):
        raise AssertionError("an emitted gate list was compiled from tuples")

    monkeypatch.setattr(decoder, "_compile", refuse)
    gl = emit_circuit(ex1_paths, ex1_graph)
    y = (0, 0, 0, 0, 1)
    assert simulate_circuit(gl, y, syndrome(ex1_reduced[0], y))[2] == (0, 1, 0, 0, 1)
    assert format_circuit(gl) == format_circuit_gates(gl)


def test_circuit_path_never_derives_entries(ex1_reduced, tmp_path):
    x = ex1_reduced[0]
    g = build_graph(x)
    p = build_path_list(g)
    gate_cost(p)
    gl = emit_circuit(p, g)
    write_circuit(gl, tmp_path / "c.txt")
    y = (0, 0, 0, 0, 1)
    assert simulate_circuit(gl, (0,) * x.m, syndrome(x, y))[2] == greedy_decode(p, x, y).decoded_error
    assert "entries" not in p.__dict__
    assert "index" not in p.__dict__


def test_emitted_list_is_formatted_without_wire_tuples(monkeypatch, ex1_paths, ex1_graph, tmp_path):
    gl = emit_circuit(ex1_paths, ex1_graph)
    want = format_circuit_gates(gl)

    def refuse(gl):
        raise AssertionError("the circuit file was formatted from wire tuples")

    monkeypatch.setattr(decoder, "_wires", refuse)
    assert format_circuit(gl) == want
    write_circuit(gl, tmp_path / "c.txt")
    assert (tmp_path / "c.txt").read_text() == want


class CountingWords(list):
    """Words that count how often the interpreter reads one."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_interpreter_reads_two_controls_per_run(ex1_paths, ex1_graph):
    gl = emit_circuit(ex1_paths, ex1_graph)
    runs = len(gl.program.runs) - 1
    # per path: the Toffoli, the path's CNOTs, and its two restoring CNOTs
    assert runs == 3 * len(ex1_paths.entries)
    words = CountingWords([0] * (gl.n_syndrome + gl.n_path + gl.n_error))
    decoder._run(gl.program, words)  # no wire is set, so no run fires
    assert words.reads == 2 * runs


@settings(max_examples=150, deadline=None)
@given(gate_lists(), st.data())
def test_control_runs_match_per_gate_program(gl, data):
    width = 1 + gl.n_syndrome + gl.n_path + gl.n_error
    words = data.draw(st.lists(st.integers(0, 255), min_size=width, max_size=width))[1:]
    want = list(words)
    run_program_per_gate(gl.program, want)
    decoder._run(gl.program, words)
    assert words == want


@settings(max_examples=150, deadline=None)
@given(gate_lists())
def test_format_circuit_matches_oracle(gl):
    assert format_circuit(gl) == format_circuit_gates(gl)


def test_circuit_file_is_written_in_chunks(monkeypatch, tmp_path, ex1_paths, ex1_graph):
    gl = emit_circuit(ex1_paths, ex1_graph)
    monkeypatch.setattr(decoder, "_CHUNK_LINES", 5)  # 38 gates: eight chunks, the last short
    path = tmp_path / "c.txt"
    write_circuit(gl, path)
    assert path.read_bytes() == format_circuit_gates(gl).encode()
    assert format_circuit(gl) == format_circuit_gates(gl)


def test_simulate_takes_wires_as_lists():
    gates = (("CCX", ["v", 1], ["e", 1], ["p", 1]), ["CX", ["p", 1], ["v", 1]])
    gl = GateList(n_syndrome=1, n_path=1, n_error=1, gates=gates)
    assert_matches_gate_oracle(gl, [((e,), (v,)) for e in (0, 1) for v in (0, 1)])
    assert simulate_circuit(gl, (1,), (1,)) == ((0,), (1,), (1,))
    assert format_circuit(gl) == format_circuit_gates(gl)


EMPTY = GateList(n_syndrome=2, n_path=1, n_error=2, gates=())


@pytest.mark.parametrize(
    "gates, message",
    [
        ((("CZ", ("v", 1), ("e", 1)),), "bad gate"),
        ((("CX", ("v", 1)),), "bad gate"),
        ((("CCX", ("v", 1), ("v", 2)),), "bad gate"),
        ((("CX", ("v", 1), ("e", 1), ("e", 2)),), "bad gate"),
        ((("CX", ("v", 1), ("q", 1)),), "wire q:1 out of range"),
        ((("CX", ("v", 0), ("e", 1)),), "wire v:0 out of range"),
        ((("CX", ("v", 1), ("e", 3)),), "wire e:3 out of range"),
        ((("CCX", ("v", 1), ("p", 2), ("e", 1)),), "wire p:2 out of range"),
        ((("CX", ("v", 1), ("e", 1)), ("CX", ("e", 1), ("v", 3))), "wire v:3 out of range"),
    ],
)
def test_simulate_rejects_malformed_gate_lists(gates, message):
    gl = GateList(n_syndrome=2, n_path=1, n_error=2, gates=gates)
    with pytest.raises(ValidationError, match=message):
        format_circuit(gl)
    with pytest.raises(ValidationError, match=message):
        compile_gates(gl)
    ones = (1, 1)
    with pytest.raises(ValidationError, match=message):
        simulate_circuit_gates(gl, ones, ones)  # all wires 1: the oracle reads every wire too
    with pytest.raises(ValidationError, match=message):
        simulate_circuit(gl, ones, ones)
    with pytest.raises(ValidationError, match=message):
        simulate_circuit_batch(gl, [ones], [ones])


@pytest.mark.parametrize(
    "errors, syndromes, message",
    [
        ([0, 0], [[0, 0]], r"error registers must have shape \(batch, 2\)"),
        ([[0, 0, 0]], [[0, 0]], r"error registers must have shape \(batch, 2\)"),
        ([[0, 0]], [[0]], r"syndrome registers must have shape \(batch, 2\)"),
        ([[0, 0], [1, 1]], [[0, 0]], "2 error registers != 1 syndrome registers"),
    ],
)
def test_simulate_batch_rejects_bad_shapes(errors, syndromes, message):
    with pytest.raises(ValidationError, match=message):
        simulate_circuit_batch(EMPTY, errors, syndromes)


def test_simulate_batch_of_none():
    regs = simulate_circuit_batch(EMPTY, np.zeros((0, 2), np.uint8), np.zeros((0, 2), np.uint8))
    assert [reg.shape for reg in regs] == [(0, 2), (0, 1), (0, 2)]


@settings(max_examples=20, deadline=None)
@given(instances)
def test_circuit_reproduces_greedy(inst):
    x = reduced_system(inst)
    if x.m == 0:
        return
    g = build_graph(x)
    p = build_path_list(g)
    gl = emit_circuit(p, g)
    for k in range(0, 3):
        for y in weight_k_errors(x.m, k):
            s = syndrome(x, y)
            v_reg, _, e_reg = simulate_circuit(gl, y, s)
            assert e_reg == greedy_decode(p, x, y).decoded_residual
            assert v_reg == s


# --------------------------------------------------------------- gate cost


def test_gate_cost_worked_example(ex1_paths):
    cost = gate_cost(ex1_paths)
    assert cost.leading_order == 8
    assert cost.ccx == 6 and cost.cx == 32
    assert cost.total == 38


def test_gate_cost_single_edge():
    x = XorsatInstance(n_vars=2, rows=((1, 2),), targets=(0,))
    assert gate_cost(build_path_list(build_graph(x))).leading_order == 1


def test_gate_cost_path_graph():
    x = XorsatInstance(n_vars=3, rows=((1, 2), (2, 3)), targets=(0, 0))
    assert gate_cost(build_path_list(build_graph(x))).leading_order == 4
