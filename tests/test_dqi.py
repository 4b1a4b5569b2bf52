import tracemalloc
from itertools import combinations, product
from math import comb, isinf, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqi_bench import (
    CapacityError,
    FailureProfile,
    ValidationError,
    XorsatInstance,
    build_graph,
    build_path_list,
    default_degree,
    dicke_weights,
    encode_icc,
    failure_profile_exact,
    failure_profile_mc,
    generate_instance,
    p_approx,
    p_exact,
    p_opt_approx,
    p_opt_exact,
    reduce_instance,
    satisfied_count,
    shell_sum_A,
    syndrome,
)
from dqi_bench import dqi
from dqi_bench.decoder import EvenSets, pack_rows
from dqi_bench.dqi import sample_shell_error
from oracles import (
    amplitude_oracle,
    boundary_system,
    decoded_sets_loop,
    dicke_weights_loop,
    error_bits,
    failure_profile_mc_loop,
    p_exact_rowproduct,
    parity_systems,
    profile_of_sets,
    shell_sum_bruteforce,
    syndrome_words,
)

instances = st.builds(
    generate_instance,
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=2**32),
)


def reduced_nontrivial(inst):
    x, _ = reduce_instance(encode_icc(inst), inst)
    return x if x.m else None


# ----------------------------------------------------------- dicke weights


def test_dicke_weights_degree_one():
    for m in (1, 4, 9, 25):
        dw = dicke_weights(m, 1)
        assert dw.w == pytest.approx((1 / sqrt(2), 1 / sqrt(2)), abs=1e-12)
        assert dw.lambda_max == pytest.approx(sqrt(m), abs=1e-10)


def test_dicke_weights_m5_l2():
    dw = dicke_weights(5, 2)
    expect = np.array([sqrt(5), sqrt(13), sqrt(8)])
    expect /= np.linalg.norm(expect)
    assert np.allclose(dw.w, expect, atol=1e-10)
    assert dw.lambda_max == pytest.approx(sqrt(13), abs=1e-10)


def test_dicke_weights_grid_quality():
    for m in (3, 10, 31, 60):
        for l in (1, 2, 5, 12):
            if l > m:
                continue
            dw = dicke_weights(m, l)
            w = np.array(dw.w)
            assert np.all(w > 0)
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
            a = np.sqrt(np.arange(1.0, l + 1) * (m - np.arange(1.0, l + 1) + 1.0))
            full = np.diag(a, 1) + np.diag(a, -1)
            assert np.max(np.abs(full @ w - dw.lambda_max * w)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 160).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))))
@example((1, 1))
@example((45, 9))
@example((157, 157))
def test_dicke_weights_match_loop(shell):
    m, l = shell
    assert dicke_weights(m, l) == dicke_weights_loop(m, l)


def test_dicke_weights_range_errors():
    with pytest.raises(ValidationError):
        dicke_weights(3, 4)
    with pytest.raises(ValidationError):
        dicke_weights(3, -1)
    assert dicke_weights(3, 0).w == (1.0,)


def test_dicke_weights_unconverged_is_capacity_error(monkeypatch):
    monkeypatch.setattr(dqi, "POWER_ITERATION_CAP", 1)
    with pytest.raises(CapacityError, match="converge"):
        dicke_weights(5, 2)


# -------------------------------------------------------------- shell sums


def test_shell_sum_edge_cases():
    for m in (1, 5, 9):
        for s in range(m + 1):
            assert shell_sum_A(0, s, m) == 1
            assert shell_sum_A(1, s, m) == 2 * s - m
        for k in range(m + 1):
            assert shell_sum_A(k, m, m) == comb(m, k)
    assert shell_sum_A(2, 3, 5) == -2


def test_shell_sum_range_errors():
    with pytest.raises(ValidationError):
        shell_sum_A(6, 0, 5)
    with pytest.raises(ValidationError):
        shell_sum_A(0, 6, 5)


@settings(max_examples=25, deadline=None)
@given(instances, st.data())
def test_shell_sum_matches_bruteforce(inst, data):
    x = encode_icc(inst)
    if x.m > 10:
        x = XorsatInstance(
            n_vars=x.n_vars, rows=x.rows[:10], targets=x.targets[:10],
            encoding=x.encoding,
        )
    bits = tuple(data.draw(st.integers(0, 1)) for _ in range(x.n_vars))
    s = satisfied_count(x, bits)
    for k in range(x.m + 1):
        assert shell_sum_bruteforce(x, bits, k) == shell_sum_A(k, s, x.m)


# -------------------------------------------------------- failure profiles


def test_exact_profile_worked_example(ex1_reduced, ex1_paths):
    x = ex1_reduced[0]
    prof = failure_profile_exact("greedy", x, 1, paths=ex1_paths)
    assert prof.eps == (0.0, 0.2)
    assert prof.decoded_sets[1].tolist() == [[0], [1], [2], [3]]
    assert prof.shell_sizes == (1, 5)


def test_exact_profile_degree_zero(ex1_reduced):
    prof = failure_profile_exact("greedy", ex1_reduced[0], 0)
    assert prof.eps == (0.0,)


def test_exact_profile_min_length(ex1_reduced, ex1_paths):
    prof = failure_profile_exact("min-length", ex1_reduced[0], 1, paths=ex1_paths)
    assert prof.eps == (0.0, 0.2)


def test_exact_profile_budget(monkeypatch, ex1_reduced):
    # 4 variables in one component: degree 1 decodes the 1 + C(4, 2) = 7
    # syndromes of at most 2 vertices, degree 2 and up all 2^3 = 8 even ones
    monkeypatch.setattr(dqi, "ENUMERATION_BUDGET", 7)
    with pytest.raises(CapacityError, match="needs 8 syndromes.*Monte Carlo"):
        failure_profile_exact("greedy", ex1_reduced[0], 2)
    assert failure_profile_exact("greedy", ex1_reduced[0], 1).eps == (0.0, 0.2)


def test_exact_budget_follows_the_degree():
    # 23 variables in one path: degree 1 decodes 1 + C(23, 2) = 254 syndromes
    # of the 2^22 even ones, so it stays exact where the full degree refuses
    rows = tuple((i, i + 1) for i in range(1, 23))
    x = XorsatInstance(n_vars=23, rows=rows, targets=(0,) * 22)
    assert failure_profile_exact("greedy", x, 1).eps == (0.0, 0.0)
    with pytest.raises(CapacityError, match="4194304 syndromes"):
        failure_profile_exact("greedy", x, 12)


def test_mc_profile_enumeration_branch(ex1_reduced, ex1_paths):
    x = ex1_reduced[0]
    prof = failure_profile_mc("greedy", x, 1, samples=2000, seed=5, paths=ex1_paths)
    assert prof.eps == (0.0, 0.2)  # C(5,1) = 5 <= samples: enumerated exactly
    assert prof.mode == "monte_carlo"


def test_mc_profile_deterministic():
    inst = generate_instance(8, 13)
    x, _ = reduce_instance(encode_icc(inst), inst)
    a = failure_profile_mc("greedy", x, 3, samples=50, seed=11)
    b = failure_profile_mc("greedy", x, 3, samples=50, seed=11)
    assert a.eps == b.eps
    draws = sample_shell_error(x.m, 3, 11, 8)
    assert draws.tolist() == sample_shell_error(x.m, 3, 11, 8).tolist()
    assert draws.shape == (8, (x.m + 63) // 64)
    assert np.bitwise_count(draws).sum(axis=1).tolist() == [3] * 8  # positions without replacement


def test_mc_profile_concentration():
    # |eps_mc - eps_exact| <= 4 sigma in at least 99 of 100 seeded repeats
    inst = generate_instance(8, 3)
    x, _ = reduce_instance(encode_icc(inst), inst)
    paths = build_path_list(build_graph(x))
    k = 2
    exact = failure_profile_exact("greedy", x, k, paths=paths).eps[k]
    samples = 80
    assert comb(x.m, k) > samples  # actually exercises the sampling branch
    sigma = sqrt(exact * (1 - exact) / samples)
    hits = 0
    for seed in range(100):
        est = failure_profile_mc("greedy", x, k, samples=samples, seed=seed, paths=paths)
        if abs(est.eps[k] - exact) <= 4 * sigma:
            hits += 1
    assert hits >= 99


EMPTY = XorsatInstance(n_vars=0, rows=(), targets=())


def assert_same_exact(got, sets):
    # sets are the oracle's own D_k positions, so the derived accessor sits on one side only
    want = profile_of_sets(got.decoder, got.m, sets)
    assert got.eps == want.eps and got.shell_sizes == want.shell_sizes
    assert len(got.decoded_sets) == len(sets) == len(got.decoded_words)
    for d_got, d_want in zip(got.decoded_sets, sets):
        assert d_got.dtype == d_want.dtype == np.int64
        assert d_got.shape == d_want.shape and np.array_equal(d_got, d_want)
    for w_got, w_want in zip(got.decoded_words, want.decoded_words):
        assert w_got.dtype == np.uint64 and w_got.shape == w_want.shape
        assert sorted(map(tuple, w_got.tolist())) == sorted(map(tuple, w_want.tolist()))


@settings(max_examples=80, deadline=None)
@given(
    parity_systems(),
    st.sampled_from(["greedy", "min-length"]),
    st.integers(0, 3),
    st.integers(1, 20),
    st.integers(0, 2**32),
)
@example(EMPTY, "greedy", 0, 5, 0)
@example(EMPTY, "min-length", 0, 5, 0)
def test_profiles_match_per_error_oracle(x, decoder, l, samples, seed):
    # small sample counts make low shells enumerated and higher ones drawn
    l = min(l, x.m)
    exact = failure_profile_exact(decoder, x, l)
    assert_same_exact(exact, decoded_sets_loop(decoder, x, l))
    l_mc = min(l + 1, x.m)
    mc = failure_profile_mc(decoder, x, l_mc, samples=samples, seed=seed)
    assert mc.eps == failure_profile_mc_loop(decoder, x, l_mc, samples=samples, seed=seed).eps


def test_profiles_past_int16_positions():
    # 40000 rows: the lone edge 2-3 is the last row, so it decodes only if
    # positions past 32767 survive
    rows = ((1, 2),) * 39999 + ((2, 3),)
    x = XorsatInstance(n_vars=3, rows=rows, targets=(0,) * len(rows))
    exact = failure_profile_exact("greedy", x, 1)
    assert exact.decoded_sets[1].tolist() == [[0], [39999]]
    assert_same_exact(exact, decoded_sets_loop("greedy", x, 1))
    mc = failure_profile_mc("greedy", x, 2, samples=5, seed=1)
    assert mc.eps == failure_profile_mc_loop("greedy", x, 2, samples=5, seed=1).eps


def test_mc_profile_memory_stays_below_the_system_squared():
    # the 40000-row system of the test above: an m x m array of unit errors alone is 1.6 GB
    rows = ((1, 2),) * 39999 + ((2, 3),)
    x = XorsatInstance(n_vars=3, rows=rows, targets=(0,) * len(rows))
    tracemalloc.start()
    try:
        failure_profile_mc("greedy", x, 2, samples=5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, f"traced peak {peak / 2**20:.0f} MB"


def test_profiles_and_densities_past_one_word():
    # 70 variables and 80 rows: syndromes, errors and assignments span two uint64 words
    rows = tuple((v, v + 1) for v in range(1, 70)) + tuple((v, v + 60) for v in range(1, 11)) + ((3, 69),)
    x = XorsatInstance(n_vars=70, rows=rows, targets=tuple(v % 2 for v in range(len(rows))))
    weights = dicke_weights(x.m, 1)
    assigns = [tuple((v * 7 + s) % 3 % 2 for v in range(70)) for s in range(3)]
    for decoder in ("greedy", "min-length"):
        exact = failure_profile_exact(decoder, x, 1)
        assert_same_exact(exact, decoded_sets_loop(decoder, x, 1))
        want = sum(p_exact_rowproduct(x, a, weights, exact) for a in assigns)
        assert p_opt_exact(x, assigns, weights, exact, c_dqi=1.0).p_opt == want


@pytest.mark.parametrize("n_vars, m", [(62, 63), (63, 64), (64, 65), (63, 128), (64, 129)])
def test_profiles_across_word_boundaries(n_vars, m):
    # errors of 63, 64, 65, 128 and 129 rows; syndromes of 62, 63 and 64 variables
    x = boundary_system(n_vars, m)
    for decoder in ("greedy", "min-length"):
        want = decoded_sets_loop(decoder, x, 2)
        for l in (1, 2):
            exact = failure_profile_exact(decoder, x, l)
            assert_same_exact(exact, want[: l + 1])
        if m == 65:
            # rows 63 and 64 are the path's last two edges, 62-63 and 63-64
            assert [63, 64] in exact.decoded_sets[2].tolist()


def brute_force_sets(decode, x, l):
    """Per weight k <= l, the weight-k errors a batch decoder returns unchanged, in lexicographic order."""
    paths = build_path_list(build_graph(x))
    sets = []
    for k in range(l + 1):
        errors = np.array(list(combinations(range(x.m), k)), dtype=np.int64).reshape(comb(x.m, k), k)
        y = np.zeros((len(errors), x.m), dtype=np.uint8)
        np.put_along_axis(y, errors, 1, axis=1)
        syn = syndrome_words(np.array([syndrome(x, row) for row in y.tolist()]).reshape(len(y), x.n_vars))
        ok = (decode(paths, x, syn) == pack_rows(y)).all(axis=1)
        sets.append(errors[ok])
    return sets


def test_profile_counts_only_exact_decodes(monkeypatch, ex1_reduced):
    # a decoder answering every nonzero syndrome with all rows covers each
    # weight-1 error's position, yet returns a different error
    def all_rows(p, x, batch):
        return pack_rows(np.repeat(batch.syndromes.any(axis=1, keepdims=True), x.m, axis=1))

    monkeypatch.setitem(dqi.DECODERS, "greedy", all_rows)
    assert failure_profile_exact("greedy", ex1_reduced[0], 1).eps == (0.0, 1.0)


@pytest.mark.parametrize("x", [
    boundary_system(16, 30),  # one word of errors and of syndromes
    boundary_system(72, 80),  # two words of each
])
def test_profile_checks_each_decoded_syndrome(monkeypatch, x):
    # where T holds vertex 1 the decoder answers with its error rotated by one
    # row: the same weight, but another error, with another syndrome
    decode = dqi.DECODERS["greedy"]

    def rotating(p, x, syndromes):
        out = decode(p, x, syndromes)
        if isinstance(syndromes, EvenSets):  # the exact profile's batch
            syndromes = syndromes.syndromes
        hit = syndromes[:, 0] & np.uint64(2) != 0  # vertex 1 is bit 1
        out[hit] = pack_rows(np.roll(error_bits(out[hit], x.m), 1, axis=1))
        return out

    monkeypatch.setitem(dqi.DECODERS, "greedy", rotating)
    exact = failure_profile_exact("greedy", x, 2)
    want = brute_force_sets(rotating, x, 2)
    assert len(want[1]) < x.m  # some decodes are rejected
    for got, d_k in zip(exact.decoded_sets, want):
        assert got.dtype == np.int64 and np.array_equal(got, d_k)
    assert exact.eps == tuple((comb(x.m, k) - len(d_k)) / comb(x.m, k) for k, d_k in enumerate(want))


# --------------------------------------------------------------- densities


def test_p_exact_worked_example(ex1_reduced, ex1_paths):
    x = ex1_reduced[0]
    prof = failure_profile_exact("greedy", x, 1, paths=ex1_paths)
    dw = dicke_weights(x.m, 1)
    assert p_exact(x, (0, 1, 1, 1), dw, prof) == pytest.approx(7 / 48, abs=1e-14)
    assert p_exact(x, (1, 0, 0, 0), dw, prof) == pytest.approx(7 / 48, abs=1e-14)


def test_p_exact_degree_zero_is_uniform(ex1_reduced):
    x = ex1_reduced[0]
    prof = failure_profile_exact("greedy", x, 0)
    dw = dicke_weights(x.m, 0)
    for bits in product((0, 1), repeat=x.n_vars):
        assert p_exact(x, bits, dw, prof) == pytest.approx(2.0**-x.n_vars, abs=1e-15)


def test_p_exact_rejects_mc_profile(ex1_reduced):
    x = ex1_reduced[0]
    prof = failure_profile_mc("greedy", x, 1, samples=10, seed=0)
    with pytest.raises(ValidationError):
        p_exact(x, (0, 0, 0, 0), dicke_weights(x.m, 1), prof)


@settings(max_examples=10, deadline=None)
@given(instances, st.integers(0, 2**32))
def test_p_exact_normalization_and_oracle(inst, _seed):
    x = reduced_nontrivial(inst)
    if x is None:
        return
    l = min(default_degree(x.n_vars, x.m), 3)
    prof = failure_profile_exact("greedy", x, l)
    dw = dicke_weights(x.m, l)
    amp = amplitude_oracle(x, dw, prof)
    total = 0.0
    for idx, bits in enumerate(product((0, 1), repeat=x.n_vars)):
        # bit j of the index is variable j+1: product() varies the LAST
        # element fastest, so reverse to line the orders up
        value = p_exact(x, bits[::-1], dw, prof)
        assert value == pytest.approx(float(amp[idx] ** 2), abs=1e-12)
        total += value
    assert total == pytest.approx(1.0, abs=1e-9)


def test_amplitude_oracle_properties(ex1_reduced, ex1_paths):
    x = ex1_reduced[0]
    prof = failure_profile_exact("greedy", x, 1, paths=ex1_paths)
    dw = dicke_weights(x.m, 1)
    amp = amplitude_oracle(x, dw, prof)
    assert float((amp**2).sum()) == pytest.approx(1.0, abs=1e-12)
    full = (1 << x.n_vars) - 1
    for idx in range(1 << x.n_vars):
        assert amp[idx] == pytest.approx(float(amp[full ^ idx]), abs=1e-12)
    assert amp[0b1110] ** 2 == pytest.approx(7 / 48, abs=1e-13)


def test_amplitude_oracle_capacity():
    rows = tuple((i, i + 1) for i in range(1, 22))
    x = XorsatInstance(n_vars=22, rows=rows, targets=(0,) * 21)
    prof = failure_profile_exact("greedy", x, 0)
    with pytest.raises(CapacityError):
        amplitude_oracle(x, dicke_weights(x.m, 0), prof)


def test_p_approx_worked_example(ex1_reduced, ex1_paths):
    x = ex1_reduced[0]
    prof = failure_profile_exact("greedy", x, 1, paths=ex1_paths)
    dw = dicke_weights(x.m, 1)
    approx = p_approx(5, dw, prof, x.n_vars)
    assert approx == pytest.approx(7 / 48, abs=1e-14)
    assert approx == pytest.approx(p_exact(x, (0, 1, 1, 1), dw, prof), abs=1e-14)


def test_p_approx_perfect_decoding_ranks_by_satisfaction():
    # with no failures the density is symmetric under s -> m - s (every
    # shell sum only flips sign), so the ranking-by-s claim lives on the
    # upper half: non-decreasing there, maximal at s = m
    prof = FailureProfile(
        mode="monte_carlo", decoder="greedy", m=5, l=2,
        eps=(0.0, 0.0, 0.0), shell_sizes=(1, 5, 10), samples_per_shell=1,
    )
    dw = dicke_weights(5, 2)
    values = [p_approx(s, dw, prof, 4) for s in range(6)]
    upper = values[3:]
    assert upper == sorted(upper)
    assert max(values) == values[5]
    for s in range(6):
        assert values[s] == pytest.approx(values[5 - s], abs=1e-15)


def test_p_approx_middle_shell_kills_degree_one():
    # s = m/2 makes the weight-1 shell sum vanish
    x = XorsatInstance(n_vars=5, rows=((1, 2), (2, 3), (3, 4), (4, 5)), targets=(0,) * 4)
    prof = failure_profile_exact("greedy", x, 1)
    dw = dicke_weights(4, 1)
    expect = (dw.w[0] ** 2 * 1.0) / (2.0**5)  # only the k = 0 term survives
    r_norm = dw.w[0] ** 2 + dw.w[1] ** 2 * (1 - prof.eps[1])
    assert p_approx(2, dw, prof, 5) == pytest.approx(expect / r_norm, abs=1e-15)


# ------------------------------------------------------------- cost chains


def test_p_opt_exact_worked_example(ex1_reduced, ex1_paths):
    x = ex1_reduced[0]
    prof = failure_profile_exact("greedy", x, 1, paths=ex1_paths)
    dw = dicke_weights(x.m, 1)
    est = p_opt_exact(x, [(0, 1, 1, 1), (1, 0, 0, 0)], dw, prof, c_dqi=8.0)
    assert est.p_opt == pytest.approx(7 / 24, abs=1e-14)
    assert est.c_opt == pytest.approx(24 / 7, abs=1e-12)
    assert est.c_total == pytest.approx(192 / 7, abs=1e-12)
    assert est.c_total == pytest.approx(est.c_opt * est.c_dqi, abs=1e-12)


def test_p_opt_probability_one():
    x = XorsatInstance(n_vars=2, rows=((1, 2),), targets=(0,))
    prof = failure_profile_exact("greedy", x, 0)
    dw = dicke_weights(1, 0)
    est = p_opt_approx(2, 1, dw, prof, n=1, c_dqi=3.0)
    assert est.p_opt == pytest.approx(1.0, abs=1e-12)
    assert est.c_opt == pytest.approx(1.0, abs=1e-12)
    assert est.c_total == pytest.approx(3.0, abs=1e-12)


def test_p_opt_zero_flags_infinite_cost(ex1_reduced):
    x = ex1_reduced[0]
    empty = FailureProfile(
        mode="exact", decoder="greedy", m=x.m, l=0, eps=(0.0,), shell_sizes=(1,),
        decoded_words=(np.empty((0, 1), dtype=np.uint64),),
    )
    est = p_opt_exact(x, [(0, 0, 0, 0)], dicke_weights(x.m, 0), empty, c_dqi=8.0)
    assert est.p_opt == 0.0 == p_exact_rowproduct(x, (0, 0, 0, 0), dicke_weights(x.m, 0), empty)
    assert isinf(est.c_opt) and isinf(est.c_total)


@settings(max_examples=60, deadline=None)
@given(parity_systems(), st.integers(0, 3), st.data())
def test_p_opt_matches_row_product_oracle(x, l, data):
    # the parity-count densities reproduce the row products bit for bit; the
    # assignments are distinct, as optima are, so their densities sum to <= 1
    if x.m == 0:
        return
    l = min(l, x.m)
    weights = dicke_weights(x.m, l)
    assigns = data.draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=x.n_vars, max_size=x.n_vars),
            min_size=1, max_size=6, unique_by=tuple,
        )
    )
    for decoder in ("greedy", "min-length"):
        prof = failure_profile_exact(decoder, x, l)
        want = sum(p_exact_rowproduct(x, a, weights, prof) for a in assigns)
        assert p_opt_exact(x, assigns, weights, prof, c_dqi=1.0).p_opt == want
        assert p_exact(x, assigns[0], weights, prof) == p_exact_rowproduct(x, assigns[0], weights, prof)


def test_p_opt_matches_row_product_oracle_on_empty_sets(ex1_reduced):
    x = ex1_reduced[0]
    empty = FailureProfile(
        mode="exact", decoder="greedy", m=x.m, l=1, eps=(0.0, 1.0), shell_sizes=(1, x.m),
        decoded_words=(np.zeros((1, 1), dtype=np.uint64), np.empty((0, 1), dtype=np.uint64)),
    )
    assert [d_k.shape for d_k in empty.decoded_sets] == [(1, 0), (0, 1)]
    weights = dicke_weights(x.m, 1)
    assigns = [(0, 1, 1, 1), (1, 0, 0, 0), (0, 0, 0, 0)]
    want = sum(p_exact_rowproduct(x, a, weights, empty) for a in assigns)
    assert p_opt_exact(x, assigns, weights, empty, c_dqi=1.0).p_opt == want


def test_densities_reject_wrong_assignment_length(ex1_reduced):
    x = ex1_reduced[0]
    prof = failure_profile_exact("greedy", x, 1)
    dw = dicke_weights(x.m, 1)
    with pytest.raises(ValidationError, match="assignment length 3"):
        p_exact(x, (0, 1, 1), dw, prof)
    with pytest.raises(ValidationError, match="assignment length 5"):
        p_opt_exact(x, [(0, 1, 1, 1), (0, 1, 1, 1, 0)], dw, prof, c_dqi=1.0)


def test_p_opt_rejects_empty_optima(ex1_reduced):
    x = ex1_reduced[0]
    prof = failure_profile_exact("greedy", x, 0)
    with pytest.raises(ValidationError):
        p_opt_exact(x, [], dicke_weights(x.m, 0), prof, c_dqi=1.0)


# ------------------------------------------------------------ degree rule


def test_default_degree_rule():
    assert default_degree(5, 9) == 2
    assert default_degree(2, 3) == 1  # floor(4/5) = 0, floored up to 1
    assert default_degree(10, 3) == 3  # clamped by m
    assert default_degree(10, 100) == 4
    with pytest.raises(ValidationError):
        default_degree(4, 0)
