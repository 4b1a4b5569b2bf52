"""The in-package Monte Carlo stream: frozen draws, numpy differential, refusals."""
import json
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqi_bench import (
    CapacityError,
    ValidationError,
    XorsatInstance,
    encode_icc,
    failure_profile_mc,
    generate_instance,
    reduce_instance,
    write_instance,
)
from dqi_bench import _stream, dqi
from dqi_bench.cli import main
from dqi_bench.decoder import pack_positions, pack_rows
from oracles import sample_shell_error_numpy

# rows drawn by numpy 2.4.6's default_rng((seed, k, first + i)).choice(m, k, replace=False)
FROZEN = json.loads((Path(__file__).parent / "frozen_draws.json").read_text())


def numpy_rows(m, k, seed, first, count):
    return [list(sample_shell_error_numpy(m, k, seed, first + i)) for i in range(count)]


def packed(rows, m):
    """Rows of positions as the words the sampler returns, as nested lists."""
    return pack_positions(np.array(rows, dtype=np.int64), m).tolist()


NUMPY_STREAM_FROZEN = all(
    numpy_rows(c["m"], c["k"], c["seed"], c["first"], len(c["rows"])) == c["rows"] for c in FROZEN
)
needs_frozen_numpy_stream = pytest.mark.skipif(
    not NUMPY_STREAM_FROZEN,
    reason="the installed numpy's Generator stream no longer gives numpy 2.4.6's frozen draws",
)


@pytest.mark.parametrize(
    "case", FROZEN, ids=lambda c: f"m{c['m']}-k{c['k']}-seed{c['seed']}-from{c['first']}"
)
def test_replay_matches_frozen_draws(case):
    m, k, seed, first, want = case["m"], case["k"], case["seed"], case["first"], case["rows"]
    rows, _ = _stream.draw_rows(m, k, seed, first, len(want))
    assert rows.tolist() == packed(want, m)
    if first == 0:
        assert dqi.sample_shell_error(m, k, seed, len(want)).tolist() == packed(want, m)


def test_replay_takes_the_lemire_rejection_branch():
    # found by search: draw 1116 of this shell redraws one Lemire step
    (case,) = [c for c in FROZEN if c["m"] == 9999]
    rows, rejected = _stream.draw_rows(9999, 199, 0, 1116, 1)
    assert rejected == 1
    assert rows.tolist() == packed(case["rows"], 9999)


def test_batch_with_a_redrawn_row_matches_row_by_row():
    # draw 1116 redraws one Lemire step; the one-pass kernel replays it stepwise
    rows, rejected = _stream.draw_rows(9999, 199, 0, 1110, 10)
    assert rejected == 1
    for i in range(10):
        row, _ = _stream.draw_rows(9999, 199, 0, 1110 + i, 1)
        assert rows[i].tolist() == row[0].tolist()


shells = st.one_of(
    st.integers(1, 400).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
    st.sampled_from([9_999, 10_000, 10_001]).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, m // 50))
    ),
)
# seeds of one, two and three 32-bit words
seeds = st.one_of(
    st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**96 - 1)
)


@needs_frozen_numpy_stream
@settings(max_examples=120, deadline=None)
@given(shells, seeds, st.integers(1, 4))
@example((1, 0), 0, 1)
@example((1, 1), 0, 2)
@example((317, 317), 2**40 + 7, 2)
def test_replay_matches_numpy(shell, seed, draws):
    m, k = shell
    want = packed(numpy_rows(m, k, seed, 0, draws), m)
    assert dqi.sample_shell_error(m, k, seed, draws).tolist() == want


@needs_frozen_numpy_stream
@settings(max_examples=20, deadline=None)
@given(shells, seeds, st.integers(0, 3))
def test_replay_matches_numpy_at_the_last_draw_indices(shell, seed, back):
    m, k = shell
    first = 2**32 - 1 - back
    rows, _ = _stream.draw_rows(m, k, seed, first, back + 1)
    assert rows.tolist() == packed(numpy_rows(m, k, seed, first, back + 1), m)


# m at and around the bitset's 64-bit word edges, or any m; k of 0, 1, m - 1 (the
# last step draws on [0, m - 1]), m (step 0 has a j of 0 and draws nothing), or any k
kernel_shells = st.one_of(
    st.sampled_from([63, 64, 65, 128, 129]), st.integers(1, 400)
).flatmap(lambda m: st.tuples(
    st.just(m),
    st.one_of(st.sampled_from(sorted({0, 1, m - 1, m})), st.integers(0, m)),
))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(kernel_shells, shells),
    seeds,
    st.integers(1, 40).flatmap(lambda count: st.tuples(
        st.just(count),
        st.one_of(st.integers(0, 2**32 - count), st.integers(2**32 - count - 3, 2**32 - count)),
    )),
)
@example((1, 1), 0, (3, 0))
@example((64, 64), 2**40 + 7, (5, 2**32 - 5))
@example((9999, 199), 0, (10, 1110))
def test_one_pass_kernel_matches_stepwise(shell, seed, span):
    m, k = shell
    count, first = span
    rows, rejected = _stream.draw_rows(m, k, seed, first, count)
    want, want_rejected = _stream.draw_rows_stepwise(m, k, seed, first, count)
    assert want.dtype == np.int64 and want.shape == (count, k)
    assert rows.dtype == np.uint64 and rows.shape == (count, (m + 63) // 64)
    assert rows.tolist() == packed(want, m)
    assert rejected == want_rejected


def test_chunks_join_into_one_stream(monkeypatch):
    whole, _ = _stream.draw_rows(60, 12, 5, 0, 10)
    monkeypatch.setattr(_stream, "CHUNK_ROWS", 3)
    assert dqi.sample_shell_error(60, 12, 5, 10).tolist() == whole.tolist()


@settings(max_examples=60, deadline=None)
@given(kernel_shells, st.integers(0, 5), st.randoms(use_true_random=False))
def test_packed_positions_match_packed_rows(shell, count, rnd):
    # any order of a row's values, m at and around the 64-bit word edges
    m, k = shell
    rows = [rnd.sample(range(m), k) for _ in range(count)]
    bits = np.zeros((count, m), np.uint8)
    for r, row in enumerate(rows):
        bits[r, row] = 1
    assert packed(rows, m) == pack_rows(bits).tolist()


def _reduced(n_cars, seed):
    inst = generate_instance(n_cars, seed)
    return reduce_instance(encode_icc(inst), inst)[0]


@pytest.fixture()
def sampler_calls(monkeypatch):
    """Weights k of every ``dqi.sample_shell_error`` call, as the benchmark's tracer wraps it."""
    calls = []
    sample = dqi.sample_shell_error

    def counting(m, k, seed, draws):
        calls.append(k)
        return sample(m, k, seed, draws)

    monkeypatch.setattr(dqi, "sample_shell_error", counting)
    return calls


def test_mc_profile_samples_each_drawn_shell_in_one_call(sampler_calls):
    x = _reduced(12, 3)
    samples = 50
    profile = failure_profile_mc("greedy", x, 5, samples=samples, seed=1)
    drawn = [k for k, size in enumerate(profile.shell_sizes) if size > samples]
    assert 0 < len(drawn) < len(profile.shell_sizes)  # enumerated and drawn shells both
    assert sampler_calls == drawn


def test_negative_seed_refused(tmp_path, capsys, sampler_calls):
    with pytest.raises(ValidationError):
        dqi.sample_shell_error(10, 3, -1, 5)
    with pytest.raises(ValidationError):
        failure_profile_mc("greedy", _reduced(12, 3), 5, samples=50, seed=-1)
    assert sampler_calls == [3]  # the direct call; the profile draws nothing
    path = tmp_path / "inst.json"
    write_instance(generate_instance(16, 2), path)
    argv = ["bench", "-i", str(path), "--mode", "approx", "--seed", "-1",
            "-o", str(tmp_path / "r.csv")]
    assert main(argv) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_more_than_2_32_draws_refused(tmp_path, capsys, sampler_calls):
    with pytest.raises(CapacityError):
        dqi.sample_shell_error(45, 9, 0, 2**32 + 1)
    # C(m, 2) > 2^32 + 1 >= C(m, 1): shells 0 and 1 are enumerated, shell 2 drawn
    m = 92_683
    x = XorsatInstance(n_vars=2, rows=((1, 2),) * m, targets=(0,) * m)
    with pytest.raises(CapacityError):
        failure_profile_mc("greedy", x, 2, samples=2**32 + 1)
    assert sampler_calls == [9]
    # a sample count alone refuses nothing: every shell of 8 cars is enumerated
    argv = ["bench", "--n-cars", "8", "--samples", str(2**32), "--mode", "approx",
            "-o", str(tmp_path / "r.csv")]
    assert main(argv) == 0


def test_position_budget_refused_before_any_shell(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("a shell was built")

    monkeypatch.setattr(dqi, "_combinations", fail)
    monkeypatch.setattr(dqi, "sample_shell_error", fail)
    x = _reduced(24, 0)  # m = 41
    # at 10^8 samples shell 7 is enumerated: C(41, 7) errors, 7 positions each, ~157M
    with pytest.raises(CapacityError, match="error positions"):
        dqi.mc_shells(x, 9, 10**8, 0)
    argv = ["bench", "--n-cars", "24", "--mode", "approx", "--samples", str(10**8),
            "-o", str(tmp_path / "r.csv")]
    assert main(argv) == 3
    assert "error positions" in capsys.readouterr().err


def test_position_budget_counts_the_positions_held(monkeypatch):
    x, l, samples = _reduced(12, 3), 5, 50
    need = sum(min(comb(x.m, k), samples) * k for k in range(l + 1))
    monkeypatch.setattr(dqi, "MC_POSITION_BUDGET", need)
    shells, _ = dqi.mc_shells(x, l, samples, 1)
    assert sum(len(shell) * k for k, shell in enumerate(shells)) == need
    assert sum(int(np.bitwise_count(shell).sum()) for shell in shells) == need
    monkeypatch.setattr(dqi, "MC_POSITION_BUDGET", need - 1)
    with pytest.raises(CapacityError):
        dqi.mc_shells(x, l, samples, 1)


def test_tail_shuffle_sizes_refused(sampler_calls):
    draws = dqi.sample_shell_error(10_001, 200, 0, 2)  # k = m // 50 still replays
    assert draws.shape == (2, 157) and np.bitwise_count(draws).sum(axis=1).tolist() == [200, 200]
    with pytest.raises(CapacityError):
        dqi.sample_shell_error(10_001, 201, 0, 2)
    m = 10_001
    x = XorsatInstance(n_vars=2, rows=((1, 2),) * m, targets=(0,) * m)
    with pytest.raises(CapacityError):
        failure_profile_mc("greedy", x, 201, samples=2000)
    assert sampler_calls == [200, 201]  # refused before its first drawn shell
