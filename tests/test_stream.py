"""The in-package Monte Carlo stream: frozen draws, numpy differential, refusals."""
import json
from pathlib import Path

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
from oracles import sample_shell_error_numpy

# rows drawn by numpy 2.4.6's default_rng((seed, k, first + i)).choice(m, k, replace=False)
FROZEN = json.loads((Path(__file__).parent / "frozen_draws.json").read_text())


def numpy_rows(m, k, seed, first, count):
    return [list(sample_shell_error_numpy(m, k, seed, first + i)) for i in range(count)]


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
    assert rows.tolist() == want
    if first == 0:
        assert dqi.sample_shell_error(m, k, seed, len(want)).tolist() == want


def test_replay_takes_the_lemire_rejection_branch():
    # found by search: draw 1116 of this shell redraws one Lemire step
    (case,) = [c for c in FROZEN if c["m"] == 9999]
    rows, rejected = _stream.draw_rows(9999, 199, 0, 1116, 1)
    assert rejected == 1
    assert rows.tolist() == case["rows"]


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
    assert dqi.sample_shell_error(m, k, seed, draws).tolist() == numpy_rows(m, k, seed, 0, draws)


@needs_frozen_numpy_stream
@settings(max_examples=20, deadline=None)
@given(shells, seeds, st.integers(0, 3))
def test_replay_matches_numpy_at_the_last_draw_indices(shell, seed, back):
    m, k = shell
    first = 2**32 - 1 - back
    rows, _ = _stream.draw_rows(m, k, seed, first, back + 1)
    assert rows.tolist() == numpy_rows(m, k, seed, first, back + 1)


def test_chunks_join_into_one_stream(monkeypatch):
    whole, _ = _stream.draw_rows(60, 12, 5, 0, 10)
    monkeypatch.setattr(_stream, "CHUNK_ROWS", 3)
    assert dqi.sample_shell_error(60, 12, 5, 10).tolist() == whole.tolist()


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


def test_tail_shuffle_sizes_refused(sampler_calls):
    assert dqi.sample_shell_error(10_001, 200, 0, 2).shape == (2, 200)  # k = m // 50 still replays
    with pytest.raises(CapacityError):
        dqi.sample_shell_error(10_001, 201, 0, 2)
    m = 10_001
    x = XorsatInstance(n_vars=2, rows=((1, 2),) * m, targets=(0,) * m)
    with pytest.raises(CapacityError):
        failure_profile_mc("greedy", x, 201, samples=2000)
    assert sampler_calls == [200, 201]  # refused before its first drawn shell
