import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dqi_bench import (
    BpspInstance,
    build_graph,
    build_path_list,
    dqi,
    encode_icc,
    reduce_instance,
)

# the five-car worked example used throughout the test suite
EX1_SEQUENCE = (1, 2, 1, 3, 4, 5, 2, 5, 3, 4)


@pytest.fixture(scope="session")
def ex1():
    return BpspInstance(n_cars=5, sequence=EX1_SEQUENCE)


@pytest.fixture(scope="session")
def ex1_icc(ex1):
    return encode_icc(ex1)


@pytest.fixture(scope="session")
def ex1_reduced(ex1, ex1_icc):
    reduced, record = reduce_instance(ex1_icc, ex1)
    return reduced, record


@pytest.fixture(scope="session")
def ex1_graph(ex1_reduced):
    return build_graph(ex1_reduced[0])


@pytest.fixture(scope="session")
def ex1_paths(ex1_graph):
    return build_path_list(ex1_graph)


@pytest.fixture()
def syndrome_batches(monkeypatch):
    """The largest set size of every even-set batch built while the test runs."""
    calls = []
    build = dqi.even_sets

    def counting(component, top):
        calls.append(top)
        return build(component, top)

    monkeypatch.setattr(dqi, "even_sets", counting)
    return calls


@pytest.fixture()
def decode_calls(monkeypatch):
    """The decoder of every batch decoded while the test runs."""
    calls = []
    for name, decode in list(dqi.DECODERS.items()):
        def counting(*args, _name=name, _decode=decode):
            calls.append(_name)
            return _decode(*args)

        monkeypatch.setitem(dqi.DECODERS, name, counting)
    return calls


@pytest.fixture()
def shell_syndrome_passes(monkeypatch):
    """The row count of every XOR pass over packed errors made while the test runs."""
    calls = []
    build = dqi._syndromes

    def counting(x, err):
        calls.append(len(err))
        return build(x, err)

    monkeypatch.setattr(dqi, "_syndromes", counting)
    return calls


@pytest.fixture()
def no_positions(monkeypatch):
    """Fail any read of ``FailureProfile.decoded_sets``, which pipeline runs never need."""
    def refuse(profile):
        raise AssertionError("a pipeline run derived D_k positions")

    monkeypatch.setattr(dqi.FailureProfile, "decoded_sets", property(refuse))
