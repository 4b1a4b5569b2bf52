from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqi_bench import (
    BpspInstance,
    CapacityError,
    ValidationError,
    XorsatInstance,
    compare_decoders,
    encode_icc,
    enumerate_optima,
    export_lp,
    generate_instance,
    instance_digest,
    reduce_instance,
    run_pipeline,
    satisfied_count,
    sweep_degree,
    validate_approximation,
)
from dqi_bench import bench, decoder, dqi
from dqi_bench.bench import aggregate_rows, write_aggregate_csv, write_report_csv
from oracles import (
    enumerate_optima_scan,
    lp_optimum_bruteforce,
    min_swaps_bruteforce,
    parity_systems,
    parse_lp,
)

instances = st.builds(
    generate_instance,
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=2**32),
)


# ------------------------------------------------------------------ optima


def test_enumerate_optima_worked_example(ex1_reduced):
    optima, s_opt = enumerate_optima(ex1_reduced[0])
    assert s_opt == 5
    assert sorted(optima) == [(0, 1, 1, 1), (1, 0, 0, 0)]


def test_enumerate_optima_empty_problem():
    x = XorsatInstance(n_vars=2, rows=(), targets=())
    optima, s_opt = enumerate_optima(x)
    assert s_opt == 0 and len(optima) == 4


def test_enumerate_optima_capacity():
    # every elimination order of a complete graph on 24 variables has width 23
    rows = tuple((a, b) for a in range(1, 25) for b in range(a + 1, 25))
    x = XorsatInstance(n_vars=24, rows=rows, targets=(1,) * len(rows))
    with pytest.raises(CapacityError, match="elimination width"):
        enumerate_optima(x)


def test_enumerate_optima_count_guard():
    # both targets on every link of a 70-variable chain: all 2^70 assignments are optimal
    rows = tuple((a, a + 1) for a in range(1, 70) for _ in range(2))
    x = XorsatInstance(n_vars=70, rows=rows, targets=(0, 1) * 69)
    with pytest.raises(CapacityError, match="2\\^63"):
        enumerate_optima(x)


def test_enumerate_optima_listing_cap():
    x = XorsatInstance(n_vars=bench.LISTING_CAP.bit_length(), rows=(), targets=())
    with pytest.raises(CapacityError, match="listing cap"):
        enumerate_optima(x)


@settings(max_examples=200, deadline=None)
@given(parity_systems())
def test_enumerate_optima_matches_oracle(x):
    assert enumerate_optima(x) == enumerate_optima_scan(x)


def test_enumerate_optima_matches_highs_past_old_cap(tmp_path):
    milp = pytest.importorskip("scipy.optimize", reason="no MILP solver available").milp
    from scipy.optimize import Bounds, LinearConstraint

    inst = generate_instance(40, 0)
    x, _ = reduce_instance(encode_icc(inst), inst)
    assert x.n_vars > 26  # beyond the former 2^n scan
    path = tmp_path / "n40.lp"
    export_lp(x, path)
    c, a_mat, lower, upper = parse_lp(path.read_text(), x.n_vars, x.m)
    result = milp(
        c=-c,
        constraints=LinearConstraint(a_mat, lower, upper),
        integrality=np.ones(len(c)),
        bounds=Bounds(0, 1),
    )
    assert result.success
    optima, s_opt = enumerate_optima(x)
    assert round(-result.fun) == s_opt
    assert optima == sorted(optima, key=lambda bits: bits[::-1])
    assert all(satisfied_count(x, bits) == s_opt for bits in optima)


@settings(max_examples=25, deadline=None)
@given(instances)
def test_enumerate_optima_matches_scan(inst):
    x, _ = reduce_instance(encode_icc(inst), inst)
    optima, s_opt = enumerate_optima(x)
    assert len(optima) % 2 == 0  # complement closure
    best = max(
        satisfied_count(x, bits) for bits in product((0, 1), repeat=x.n_vars)
    )
    assert best == s_opt
    opt_set = set(optima)
    for bits in product((0, 1), repeat=x.n_vars):
        assert (satisfied_count(x, bits) == s_opt) == (bits in opt_set)


# ---------------------------------------------------------------- pipeline


def test_run_pipeline_exact_worked_example(ex1):
    row = run_pipeline(ex1, decoder="greedy", l=1, mode="exact")
    assert row["p_opt"] == pytest.approx(7 / 24, abs=1e-12)
    assert row["c_opt"] == pytest.approx(24 / 7, abs=1e-12)
    assert row["c_dqi"] == 8.0
    assert row["c_total"] == pytest.approx(192 / 7, abs=1e-12)
    assert row["eps"] == [0.0, 0.2]
    assert row["code_distance"] == 2
    assert row["n"] == 4 and row["m"] == 5
    assert row["forced_swaps"] == 2


def test_run_pipeline_min_length_cost(ex1):
    row = run_pipeline(ex1, decoder="min-length", l=1, mode="exact")
    assert row["c_dqi"] == 4.0**4
    assert row["p_opt"] == pytest.approx(7 / 24, abs=1e-12)


def test_run_pipeline_trivial_instance():
    inst = BpspInstance(1, (1, 1))
    row = run_pipeline(inst)
    assert row["trivial"] and row["p_opt"] == 1.0 and row["c_total"] == 0.0
    assert row["forced_swaps"] == 1 and row["wall_time_s"] > 0.0
    assert row["m"] - row["s_opt"] + row["forced_swaps"] == min_swaps_bruteforce(inst)


def test_run_pipeline_non_icc(ex1):
    row = run_pipeline(ex1, encoding="non-icc", reduce=False, l=2, mode="exact")
    assert row["n"] == 10 and row["m"] == 14
    assert row["code_distance"] == 3
    assert 0.0 < row["p_opt"] <= 1.0
    reduced = run_pipeline(ex1, encoding="non-icc", reduce=True, l=2, mode="exact")
    assert reduced["m"] == 10  # the two distance-2 events drop two adjacency rows each
    assert reduced["forced_swaps"] == 2


def test_run_pipeline_rows_are_consistent(ex1):
    for mode in ("exact", "approx"):
        row = run_pipeline(ex1, decoder="greedy", l=2, mode=mode, samples=100, seed=3)
        assert 0.0 < row["p_opt"] <= 1.0
        assert row["c_total"] == pytest.approx(row["c_opt"] * row["c_dqi"], rel=1e-12)
        assert len(row["eps"]) == row["l"] + 1
        assert row["eps"][0] == 0.0
        assert all(0.0 <= e <= 1.0 for e in row["eps"])


# ------------------------------------------------------------------- sweep


def test_sweep_single_degree(ex1):
    l_star, series = sweep_degree(ex1, profile_source="exact", l_range=[1])
    assert l_star == 1 and len(series) == 1


def test_sweep_argmax_contract(ex1):
    l_star, series = sweep_degree(ex1, profile_source="exact")
    values = dict(series)
    assert all(values[l_star] >= p for _, p in series)
    assert min(values) == 1 and max(values) == min(4, 5)


def test_sweep_matches_pipeline_point(ex1):
    _, series = sweep_degree(ex1, profile_source="mc", samples=60, seed=9)
    values = dict(series)
    row = run_pipeline(ex1, decoder="greedy", l=2, mode="approx", samples=60, seed=9)
    assert values[2] == pytest.approx(row["p_opt"], abs=1e-12)


def test_sweep_trivial_instance():
    assert sweep_degree(BpspInstance(1, (1, 1))) == (0, [])


# ------------------------------------------------------------- comparisons


def test_compare_decoders_worked_example(ex1):
    rows = compare_decoders(ex1, l=1, samples=None, seed=4)
    greedy, minlen = rows
    assert greedy["decoder"] == "greedy" and minlen["decoder"] == "min-length"
    assert greedy["eps"] == minlen["eps"] == [0.0, 0.2]
    assert greedy["c_dqi"] == 8.0
    assert minlen["c_dqi"] == 4.0**4
    assert greedy["digest"] == minlen["digest"]
    assert greedy["seed"] == minlen["seed"] == 4


def test_compare_decoders_paired_sampling():
    inst = generate_instance(9, 21)
    rows = compare_decoders(inst, samples=150, seed=7)
    assert rows[0]["mode"] == rows[1]["mode"] == "approx"
    assert rows[0]["l"] == rows[1]["l"]
    # min-length never fails more often than greedy on the shared samples
    for eg, em in zip(rows[0]["eps"], rows[1]["eps"]):
        assert em <= eg + 1e-12


def _without_time(rows):
    return [{k: v for k, v in row.items() if k != "wall_time_s"} for row in rows]


@pytest.mark.parametrize("encoding", ["icc", "non-icc"])
@pytest.mark.parametrize("samples", [None, 120])
def test_compare_decoders_matches_separate_pipelines(encoding, samples):
    for n_cars, seed in ((4, 2), (6, 3)):
        inst = generate_instance(n_cars, seed)
        rows = compare_decoders(inst, samples=samples, seed=5, encoding=encoding)
        mode = {"mode": "exact"} if samples is None else {"mode": "approx", "samples": samples}
        separate = [
            run_pipeline(inst, encoding=encoding, decoder=d, seed=5, **mode)
            for d in ("greedy", "min-length")
        ]
        assert _without_time(rows) == _without_time(separate)


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_run_pipeline_builds_elimination_order_once(monkeypatch, ex1, mode):
    calls = []
    order = bench._elimination_order

    def counting(*args):
        calls.append(args)
        return order(*args)

    monkeypatch.setattr(bench, "_elimination_order", counting)
    run_pipeline(ex1, mode=mode, samples=30)
    assert len(calls) == 1


def test_compare_decoders_searches_once(monkeypatch, ex1):
    calls = []
    search = bench.enumerate_optima

    def counting(x, *args, **kwargs):
        calls.append(x)
        return search(x, *args, **kwargs)

    monkeypatch.setattr(bench, "enumerate_optima", counting)
    compare_decoders(ex1, l=1)
    assert len(calls) == 1


@pytest.fixture()
def draw_calls(monkeypatch):
    calls = []
    draw = dqi.sample_shell_error

    def counting(m, k, seed, draws):
        calls.append((m, k, seed, draws))
        return draw(m, k, seed, draws)

    monkeypatch.setattr(dqi, "sample_shell_error", counting)
    return calls


def test_compare_decoders_draws_each_shell_once(draw_calls, shell_syndrome_passes):
    # 45 rows at degree 9: shells 3..9 hold more than 2000 errors, 0..2 are enumerated
    rows = compare_decoders(generate_instance(24, 1), samples=2000)
    assert (rows[0]["m"], rows[0]["l"]) == (45, 9)
    assert [k for _, k, _, _ in draw_calls] == list(range(3, 10))
    # one XOR pass over the rows of shells 0..9 serves the matching-capacity check and both profiles
    assert shell_syndrome_passes == [sum(min(comb(45, k), 2000) for k in range(10))]


def test_exact_compare_never_derives_positions(no_positions):
    rows = compare_decoders(generate_instance(10, 3))
    assert [row["mode"] for row in rows] == ["exact", "exact"]
    assert all(row["p_opt"] > 0 for row in rows)


def test_sweep_both_decoders_draw_each_shell_once(draw_calls):
    inst = generate_instance(8, 3)
    bench._sweeps(inst, bench.DECODER_NAMES, "mc", None, 20, 1)
    assert draw_calls and len(draw_calls) == len(set(draw_calls))
    assert [k for _, k, _, _ in draw_calls] == sorted(k for _, k, _, _ in draw_calls)


def test_compare_decoders_builds_one_syndrome_batch(syndrome_batches):
    rows = compare_decoders(generate_instance(8, 3))
    assert [(row["decoder"], row["mode"]) for row in rows] == [
        ("greedy", "exact"), ("min-length", "exact"),
    ]
    assert syndrome_batches == [2 * rows[0]["l"]]


@pytest.fixture()
def no_profiles_or_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ran before the capacity check")

    for name in (
        "failure_profile_mc", "failure_profile_exact", "enumerate_optima",
        "code_distance", "build_path_list",
    ):
        monkeypatch.setattr(bench, name, refuse)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: run_pipeline(generate_instance(100, 0), mode="approx"), "elimination width"),
        (lambda: sweep_degree(generate_instance(100, 0)), "elimination width"),
        (
            lambda: run_pipeline(generate_instance(100, 0), encoding="non-icc", mode="approx"),
            "elimination width",
        ),
        (lambda: run_pipeline(generate_instance(40, 0), mode="exact"), "syndromes"),
        (lambda: compare_decoders(generate_instance(40, 0)), "syndromes"),
        (lambda: sweep_degree(generate_instance(40, 0), profile_source="exact"), "syndromes"),
        (lambda: run_pipeline(generate_instance(23, 0), mode="exact"), "syndromes"),
    ],
    ids=[
        "approx-100-cars", "sweep-100-cars", "non-icc-approx-100-cars",
        "exact-40-cars", "compare-exact-40-cars", "sweep-exact-40-cars", "exact-23-cars",
    ],
)
def test_capacity_refused_before_profile_or_search(no_profiles_or_search, call, match):
    with pytest.raises(CapacityError, match=match):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: compare_decoders(generate_instance(80, 0), samples=2000),
        lambda: bench._sweeps(generate_instance(80, 0), bench.DECODER_NAMES, "mc", [32], 2000, 0),
    ],
    ids=["compare", "sweep"],
)
def test_matching_capacity_refused_before_any_decode(decode_calls, call):
    # greedy runs first, but min-length cannot pair the heaviest drawn syndromes
    with pytest.raises(CapacityError, match="syndrome support 52 exceeds matching capacity 22"):
        call()
    assert decode_calls == []


def test_exact_stage_builds_graph_and_checks_budget_once(monkeypatch):
    events = []

    def record(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            events.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module in (bench, dqi, decoder):
        record(module, "build_graph")
    record(dqi, "check_exact_budget")
    for name in ("code_distance", "build_path_list", "failure_profile_exact"):
        record(bench, name)
    compare_decoders(generate_instance(14, 1))
    assert events.count("build_graph") == 1
    assert events.count("check_exact_budget") == 1
    assert events.index("check_exact_budget") < min(
        events.index(name) for name in ("code_distance", "build_path_list", "failure_profile_exact")
    )
    events.clear()
    bench._sweeps(generate_instance(12, 2), bench.DECODER_NAMES, "exact", None, 20, 0)
    assert events.count("build_graph") == 1
    assert events.count("check_exact_budget") == 1


def test_run_pipeline_approx_past_old_cap():
    row = run_pipeline(generate_instance(30, 0), mode="approx")
    assert row["n"] == 30 and row["n_opt"] >= 2
    assert 0.0 < row["p_opt"] <= 1.0


# -------------------------------------------------------------- validation


def test_validate_approximation_small():
    rows, aggregates, flagged = validate_approximation(
        [2, 3], instances_per_n=2, seed=1, samples=40
    )
    assert len(rows) == 8  # two rows per instance
    modes = [row["mode"] for row in rows]
    assert modes == ["exact", "approx"] * 4
    geo = [a for a in aggregates if a["metric"] == "geomean_p_ratio"]
    assert {a["n_cars"] for a in geo} == {2, 3}
    for a in geo:
        assert a["mean"] > 0
    for item in flagged:
        assert not 0.05 <= item["ratio"] <= 3.0


@pytest.mark.parametrize("n_list, seed", [([3, -3], 0), ([3, 0], 0), ([3], -1)])
def test_validate_refuses_bad_inputs_before_any_instance(monkeypatch, n_list, seed):
    def refuse(*args):
        raise AssertionError("built an instance before the input checks")

    monkeypatch.setattr(bench, "generate_instance", refuse)
    with pytest.raises(ValidationError, match="must be >= "):
        validate_approximation(n_list, instances_per_n=1, seed=seed)


def test_validate_rows_match_separate_pipelines():
    rows, _, _ = validate_approximation([4, 6], instances_per_n=2, seed=3, samples=50)
    separate = []
    for n_cars in (4, 6):
        for i in range(2):
            inst_seed = bench.derive_seed(3, n_cars, i)
            inst = generate_instance(n_cars, inst_seed)
            separate.append(run_pipeline(inst, mode="exact", seed=inst_seed))
            separate.append(
                run_pipeline(inst, mode="approx", samples=50, seed=inst_seed)
            )
    assert _without_time(rows) == _without_time(separate)


def test_validate_searches_once_per_instance(monkeypatch):
    calls = []
    search = bench.enumerate_optima

    def counting(x, *args):
        calls.append(x)
        return search(x, *args)

    monkeypatch.setattr(bench, "enumerate_optima", counting)
    rows, _, _ = validate_approximation([5], instances_per_n=3, seed=2, samples=20)
    assert len(rows) == 6 and len(calls) == 3


# --------------------------------------------------------------- lp export


def test_export_lp_worked_example(tmp_path, ex1_reduced):
    x = ex1_reduced[0]
    path = tmp_path / "ex1.lp"
    export_lp(x, path)
    text = path.read_text()
    binaries = [ln.strip() for ln in text.splitlines()]
    names = [ln for ln in binaries if ln.startswith(("x", "z")) and len(ln.split()) == 1]
    assert len(names) == x.n_vars + x.m
    assert lp_optimum_bruteforce(text, x.n_vars) == 5


def test_export_lp_empty(tmp_path):
    x = XorsatInstance(n_vars=2, rows=(), targets=())
    path = tmp_path / "empty.lp"
    export_lp(x, path)
    text = path.read_text()
    assert "obj: 0" in text and "z1" not in text


@settings(max_examples=10, deadline=None)
@given(st.builds(generate_instance, st.integers(2, 5), st.integers(0, 2**32)))
def test_export_lp_matches_enumeration(tmp_path_factory, inst):
    x, _ = reduce_instance(encode_icc(inst), inst)
    if x.m == 0:
        return
    path = tmp_path_factory.mktemp("lp") / "x.lp"
    export_lp(x, path)
    _, s_opt = enumerate_optima(x)
    assert lp_optimum_bruteforce(path.read_text(), x.n_vars) == s_opt


# ------------------------------------------------------------------ report


def test_report_csv_deterministic(tmp_path, ex1):
    rows = [run_pipeline(ex1, decoder="greedy", l=1, mode="approx", samples=30, seed=2)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(rows, a)
    rows2 = [run_pipeline(ex1, decoder="greedy", l=1, mode="approx", samples=30, seed=2)]
    write_report_csv(rows2, b)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "n_cars,n,m,code_distance,l,decoder,mode,p_opt,c_opt,c_dqi,c_total,eps_json,seed"


def test_aggregate_rows(tmp_path, ex1):
    rows = compare_decoders(ex1, l=1, samples=None, seed=0)
    aggs = aggregate_rows(rows)
    metrics = {(a["n_cars"], a["metric"]) for a in aggs}
    assert (5, "p_opt") in metrics and (5, "c_total") in metrics
    path = tmp_path / "agg.csv"
    write_aggregate_csv(aggs, path)
    assert path.read_text().splitlines()[0] == "n_cars,decoder,mode,metric,mean,std"


def test_aggregate_rows_keep_decoders_apart(ex1):
    # grouped by car count alone, c_dqi averaged greedy's gate count with min-length's n^4
    rows = compare_decoders(ex1, l=1, samples=None, seed=0)
    assert len({row["c_dqi"] for row in rows}) == 2
    aggs = {(a["decoder"], a["mode"], a["metric"]): a for a in aggregate_rows(rows)}
    assert len(aggs) == 2 * 4
    for row in rows:
        agg = aggs[row["decoder"], "exact", "c_dqi"]
        assert (agg["n_cars"], agg["mean"], agg["std"]) == (5, row["c_dqi"], 0.0)


def test_validate_aggregates_keep_modes_apart():
    rows, aggregates, _ = validate_approximation([4], instances_per_n=3, seed=2, samples=40)
    p_opt = {a["mode"]: a["mean"] for a in aggregates if a["metric"] == "p_opt"}
    assert set(p_opt) == {"exact", "approx"}
    for mode, mean in p_opt.items():
        assert mean == pytest.approx(np.mean([r["p_opt"] for r in rows if r["mode"] == mode]), abs=0, rel=1e-15)
    (geo,) = [a for a in aggregates if a["metric"] == "geomean_p_ratio"]
    assert (geo["decoder"], geo["mode"]) == ("greedy", "approx/exact")


def test_instance_digest_stability(ex1):
    assert instance_digest(ex1) == instance_digest(BpspInstance(5, ex1.sequence))
    assert instance_digest(ex1) != instance_digest(generate_instance(5, 0))
