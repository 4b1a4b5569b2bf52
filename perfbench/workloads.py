"""The three workloads: seeded inputs, the timed operation and its checks.

Every workload draws its car sequences from the run's seed and keeps the
first ones whose reduced ICC system has the workload's size (n = n_cars
variables and the most common row count m at that car count), so that
every seed asks for the same amount of work.  The program receives only
``BpspInstance`` objects.  A run times whole rounds over the instance
pool, so each instance runs equally often.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import checks

DECODERS = ("greedy", "min-length")
CIRCUIT_BATCH = 8  # weight-l errors simulated per circuit build


@dataclass
class Input:
    inst: Any  # dqi_bench.BpspInstance
    case: checks.Case
    batch: list = field(default_factory=list)  # circuit only: (error, syndrome) pairs


@dataclass
class Workload:
    name: str
    n_cars: int
    m: int  # reduced row count every drawn instance must have
    pool: int  # distinct instances per run
    expected: frozenset[str]  # program functions one op must call (traced mode)
    op: Callable  # (dqi_bench, Input, scratch file) -> output, timed
    capture: Callable  # output -> what the checks read; untimed, between ops
    check: Callable  # (dqi_bench, summary, Input) -> problems; after the timed region
    prepare: Callable | None = None  # (inputs, seed): more seeded inputs, in set-up
    run_check: Callable | None = None  # (dqi_bench, seed) -> problems; once per run


def default_degree(n, m) -> int:
    return min(max(1, (2 * n) // 5), n, m)


def _rng(name, seed):
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def draw_inputs(dq, name, n_cars, m, count, seed) -> list[Input]:
    """The first ``count`` seeded sequences whose reduced system is n_cars x m."""
    rng = _rng(name, seed)
    out = []
    while len(out) < count:
        seq = tuple(int(c) for c in rng.permutation(np.repeat(np.arange(1, n_cars + 1), 2)))
        inst = dq.BpspInstance(n_cars=n_cars, sequence=seq)
        x, record = dq.reduce_instance(dq.encode_icc(inst), inst)
        if x.n_vars == n_cars and x.m == m:
            case = checks.Case(seq, x.n_vars, x.rows, x.targets, record.forced_swaps)
            out.append(Input(inst, case))
    return out


def _rows(rows):
    # wall_time_s differs between repeats; everything else must repeat exactly
    return [{k: v for k, v in row.items() if k != "wall_time_s"} for row in rows]


# --- exact-n14: compare_decoders in exact mode ---------------------------

def _exact_check(dq, rows, inp):
    return [p for row, d in zip(rows, DECODERS) for p in checks.check_row(row, inp.case, d, "exact")]


COMPANION = ("companion-n10", 10, 17)


def density_normalization(dq, seed) -> list[str]:
    """Exact densities of one small companion instance sum to 1 over all 2^n."""
    name, n_cars, m = COMPANION
    inp = draw_inputs(dq, name, n_cars, m, 1, seed)[0]
    x, _ = dq.reduce_instance(dq.encode_icc(inp.inst), inp.inst)
    l = default_degree(x.n_vars, x.m)
    weights = dq.dicke_weights(x.m, l)
    problems = []
    for decoder in DECODERS:
        profile = dq.failure_profile_exact(decoder, x, l)
        total = sum(
            dq.p_exact(x, [(i >> j) & 1 for j in range(x.n_vars)], weights, profile)
            for i in range(1 << x.n_vars)
        )
        if abs(total - 1.0) > 1e-9:
            problems.append(f"{name}/{decoder}: exact densities sum to {total!r}, not 1")
    return problems


# --- circuit-n160: build, write and simulate the greedy circuit ------------

def _circuit_op(dq, inp, scratch):
    x, _ = dq.reduce_instance(dq.encode_icc(inp.inst), inp.inst)
    graph = dq.build_graph(x)
    paths = dq.build_path_list(graph)
    cost = dq.gate_cost(paths)
    gates = dq.emit_circuit(paths, graph)
    dq.write_circuit(gates, scratch)
    zeros = (0,) * x.m
    runs = []
    for y, syn in inp.batch:
        restored, _, error_reg = dq.simulate_circuit(gates, zeros, syn)
        runs.append((restored, error_reg, dq.greedy_decode(paths, x, y).decoded_error))
    return cost, gates, runs, scratch


def _circuit_capture(out):
    cost, gates, runs, scratch = out
    ccx = sum(1 for g in gates.gates if g[0] == "CCX")
    with open(scratch, "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return {
        "leading": cost.leading_order,
        "ccx": cost.ccx,
        "cx": cost.cx,
        "ccx_gates": ccx,
        "cx_gates": sum(1 for g in gates.gates if g[0] == "CX"),
        "file_lines": lines,
        "runs": runs,
    }


def _circuit_inputs(inputs, seed):
    rng = _rng("circuit-batch", seed)
    for inp in inputs:
        case = inp.case
        l = default_degree(case.n, case.m)
        for _ in range(CIRCUIT_BATCH):
            y = np.zeros(case.m, dtype=np.int64)
            y[rng.choice(case.m, size=l, replace=False)] = 1
            y = tuple(int(b) for b in y)
            inp.batch.append((y, checks.syndrome_bits(case.n, case.rows, y)))


PIPELINE = frozenset(
    {"encode_icc", "reduce_instance", "build_graph", "build_path_list",
     "enumerate_optima", "dicke_weights"}
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-n14",
            n_cars=14,
            m=25,
            pool=6,
            expected=PIPELINE | {"code_distance", "failure_profile_exact", "greedy_decode",
                                 "min_length_decode", "p_opt_exact"},
            op=lambda dq, inp, scratch: dq.compare_decoders(inp.inst),
            capture=_rows,
            check=_exact_check,
            run_check=density_normalization,
        ),
        Workload(
            name="approx-n24",
            n_cars=24,
            m=45,
            pool=3,
            expected=PIPELINE | {"code_distance", "failure_profile_mc", "sample_shell_error",
                                 "greedy_decode", "p_opt_approx"},
            op=lambda dq, inp, scratch: [dq.run_pipeline(inp.inst, decoder="greedy", mode="approx")],
            capture=_rows,
            check=lambda dq, rows, inp: checks.check_row(rows[0], inp.case, "greedy", "approx"),
        ),
        Workload(
            name="circuit-n160",
            n_cars=160,
            m=317,
            pool=6,
            expected=frozenset(
                {"encode_icc", "reduce_instance", "build_graph", "build_path_list",
                 "emit_circuit", "write_circuit", "simulate_circuit", "greedy_decode"}
            ),
            op=_circuit_op,
            capture=_circuit_capture,
            check=lambda dq, summary, inp: checks.check_circuit(summary, inp.batch, inp.case),
            prepare=_circuit_inputs,
        ),
    )
}


def setup(dq, workload: Workload, seed: int) -> list[Input]:
    inputs = draw_inputs(dq, workload.name, workload.n_cars, workload.m, workload.pool, seed)
    if workload.prepare is not None:
        workload.prepare(inputs, seed)
    return inputs
