"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Random draws are seeded from a fixed base so every run sees the same
instances.  Stated wall-clock budgets are asserted; the expected margins
are large.
"""
import time
from itertools import combinations
from math import log

import numpy as np
import pytest

from dqi_bench import (
    BpspInstance,
    build_graph,
    build_path_list,
    code_distance,
    compare_decoders,
    dicke_weights,
    emit_circuit,
    encode_icc,
    enumerate_optima,
    export_lp,
    failure_profile_exact,
    gate_cost,
    generate_instance,
    greedy_decode,
    p_exact,
    p_opt_approx,
    p_opt_exact,
    reduce_instance,
    satisfied_count,
    shell_sum_A,
    simulate_circuit,
    simulate_circuit_batch,
    default_degree,
    sweep_degree,
    syndrome,
    validate_approximation,
)
from dqi_bench.bench import derive_seed
from dqi_bench.decoder import DECODERS, pack_rows
from oracles import amplitude_oracle, parse_lp, shell_sum_bruteforce, syndrome_words

BASE_SEED = 20250808
EX1 = BpspInstance(5, (1, 2, 1, 3, 4, 5, 2, 5, 3, 4))


class Criterion:
    def __init__(self, number, name, budget_s=None):
        self.number = number
        self.name = name
        self.budget_s = budget_s
        self.start = time.perf_counter()

    def finish(self, ok: bool):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance {self.number:02d}] {self.name}: {status} ({elapsed:.2f}s)")
        assert ok, f"criterion {self.number} ({self.name}) failed"
        if self.budget_s is not None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} took {elapsed:.1f}s, budget {self.budget_s}s"
            )


def random_instances(tag, count, n_cars_range, require_rows=True):
    """Deterministic instance stream; optionally skip fully reduced ones."""
    out = []
    i = 0
    while len(out) < count:
        n_cars = n_cars_range[i % len(n_cars_range)]
        inst = generate_instance(n_cars, derive_seed(BASE_SEED, tag, i))
        i += 1
        x, record = reduce_instance(encode_icc(inst), inst)
        if require_rows and x.m == 0:
            continue
        out.append((inst, x, record))
    return out


def to_matrix(x):
    rows = []
    for (a, b) in x.rows:
        row = [0] * x.n_vars
        row[a - 1] = 1
        row[b - 1] = 1
        rows.append(row)
    return rows


def test_criterion_01_worked_example_fidelity():
    crit = Criterion(1, "worked-example fidelity", budget_s=1.0)
    x = encode_icc(EX1)
    expected_b = [
        [1, 1, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [1, 0, 1, 0, 0],
        [0, 0, 1, 1, 0],
        [0, 0, 0, 1, 1],
        [0, 1, 0, 0, 1],
        [0, 1, 0, 0, 1],
        [0, 0, 1, 0, 1],
        [0, 0, 1, 1, 0],
    ]
    ok = to_matrix(x) == expected_b
    ok = ok and x.targets == (0, 1, 1, 0, 0, 1, 0, 0, 0)

    reduced, record = reduce_instance(x, EX1)
    ok = ok and to_matrix(reduced) == [
        [1, 1, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 1, 1],
        [0, 1, 0, 1],
        [0, 1, 1, 0],
    ]
    ok = ok and reduced.targets == (1, 0, 0, 0, 0)
    ok = ok and record.removed_constraints == frozenset({1, 2, 6, 7})

    paths = build_path_list(build_graph(reduced))
    ok = ok and [e.edges for e in paths.entries] == [
        (1,), (2,), (4,), (3,), (1, 2), (1, 4),
    ]
    ok = ok and code_distance(x) == 2 and code_distance(reduced) == 2
    crit.finish(ok)


def test_criterion_02_normalization_and_oracle():
    crit = Criterion(2, "normalization and amplitude oracle", budget_s=60.0)
    ok = True
    for inst, x, _ in random_instances("norm", 20, range(2, 9)):
        degree = min(default_degree(x.n_vars, x.m), 4)
        profile = failure_profile_exact("greedy", x, degree)
        weights = dicke_weights(x.m, degree)
        amp = amplitude_oracle(x, weights, profile)
        total = 0.0
        for idx in range(1 << x.n_vars):
            bits = tuple((idx >> j) & 1 for j in range(x.n_vars))
            value = p_exact(x, bits, weights, profile)
            total += value
            ok = ok and abs(value - float(amp[idx]) ** 2) <= 1e-12
        ok = ok and abs(total - 1.0) <= 1e-9
    crit.finish(ok)


def test_criterion_03_circuit_reproduces_greedy():
    crit = Criterion(3, "circuit equals greedy decoder", budget_s=120.0)
    ok = True
    for inst, x, _ in random_instances("circ", 10, range(2, 9)):
        graph = build_graph(x)
        paths = build_path_list(graph)
        gates = emit_circuit(paths, graph)
        for k in range(0, 4):
            for pos in combinations(range(x.m), k):
                y = tuple(1 if j in pos else 0 for j in range(x.m))
                s = syndrome(x, y)
                v_reg, _, e_reg = simulate_circuit(gates, y, s)
                ok = ok and e_reg == greedy_decode(paths, x, y).decoded_residual
                ok = ok and v_reg == s
        if not ok:
            break
    crit.finish(ok)


def test_criterion_03_circuit_decodes_whole_shells_in_one_batch():
    crit = Criterion(3, "circuit equals greedy decoder on whole shells", budget_s=60.0)
    inst = generate_instance(40, derive_seed(BASE_SEED, "circ-shells"))
    x, _ = reduce_instance(encode_icc(inst), inst)
    graph = build_graph(x)
    paths = build_path_list(graph)
    gates = emit_circuit(paths, graph)
    errors = np.zeros((1 + x.m + x.m * (x.m - 1) // 2, x.m), dtype=np.uint8)
    for row, pos in enumerate(p for k in (1, 2) for p in combinations(range(x.m), k)):
        errors[row + 1, list(pos)] = 1
    syndromes = (errors @ np.array(to_matrix(x)) % 2).astype(np.uint8)
    v_reg, _, e_reg = simulate_circuit_batch(gates, errors, syndromes)
    ok = x.m >= 60
    ok = ok and np.array_equal(v_reg, syndromes)
    decoded = DECODERS["greedy"](paths, x, syndrome_words(syndromes))
    ok = ok and np.array_equal(pack_rows(e_reg), pack_rows(errors) ^ decoded)
    crit.finish(ok)


def test_criterion_04_shell_sum_identity():
    crit = Criterion(4, "shell-sum closed form", budget_s=60.0)
    ok = True
    rng = np.random.default_rng(derive_seed(BASE_SEED, "shell"))
    picked = 0
    i = 0
    while picked < 10:
        inst = generate_instance(2 + i % 5, derive_seed(BASE_SEED, "shellinst", i))
        i += 1
        x, _ = reduce_instance(encode_icc(inst), inst)
        if not 1 <= x.m <= 12:
            continue
        picked += 1
        for _ in range(50):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=x.n_vars))
            s = satisfied_count(x, bits)
            for k in range(x.m + 1):
                if shell_sum_bruteforce(x, bits, k) != shell_sum_A(k, s, x.m):
                    ok = False
    crit.finish(ok)


def test_criterion_05_eigenvector_grid():
    crit = Criterion(5, "principal eigenvector grid", budget_s=10.0)
    ok = True
    for m in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 120, 144, 160):
        for l in (1, 2, 3, 5, 8, 13, 21, 34, 48, 64):
            if l > m:
                continue
            dw = dicke_weights(m, l)
            w = np.array(dw.w)
            offdiag = np.sqrt(np.arange(1.0, l + 1) * (m - np.arange(1.0, l + 1) + 1.0))
            full = np.diag(offdiag, 1) + np.diag(offdiag, -1)
            residual = np.max(np.abs(full @ w - dw.lambda_max * w))
            ok = ok and residual <= 1e-10
            ok = ok and bool(np.all(w > 0))
            ok = ok and abs(np.linalg.norm(w) - 1.0) <= 1e-12
    crit.finish(ok)


def test_criterion_06_exact_worked_numbers():
    crit = Criterion(6, "worked numbers recomputed by brute force")
    x, record = reduce_instance(encode_icc(EX1), EX1)
    graph = build_graph(x)
    paths = build_path_list(graph)

    # brute-force failure rate: decode all five weight-1 errors
    fails = sum(
        0 if greedy_decode(paths, x, tuple(1 if j == i else 0 for j in range(5))).success else 1
        for i in range(5)
    )
    eps1 = fails / 5
    ok = abs(eps1 - 1 / 5) <= 1e-12

    profile = failure_profile_exact("greedy", x, 1, paths=paths)
    ok = ok and abs(profile.eps[1] - eps1) <= 1e-12

    # brute-force optima and the oracle-summed optimum probability
    optima, s_opt = enumerate_optima(x)
    weights = dicke_weights(x.m, 1)
    amp = amplitude_oracle(x, weights, profile)
    p_opt_oracle = sum(
        float(amp[sum(b << j for j, b in enumerate(bits))]) ** 2 for bits in optima
    )
    ok = ok and abs(p_opt_oracle - 7 / 24) <= 1e-12

    # leading-order cost recounted straight off the emitted circuit
    gates = emit_circuit(paths, graph)
    leading = sum(1 for g in gates.gates if g[0] == "CX" and g[2][0] == "e")
    ok = ok and leading == 8 and gate_cost(paths).leading_order == 8

    est = p_opt_exact(x, optima, weights, profile, c_dqi=float(leading))
    ok = ok and abs(est.p_opt - 7 / 24) <= 1e-12
    ok = ok and abs(est.c_opt - 24 / 7) <= 1e-12
    ok = ok and abs(est.c_total - 192 / 7) <= 1e-12
    crit.finish(ok)


def test_criterion_07_s_equals_m_collapse():
    crit = Criterion(7, "s = m collapse of the approximation")
    ok = True
    matched = 0
    for inst, x, _ in random_instances("collapse", 50, range(2, 11)):
        optima, s_opt = enumerate_optima(x)
        if s_opt != x.m:
            continue
        matched += 1
        degree = default_degree(x.n_vars, x.m)
        profile = failure_profile_exact("greedy", x, degree)
        weights = dicke_weights(x.m, degree)
        exact = p_opt_exact(x, optima, weights, profile, c_dqi=1.0).p_opt
        approx = p_opt_approx(
            len(optima), s_opt, weights, profile, x.n_vars, c_dqi=1.0
        ).p_opt
        ok = ok and abs(exact - approx) <= 1e-12
    ok = ok and matched >= 5  # the filter must actually bite
    crit.finish(ok)


def test_criterion_08_approximation_validation():
    crit = Criterion(8, "approximate vs exact pipelines", budget_s=600.0)
    rows, aggregates, flagged = validate_approximation(
        [5, 7, 9], instances_per_n=10, seed=derive_seed(BASE_SEED, "fig1"), samples=2000
    )
    geo = {a["n_cars"]: a["mean"] for a in aggregates if a["metric"] == "geomean_p_ratio"}
    ok = set(geo) == {5, 7, 9}
    for value in geo.values():
        ok = ok and 0.2 <= value <= 1.5
    # the report must flag (and only flag) ratios outside [0.05, 3]
    for item in flagged:
        ok = ok and not 0.05 <= item["ratio"] <= 3.0
    ok = ok and len(rows) == 60
    crit.finish(ok)


def test_criterion_09_code_distance_constancy():
    crit = Criterion(9, "code distance stays small", budget_s=300.0)
    medians = {}
    for n_cars in (50, 100):
        values = []
        for i in range(50):
            inst = generate_instance(n_cars, derive_seed(BASE_SEED, "dist", n_cars, i))
            x, _ = reduce_instance(encode_icc(inst), inst)
            d = code_distance(x, cap=12)
            values.append(13 if d is None else d)  # beyond-cap counts as large
        medians[n_cars] = float(np.median(values))
    ok = medians[50] <= 6 and medians[100] <= 6
    ok = ok and medians[100] <= medians[50] + 2
    crit.finish(ok)


def test_criterion_10_decoder_comparison():
    crit = Criterion(10, "minimum-length never much worse", budget_s=600.0)
    eps_by_k = {"greedy": {}, "min-length": {}}
    min_l = None
    for i in range(10):
        inst = generate_instance(10, derive_seed(BASE_SEED, "cmp", i))
        rows = compare_decoders(inst, l=None, samples=None, seed=i)
        min_l = rows[0]["l"] if min_l is None else min(min_l, rows[0]["l"])
        for row in rows:
            for k, eps in enumerate(row["eps"]):
                eps_by_k[row["decoder"]].setdefault(k, []).append(eps)
    ok = min_l >= 1
    for k in range(min_l + 1):
        greedy_mean = np.mean(eps_by_k["greedy"][k][: 10])
        minlen_mean = np.mean(eps_by_k["min-length"][k][: 10])
        ok = ok and minlen_mean <= greedy_mean + 0.02
    crit.finish(ok)


def test_criterion_11_gate_count_scaling():
    crit = Criterion(11, "leading-order cost scaling", budget_s=120.0)
    xs = []
    ys = []
    for n_cars in (10, 20, 40, 80):
        for i in range(10):
            inst = generate_instance(n_cars, derive_seed(BASE_SEED, "scale", n_cars, i))
            x, _ = reduce_instance(encode_icc(inst), inst)
            paths = build_path_list(build_graph(x))
            xs.append(log(x.n_vars))
            ys.append(log(gate_cost(paths).leading_order))
    slope = float(np.polyfit(xs, ys, 1)[0])
    print(f"  measured scaling exponent: {slope:.3f}")
    crit.finish(1.8 <= slope <= 3.0)


def test_criterion_12_degree_sweep():
    crit = Criterion(12, "optimal degree tracks 2n/5", budget_s=900.0)
    stars = {"greedy": [], "min-length": []}
    two_fifths = []
    for i in range(10):
        inst = generate_instance(10, derive_seed(BASE_SEED, "sweep", i))
        x, _ = reduce_instance(encode_icc(inst), inst)
        two_fifths.append((2 * x.n_vars) // 5)
        for decoder in ("greedy", "min-length"):
            l_star, _ = sweep_degree(
                inst, decoder=decoder, profile_source="mc", samples=2000, seed=i
            )
            stars[decoder].append(l_star)
    mean_star = float(np.mean(stars["greedy"]))
    mean_rule = float(np.mean(two_fifths))
    agreement = np.mean(
        [a == b for a, b in zip(stars["greedy"], stars["min-length"])]
    )
    print(
        f"  mean l*: {mean_star:.2f}, rule 2n/5: {mean_rule:.2f}, "
        f"decoder agreement: {agreement:.0%}"
    )
    ok = mean_rule - 2 <= mean_star <= mean_rule + 2
    ok = ok and agreement >= 0.7
    crit.finish(ok)


def test_lp_export_roundtrip(tmp_path):
    """External-solver cross-check of the LP export, skipped without a solver."""
    milp = pytest.importorskip("scipy.optimize", reason="no MILP solver available").milp
    from scipy.optimize import Bounds, LinearConstraint

    checked = 0
    for inst, x, _ in random_instances("lp", 5, range(3, 13)):
        path = tmp_path / f"inst{checked}.lp"
        export_lp(x, path)
        c, a_mat, lower, upper = parse_lp(path.read_text(), x.n_vars, x.m)
        result = milp(
            c=-c,
            constraints=LinearConstraint(a_mat, lower, upper),
            integrality=np.ones(len(c)),
            bounds=Bounds(0, 1),
        )
        assert result.success
        _, s_opt = enumerate_optima(x)
        assert round(-result.fun) == s_opt
        checked += 1
    print(f"[acceptance lp] export round-trip via external solver: PASS ({checked} instances)")
