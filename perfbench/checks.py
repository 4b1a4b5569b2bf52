"""Independent checks of the program's outputs.

Nothing here calls into ``dqi_bench``: every expected value is computed
again from the car sequence or the reduced parity rows, with other
algorithms than the program's (an integer program for the paint-shop
optimum, ``numpy.linalg.eigh`` for the shell weights, Krawtchouk sums for
the shell sums, plain BFS for components and distances).  Each check
returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import comb, isclose

import numpy as np

REL_TOL = 1e-9


@dataclass
class Case:
    """One workload instance as the checks see it.

    ``rows``/``targets`` are the reduced parity system the program built in
    set-up; the integer-program optimum on the raw ``sequence`` cross-checks
    that reduction through the forced-swap offset.
    """

    sequence: tuple[int, ...]
    n: int
    rows: tuple[tuple[int, int], ...]
    targets: tuple[int, ...]
    forced_swaps: int
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def m(self) -> int:
        return len(self.rows)

    def memo(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


def min_swaps(sequence) -> int:
    """Fewest colour changes of a paint-shop sequence, as a 0/1 program (HiGHS).

    One bit per position, the two positions of a car take opposite bits,
    and z_j >= |b_j - b_{j+1}| counts a change between neighbours.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    size = len(sequence)
    n_var = size + size - 1
    cost = np.concatenate([np.zeros(size), np.ones(size - 1)])
    a = []
    lo = []
    hi = []
    first: dict[int, int] = {}
    for pos, car in enumerate(sequence):
        if car in first:
            row = np.zeros(n_var)
            row[first[car]] = row[pos] = 1.0
            a.append(row)
            lo.append(1.0)
            hi.append(1.0)
        else:
            first[car] = pos
    for j in range(size - 1):
        for sign in (1.0, -1.0):
            row = np.zeros(n_var)
            row[j], row[j + 1], row[size + j] = sign, -sign, -1.0
            a.append(row)
            lo.append(-np.inf)
            hi.append(0.0)
    res = milp(
        cost,
        constraints=LinearConstraint(np.array(a), lo, hi),
        integrality=np.ones(n_var),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"integer program failed: {res.message}")
    return int(round(res.fun))


def _adjacency(n, rows):
    adj = {v: set() for v in range(1, n + 1)}
    for a, b in rows:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _bfs(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def components(n, rows) -> list[set[int]]:
    adj = _adjacency(n, rows)
    seen: set[int] = set()
    out = []
    for v in range(1, n + 1):
        if v not in seen:
            comp = set(_bfs(adj, v))
            seen |= comp
            out.append(comp)
    return out


def distance_sum(n, rows) -> int:
    """Sum of BFS distances over all connected unordered vertex pairs."""
    adj = _adjacency(n, rows)
    return sum(d for v in range(1, n + 1) for d in _bfs(adj, v).values()) // 2


def eps1(rows) -> float:
    """Share of rows that repeat an earlier row's endpoints.

    A weight-1 error on row j has the syndrome of its two endpoints; both
    decoders answer with the lowest-index row of that parallel class.
    """
    seen = set()
    repeats = 0
    for a, b in rows:
        key = (min(a, b), max(a, b))
        repeats += key in seen
        seen.add(key)
    return repeats / len(rows)


def shell_weights(m, l) -> np.ndarray:
    """Principal eigenvector of the tridiagonal with off-diagonal sqrt(k(m-k+1))."""
    k = np.arange(1, l + 1, dtype=float)
    mat = np.diag(np.sqrt(k * (m - k + 1.0)), 1)
    _, vecs = np.linalg.eigh(mat + mat.T)
    w = vecs[:, -1]
    return w if w[0] > 0 else -w


def krawtchouk(k, s, m) -> int:
    return sum((-1) ** i * comb(m - s, i) * comb(s, k - i) for i in range(k + 1))


def p_opt_closed_form(n_opt, s_opt, eps, n, m, l) -> float:
    """|S_opt| times the approximate density at s_opt, from first principles."""
    w2 = shell_weights(m, l) ** 2
    keep = [1.0 - e for e in eps[: l + 1]]
    norm = sum(w2[k] * keep[k] for k in range(l + 1))
    total = sum(
        w2[k] * keep[k] ** 2 * (krawtchouk(k, s_opt, m) ** 2 / comb(m, k))
        for k in range(l + 1)
    )
    return float(n_opt * total / (norm * 2.0**n))


def _expect(problems, ok, message):
    if not ok:
        problems.append(message)


def check_eps(eps, case: Case, label: str) -> list[str]:
    problems = []
    _expect(problems, eps[0] == 0.0, f"{label}: eps_0 = {eps[0]} != 0")
    _expect(problems, all(0.0 <= e <= 1.0 for e in eps), f"{label}: eps outside [0, 1]")
    if len(eps) > 1:
        want = case.memo("eps1", lambda: eps1(case.rows))
        _expect(
            problems,
            isclose(eps[1], want, rel_tol=REL_TOL, abs_tol=1e-15),
            f"{label}: eps_1 = {eps[1]} != parallel-row share {want}",
        )
    return problems


def check_optimum(s_opt, n_opt, case: Case, label: str) -> list[str]:
    problems = []
    swaps = case.memo("min_swaps", lambda: min_swaps(case.sequence))
    _expect(
        problems,
        case.m - s_opt + case.forced_swaps == swaps,
        f"{label}: m - s_opt + forced = {case.m - s_opt + case.forced_swaps} != min swaps {swaps}",
    )
    c = len(case.memo("components", lambda: components(case.n, case.rows)))
    _expect(
        problems,
        n_opt >= 1 and n_opt % (1 << c) == 0,
        f"{label}: n_opt = {n_opt} is not a multiple of 2^{c}",
    )
    return problems


def check_row(row, case: Case, decoder: str, mode: str) -> list[str]:
    """A ``run_pipeline`` report row: optimum, profile, cost chain, approx density."""
    label = f"{decoder}/{mode}"
    problems = []
    _expect(
        problems,
        (row["n"], row["m"], row["decoder"], row["mode"]) == (case.n, case.m, decoder, mode),
        f"{label}: row describes n={row['n']} m={row['m']} {row['decoder']}/{row['mode']}",
    )
    problems += check_optimum(row["s_opt"], row["n_opt"], case, label)
    problems += check_eps(row["eps"], case, label)
    if decoder == "greedy":
        want_c_dqi = float(case.memo("distance_sum", lambda: distance_sum(case.n, case.rows)))
    else:
        want_c_dqi = float(case.n) ** 4
    p = row["p_opt"]
    _expect(problems, row["c_dqi"] == want_c_dqi, f"{label}: c_dqi {row['c_dqi']} != {want_c_dqi}")
    _expect(problems, 0.0 < p <= 1.0, f"{label}: p_opt {p} outside (0, 1]")
    if 0.0 < p:
        _expect(problems, isclose(row["c_opt"], 1.0 / p, rel_tol=REL_TOL), f"{label}: c_opt != 1/p_opt")
        _expect(
            problems,
            isclose(row["c_total"], want_c_dqi / p, rel_tol=REL_TOL),
            f"{label}: c_total != c_dqi/p_opt",
        )
    if mode == "approx":
        want = p_opt_closed_form(row["n_opt"], row["s_opt"], row["eps"], case.n, case.m, row["l"])
        _expect(
            problems,
            isclose(p, want, rel_tol=REL_TOL),
            f"{label}: p_opt {p!r} != closed form {want!r}",
        )
    return problems


def syndrome_bits(n, rows, y) -> tuple[int, ...]:
    out = [0] * n
    for bit, (a, b) in zip(y, rows):
        if bit:
            out[a - 1] ^= 1
            out[b - 1] ^= 1
    return tuple(out)


def check_circuit(summary: dict, batch, case: Case) -> list[str]:
    """Gate counts, the written file and each simulated syndrome of one build."""
    problems = []
    comps = case.memo("components", lambda: components(case.n, case.rows))
    paths = sum(comb(len(c), 2) for c in comps)
    leading = case.memo("distance_sum", lambda: distance_sum(case.n, case.rows))
    _expect(problems, summary["leading"] == leading, f"leading order {summary['leading']} != {leading}")
    _expect(problems, summary["ccx"] == paths, f"gate_cost ccx {summary['ccx']} != paths {paths}")
    _expect(problems, summary["ccx_gates"] == paths, f"{summary['ccx_gates']} CCX gates != paths {paths}")
    want_cx = leading + 4 * paths
    _expect(problems, summary["cx"] == want_cx, f"gate_cost cx {summary['cx']} != {want_cx}")
    _expect(problems, summary["cx_gates"] == want_cx, f"{summary['cx_gates']} CX gates != {want_cx}")
    _expect(
        problems,
        summary["file_lines"] == 1 + summary["ccx_gates"] + summary["cx_gates"],
        f"circuit file has {summary['file_lines']} lines for {summary['ccx_gates'] + summary['cx_gates']} gates",
    )
    _expect(problems, len(summary["runs"]) == len(batch), "simulated batch size differs")
    for i, ((restored, error_reg, decoded), (_, syn)) in enumerate(zip(summary["runs"], batch)):
        _expect(problems, tuple(restored) == tuple(syn), f"error {i}: syndrome register not restored")
        _expect(problems, tuple(error_reg) == tuple(decoded), f"error {i}: error register != greedy_decode")
        _expect(
            problems,
            syndrome_bits(case.n, case.rows, error_reg) == tuple(syn),
            f"error {i}: error register does not have the input syndrome",
        )
    return problems
