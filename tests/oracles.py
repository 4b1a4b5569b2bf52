"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results from first principles (exhaustive
enumeration, direct definitions) without touching the library's own
algorithmic paths, so tests can compare the two routes.
"""
from __future__ import annotations

from collections import deque
from itertools import combinations, product

import numpy as np

from dqi_bench import BpspInstance, CapacityError, Coloring, XorsatInstance, paint_swaps


def induced_coloring(inst: BpspInstance, car_bits) -> Coloring:
    """Expand per-car initial colors into a position coloring."""
    seen = set()
    bits = []
    for car in inst.sequence:
        first = car not in seen
        seen.add(car)
        bits.append(car_bits[car - 1] if first else car_bits[car - 1] ^ 1)
    return Coloring(bits=tuple(bits))


def min_swaps_bruteforce(inst: BpspInstance) -> int:
    """Minimum swap count over every feasible coloring (2^N car colors)."""
    best = None
    for car_bits in product((0, 1), repeat=inst.n_cars):
        swaps, feasible = paint_swaps(inst, induced_coloring(inst, car_bits))
        assert feasible
        if best is None or swaps < best:
            best = swaps
    return best


def satisfied_direct(x: XorsatInstance, assign) -> int:
    """Definitional satisfied-row count via an independent loop."""
    count = 0
    for (a, b), v in zip(x.rows, x.targets):
        if (assign[a - 1] + assign[b - 1]) % 2 == v:
            count += 1
    return count


def enumerate_optima_scan(
    x: XorsatInstance, cap_vars: int = 26
) -> tuple[list[tuple[int, ...]], int]:
    """All assignments maximizing the satisfied-row count, plus that count.

    Exhaustive scan over 2^n assignments, vectorized in chunks; variable j
    maps to bit j-1 of the assignment index.  Refuses to run above
    ``cap_vars`` variables rather than silently sampling.
    """
    n = x.n_vars
    if n > cap_vars:
        raise CapacityError(f"optimum enumeration capped at {cap_vars} variables, got {n}")
    if x.m == 0:
        return [tuple((i >> j) & 1 for j in range(n)) for i in range(1 << n)], 0
    size = 1 << n
    chunk = 1 << 22
    best = -1
    picked: list[np.ndarray] = []
    for start in range(0, size, chunk):
        idx = np.arange(start, min(start + chunk, size), dtype=np.uint32)
        counts = np.zeros(len(idx), dtype=np.int32)
        for (a, b), v in zip(x.rows, x.targets):
            bits = ((idx >> np.uint32(a - 1)) ^ (idx >> np.uint32(b - 1))) & np.uint32(1)
            counts += bits == v
        top = int(counts.max())
        if top > best:
            best = top
            picked = [idx[counts == top]]
        elif top == best:
            picked.append(idx[counts == top])
    indices = np.concatenate(picked)
    assignments = [
        tuple(int((int(i) >> j) & 1) for j in range(n)) for i in indices
    ]
    return assignments, best


def code_distance_bruteforce(x: XorsatInstance, cap: int = 12):
    """Smallest weight of a nonzero zero-syndrome error, by weight enumeration."""
    for w in range(1, min(cap, x.m) + 1):
        for pos in combinations(range(x.m), w):
            out = [0] * x.n_vars
            for j in pos:
                a, b = x.rows[j]
                out[a - 1] ^= 1
                out[b - 1] ^= 1
            if not any(out):
                return w
    return None


def bfs_distance(adjacency: dict[int, set[int]], source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def graph_adjacency(x: XorsatInstance) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(1, x.n_vars + 1)}
    for a, b in x.rows:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def matchings_bruteforce(verts: tuple[int, ...], dist) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """All perfect matchings of an even vertex set with their total weights."""
    if not verts:
        return [(0, ())]
    first, rest = verts[0], verts[1:]
    out = []
    for i, partner in enumerate(rest):
        pair = (first, partner)
        remaining = rest[:i] + rest[i + 1 :]
        for weight, pairs in matchings_bruteforce(remaining, dist):
            out.append((weight + dist[(min(pair), max(pair))], (pair,) + pairs))
    return out


def shell_sum_bruteforce(x: XorsatInstance, assign, k: int) -> int:
    """Sum over all weight-k errors of the product of row signs under ``assign``."""
    signs = [
        1 if (assign[a - 1] ^ assign[b - 1]) == v else -1
        for (a, b), v in zip(x.rows, x.targets)
    ]
    total = 0
    for pos in combinations(range(x.m), k):
        term = 1
        for j in pos:
            term *= signs[j]
        total += term
    return total


def lp_optimum_bruteforce(lp_text: str, n_vars: int) -> int:
    """Best objective of an exported LP, by enumerating the x variables.

    Parses only the restricted shape this package writes: an objective of
    z-terms and four-row blocks linearizing each z against two x
    variables.  For each x assignment the tightest feasible z_j is its
    parity indicator, so the optimum is max over x of the satisfied count.
    """
    lines = [ln.strip() for ln in lp_text.splitlines()]
    constraints = []
    for ln in lines:
        if not ln or ln[0] not in "c":
            continue
        name, rest = ln.split(":", 1)
        body, bound = rest.replace("<=", "|<=|").replace(">=", "|>=|").split("|", 1)
        sense, value = bound.split("|")
        constraints.append((body.strip(), sense, int(value)))
    z_names = sorted(
        {tok for body, _, _ in constraints for tok in body.replace("+", " ").replace("-", " ").split() if tok.startswith("z")}
    )
    best = None
    for bits in product((0, 1), repeat=n_vars):
        assign = {f"x{i + 1}": bits[i] for i in range(n_vars)}
        total = 0
        for z in z_names:
            feasible_one = True
            feasible_zero = True
            for body, sense, value in constraints:
                if z not in body.split():
                    continue
                for z_val, flag in ((1, "one"), (0, "zero")):
                    lhs = _eval_linear(body, {**assign, z: z_val})
                    ok = lhs <= value if sense == "<=" else lhs >= value
                    if not ok:
                        if flag == "one":
                            feasible_one = False
                        else:
                            feasible_zero = False
            if feasible_one:
                total += 1
            elif not feasible_zero:
                raise AssertionError(f"no feasible value for {z}")
        if best is None or total > best:
            best = total
    return best


def _eval_linear(body: str, values: dict[str, int]) -> int:
    total = 0
    sign = 1
    for tok in body.split():
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        else:
            total += sign * values[tok]
            sign = 1
    return total


def parse_lp(text, n_vars, m):
    """Read back the restricted LP shape this package writes as MILP arrays.

    Returns the objective, the constraint matrix and its lower and upper
    bounds, with x1..xn first and z1..zm after them.
    """
    names = {f"x{i + 1}": i for i in range(n_vars)}
    names.update({f"z{j + 1}": n_vars + j for j in range(m)})
    c = np.zeros(len(names))
    rows, lower, upper = [], [], []
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if line in ("Maximize", "Subject To", "Binary", "End"):
            section = line
            continue
        if section == "Maximize":
            for token in line.split(":", 1)[1].split():
                if token in names:
                    c[names[token]] = 1.0
        elif section == "Subject To":
            body, sense, bound = None, None, None
            for op in ("<=", ">="):
                if op in line:
                    body, bound = line.split(":", 1)[1].split(op)
                    sense = op
                    break
            coeffs = np.zeros(len(names))
            sign = 1.0
            for token in body.split():
                if token == "+":
                    sign = 1.0
                elif token == "-":
                    sign = -1.0
                else:
                    coeffs[names[token]] = sign
                    sign = 1.0
            rows.append(coeffs)
            if sense == "<=":
                lower.append(-np.inf)
                upper.append(float(bound))
            else:
                lower.append(float(bound))
                upper.append(np.inf)
    return c, np.array(rows), np.array(lower), np.array(upper)
