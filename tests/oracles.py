"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results from first principles (exhaustive
enumeration, direct definitions) without touching the library's own
algorithmic paths, so tests can compare the two routes.
"""
from __future__ import annotations

from collections import deque
from itertools import combinations, product
from math import comb, sqrt

import numpy as np
from hypothesis import strategies as st

from dqi_bench import (
    BpspInstance,
    CapacityError,
    Coloring,
    DecodeOutcome,
    DickeWeights,
    FailureProfile,
    GateList,
    PathList,
    ValidationError,
    XorsatInstance,
    build_graph,
    build_path_list,
    paint_swaps,
    syndrome,
)
from dqi_bench.decoder import ConstraintGraph, PathEntry, Program, pack_rows
from dqi_bench.dqi import (
    _CHANGE_TOL,
    _RESIDUAL_TOL,
    DEFAULT_SAMPLES,
    POWER_ITERATION_CAP,
    _check_weights_profile,
    normalization,
)


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


@st.composite
def parity_systems(draw):
    """Random two-variable systems: parallel rows with either target, isolated
    variables and several components all occur."""
    n = draw(st.integers(min_value=1, max_value=12))
    if n == 1:
        return XorsatInstance(n_vars=1, rows=(), targets=())
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    rows = draw(st.lists(pair, max_size=3 * n))
    rows += draw(st.sampled_from([[], rows[:2]]))  # repeat some rows, maybe with other targets
    targets = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    return XorsatInstance(n_vars=n, rows=tuple(rows), targets=tuple(targets))


def boundary_system(n_vars, m):
    """A system of ``m`` rows whose components hold up to 8 variables (at least 5), each a path.

    Chords within the components come first, so the paths' last rows sit
    past the errors' word boundaries.
    """
    comps = [range(lo, min(lo + 8, n_vars + 1)) for lo in range(1, n_vars + 1, 8)]
    path = [(v, v + 1) for c in comps for v in c[:-1]]
    chords = []
    for j in range(m - len(path)):
        c, t = comps[j % len(comps)], j // len(comps)
        a = c[0] + t % (len(c) - 4)
        chords.append((a, a + 3 + t // (len(c) - 4) % 2))
    rows = tuple(chords + path)
    return XorsatInstance(n_vars=n_vars, rows=rows, targets=tuple(j % 2 for j in range(m)))


def even_syndromes(component: dict[int, int], max_support: int) -> np.ndarray:
    """Every syndrome even in each component with at most ``max_support`` vertices, grown
    one free bit at a time in binary-tree order.

    ``component`` labels each vertex's component, and rows are bytes laid
    out like the words ``DECODERS`` take.  Every vertex of a component but
    its last is a free bit, set only while the syndrome stays within
    ``max_support``; the last vertex takes the component's parity.
    """
    comps: dict[int, list[int]] = {}
    for v, label in sorted(component.items()):
        comps.setdefault(label, []).append(v - 1)
    rows = np.zeros((1, 8 * (len(component) // 64 + 1)), dtype=np.uint8)
    size = np.zeros(1, dtype=np.intp)
    for verts in comps.values():
        odd = np.zeros(len(rows), dtype=bool)
        for v in verts[:-1]:
            grow = size < max_support
            added = rows[grow]
            added[:, (v + 1) >> 3] |= np.uint8(1 << ((v + 1) & 7))
            rows = np.concatenate([rows, added])
            size = np.concatenate([size, size[grow] + 1])
            odd = np.concatenate([odd, ~odd[grow]])
        last = verts[-1] + 1
        rows[odd, last >> 3] |= np.uint8(1 << (last & 7))
        size += odd
        keep = size <= max_support
        rows, size = rows[keep], size[keep]
    return rows


def syndrome_words(syn) -> np.ndarray:
    """A (batch, n_vars) 0/1 array of syndromes as the words ``DECODERS`` take: vertex v is bit v."""
    return pack_rows(np.insert(np.asarray(syn, dtype=np.uint8), 0, 0, axis=1))


def error_bits(words: np.ndarray, m: int) -> np.ndarray:
    """The (batch, m) 0/1 array of the packed errors ``DECODERS`` return."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, count=m, bitorder="little")


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


def build_path_list_sorted(g: ConstraintGraph) -> PathList:
    """The path list built entry by entry and sorted on a key, as the library first built it.

    In the BFS tree of target v every vertex steps to its smallest neighbour
    one hop closer to v; the entries are sorted by (length, u, v).
    """
    entries = []
    for v in range(1, g.n_vertices + 1):
        dist = bfs_distance(g.adjacency, v)
        to_v = {v: ()}
        for w in dist:  # BFS order: every step is settled before its vertex
            if w != v:
                step = next(s for s in g.adjacency[w] if dist[s] < dist[w])
                to_v[w] = (g.pairs[min(w, step), max(w, step)],) + to_v[step]
        entries.extend(PathEntry(u=u, v=v, edges=to_v[u], length=dist[u]) for u in dist if u < v)
    entries.sort(key=lambda e: (e.length, e.u, e.v))
    return PathList(entries, g.component)


def path_lengths(p: PathList) -> dict[tuple[int, int], int]:
    """Graph distance per connected pair (u, v), u < v, read off the stored paths."""
    return {pair: p.entries[i].length for pair, i in p.index.items()}


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


def dicke_weights_loop(m: int, l: int) -> DickeWeights:
    """The per-shell weights by the same shifted power iteration as ``dicke_weights``,
    with ``np.linalg.norm`` and ``np.max`` calls: the reference its trimmed arithmetic
    must equal."""
    if not 0 <= l <= m or m < 1:
        raise ValidationError(f"degree l={l} out of range for m={m}")
    if l == 0:
        return DickeWeights(m=m, l=0, w=(1.0,), lambda_max=0.0)
    a = np.sqrt(np.arange(1.0, l + 1) * (m - np.arange(1.0, l + 1) + 1.0))

    def matvec(vec):
        out = np.zeros_like(vec)
        out[:-1] += a * vec[1:]
        out[1:] += a * vec[:-1]
        return out

    shift = 2.0 * float(a.max()) + 1.0
    w = np.full(l + 1, 1.0 / sqrt(l + 1))
    converged = False
    for _ in range(POWER_ITERATION_CAP):
        w_next = matvec(w) + shift * w
        w_next /= np.linalg.norm(w_next)
        change = float(np.max(np.abs(w_next - w)))
        w = w_next
        if change <= _CHANGE_TOL:
            aw = matvec(w)
            lam = float(w @ aw)
            if float(np.max(np.abs(aw - lam * w))) <= _RESIDUAL_TOL:
                converged = True
                break
    if not converged:
        raise CapacityError(f"power iteration failed to converge for (m={m}, l={l})")
    if w[0] < 0:
        w = -w
    aw = matvec(w)
    lam = float(w @ aw)
    residual = float(np.max(np.abs(aw - lam * w)))
    if residual > 1e-10 or not np.all(w > 0):
        raise CapacityError(
            f"eigenvector quality check failed for (m={m}, l={l}): residual {residual:.2e}"
        )
    return DickeWeights(m=m, l=l, w=tuple(float(v) for v in w), lambda_max=lam)


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


def greedy_decode_sets(p: PathList, x: XorsatInstance, y) -> DecodeOutcome:
    """Scan the ordered path list, flipping each path whose endpoints are both unmatched.

    T starts as the syndrome support.  Paths need not be disjoint, so an
    edge may be flipped several times; on a connected component every pair
    of T-vertices eventually appears, so the scan always empties T.
    """
    y = tuple(int(b) for b in y)
    syn = syndrome(x, y)
    t_set = {v for v, bit in enumerate(syn, start=1) if bit}
    residual = list(y)
    for entry in p.entries:
        if entry.u in t_set and entry.v in t_set:
            for eid in entry.edges:
                residual[eid - 1] ^= 1
            t_set.discard(entry.u)
            t_set.discard(entry.v)
    residual_t = tuple(residual)
    return DecodeOutcome(
        decoded_residual=residual_t,
        success=not any(residual_t),
        decoded_error=tuple(a ^ b for a, b in zip(y, residual_t)),
    )


def simulate_circuit_gates(gl: GateList, y, s) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Apply the gate list gate by gate to classical basis states; returns (syndrome, path, error).

    Reads and range-checks each wire as its gate runs, so it is independent
    of the compiled word program that ``simulate_circuit`` runs.
    """
    y = [int(b) for b in y]
    s = [int(b) for b in s]
    if len(y) != gl.n_error:
        raise ValidationError(f"error register length {len(y)} != {gl.n_error}")
    if len(s) != gl.n_syndrome:
        raise ValidationError(f"syndrome register length {len(s)} != {gl.n_syndrome}")
    regs = {"v": s, "p": [0] * gl.n_path, "e": y}
    sizes = {"v": gl.n_syndrome, "p": gl.n_path, "e": gl.n_error}

    def read(wire):
        reg, i = wire
        if reg not in sizes or not 1 <= i <= sizes[reg]:
            raise ValidationError(f"malformed circuit: wire {reg}:{i} out of range")
        return regs[reg][i - 1]

    for gate in gl.gates:
        kind, *wires = gate
        if kind == "CX" and len(wires) == 2:
            ctrl, tgt = wires
        elif kind == "CCX" and len(wires) == 3:
            *ctrls, tgt = wires
        else:
            raise ValidationError(f"malformed circuit: bad gate {gate!r}")
        read(tgt)  # range-check the target even when controls are off
        if kind == "CX":
            fire = read(ctrl)
        else:
            fire = read(ctrls[0]) and read(ctrls[1])
        if fire:
            regs[tgt[0]][tgt[1] - 1] ^= 1
    return tuple(regs["v"]), tuple(regs["p"]), tuple(regs["e"])


def format_circuit_gates(gl: GateList) -> str:
    """The circuit file text, one f-string per wire of each gate, joined at the end."""
    lines = [
        f"REGISTERS syndrome={gl.n_syndrome} path={gl.n_path} error={gl.n_error}"
    ]
    for gate in gl.gates:
        kind, *wires = gate
        lines.append(" ".join([kind] + [f"{reg}:{i}" for reg, i in wires]))
    return "\n".join(lines) + "\n"


def _checked_gate(gate, index: dict) -> tuple[int, int, int]:
    """The (control 1, control 2, target) words of one gate, or the ValidationError it earns."""
    kind, *wires = gate
    if not (kind == "CX" and len(wires) == 2 or kind == "CCX" and len(wires) == 3):
        raise ValidationError(f"malformed circuit: bad gate {gate!r}")
    words = []
    for reg, i in (wires[-1], *wires[:-1]):  # the target first
        if (reg, i) not in index:
            raise ValidationError(f"malformed circuit: wire {reg}:{i} out of range")
        words.append(index[reg, i])
    t, *ctrls = words
    return ctrls[0], ctrls[-1], t


def compile_gates(gl: GateList) -> Program:
    """Compile ``gl.gates`` tuple by tuple, as the library compiled every gate list before emission
    wrote the columns itself: a fast path per well-formed gate, the full check for anything else."""
    sizes = (("v", gl.n_syndrome), ("p", gl.n_path), ("e", gl.n_error))
    wires = [(reg, i) for reg, size in sizes for i in range(1, size + 1)]
    index = {wire: word for word, wire in enumerate(wires)}
    c1s, c2s, ts, runs, kinds = [], [], [], [], []
    run_c1 = -1  # the open run's controls; -1 when no run is open
    run_c2 = -1
    for gate in gl.gates:
        try:  # the common case; anything unusual gets the full check
            if gate[0] == "CX" and len(gate) == 3:
                c1 = c2 = index[gate[1]]
                t = index[gate[2]]
            elif gate[0] == "CCX" and len(gate) == 4:
                c1, c2, t = index[gate[1]], index[gate[2]], index[gate[3]]
            else:
                c1, c2, t = _checked_gate(gate, index)
        except (KeyError, TypeError, IndexError):
            c1, c2, t = _checked_gate(gate, index)
        if t == c1 or t == c2:  # a run by itself
            runs.append(len(ts))
            run_c1 = -1
        elif c1 != run_c1 or c2 != run_c2:
            runs.append(len(ts))
            run_c1, run_c2 = c1, c2
        c1s.append(c1)
        c2s.append(c2)
        ts.append(t)
        kinds.append(1 if gate[0] == "CX" else 2)  # the number of controls
    runs.append(len(ts))
    return Program(c1s, c2s, ts, runs, bytes(kinds))


def run_program_per_gate(program: Program, words: list[int]) -> None:
    """Apply a compiled program gate by gate, reading both controls for every gate."""
    for c1, c2, t in zip(program.c1, program.c2, program.t):
        words[t] ^= words[c1] & words[c2]


def _min_weight_pairing(verts: tuple[int, ...], dist) -> tuple[tuple[int, int], ...]:
    """Exact minimum-weight perfect matching of an even vertex set.

    Subset dynamic programming, O(2^t * t^2), with a fresh memo per call:
    the lowest unmatched vertex is paired with every candidate partner.
    Among equal-weight matchings the lexicographically smallest pair list
    wins, which pins the decoder's tie-breaking.
    """
    memo: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {0: (0, ())}

    def solve(mask: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        best = None
        sub_mask = rest
        while sub_mask:
            j = (sub_mask & -sub_mask).bit_length() - 1
            sub_mask ^= 1 << j
            a, b = verts[i], verts[j]
            w_sub, pairs = solve(rest ^ (1 << j))
            cand = (w_sub + dist[(a, b)], ((a, b),) + pairs)
            if best is None or cand < best:
                best = cand
        memo[mask] = best
        return best

    return solve((1 << len(verts)) - 1)[1]


def min_length_join(p: PathList, x: XorsatInstance, t) -> tuple[int, ...]:
    """The min-length decoder's error for syndrome bits ``t``: each component's
    vertices of T paired by ``_min_weight_pairing``, flipping the stored path
    of every pair."""
    groups: dict[int, list[int]] = {}
    for v, bit in enumerate(t, start=1):
        if bit:
            groups.setdefault(p.component[v], []).append(v)
    decoded = [0] * x.m
    for verts in groups.values():
        if len(verts) % 2:
            raise ValidationError("odd syndrome parity within a component")
        for a, b in _min_weight_pairing(tuple(verts), path_lengths(p)):
            for eid in p.entries[p.index[(a, b)]].edges:
                decoded[eid - 1] ^= 1
    return tuple(decoded)


def min_length_decode_pairs(p: PathList, x: XorsatInstance, y) -> DecodeOutcome:
    """Decode one error through ``min_length_join`` of its syndrome."""
    y = tuple(int(b) for b in y)
    decoded = min_length_join(p, x, syndrome(x, y))
    residual = tuple(a ^ b for a, b in zip(y, decoded))
    return DecodeOutcome(
        decoded_residual=residual, success=not any(residual), decoded_error=decoded
    )


# the single-error decoders the per-error profiles below run
SCALAR_DECODERS = {"greedy": greedy_decode_sets, "min-length": min_length_decode_pairs}
# errors the per-error exact profile scores at most
LOOP_BUDGET = 10**7


class _SyndromeDecoder:
    """Runs a named decoder with a per-syndrome cache.

    Both decoders choose their edge set from the syndrome alone, so the
    decoded error is cached per distinct syndrome (as a bitmask) and
    repeated shells cost one dictionary lookup per error.
    """

    def __init__(self, decoder: str, x: XorsatInstance, paths: PathList | None = None):
        if decoder not in SCALAR_DECODERS:
            raise ValidationError(f"unknown decoder {decoder!r}")
        self.decoder = decoder
        self.x = x
        self.paths = paths if paths is not None else build_path_list(build_graph(x))
        self.row_masks = [
            (1 << (a - 1)) | (1 << (b - 1)) for a, b in x.rows
        ]
        self._cache: dict[int, int] = {}

    def decoded_error_mask(self, positions) -> int:
        syn = 0
        for j in positions:
            syn ^= self.row_masks[j]
        hit = self._cache.get(syn)
        if hit is None:
            y = [0] * self.x.m
            for j in positions:
                y[j] = 1
            outcome = SCALAR_DECODERS[self.decoder](self.paths, self.x, tuple(y))
            hit = 0
            for i, bit in enumerate(outcome.decoded_error):
                if bit:
                    hit |= 1 << i
            self._cache[syn] = hit
        return hit

    def succeeds(self, positions) -> bool:
        err = 0
        for j in positions:
            err |= 1 << j
        return self.decoded_error_mask(positions) == err


def decoded_sets_loop(
    decoder: str,
    x: XorsatInstance,
    l: int,
    paths: PathList | None = None,
    budget: int = LOOP_BUDGET,
) -> list[np.ndarray]:
    """D_k for every weight k <= l, scoring one enumerated error at a time.

    Each D_k is a (|D_k|, k) int64 array of 0-based positions, rows in
    lexicographic order.
    """
    if not 0 <= l <= x.m:
        raise ValidationError(f"degree l={l} out of range 0..{x.m}")
    total = sum(comb(x.m, k) for k in range(l + 1))
    if total > budget:
        raise CapacityError(
            f"exact profile needs {total} decodes (> budget {budget}); "
            "use the Monte Carlo profile instead"
        )
    runner = _SyndromeDecoder(decoder, x, paths)
    sets = []
    for k in range(l + 1):
        good = [pos for pos in combinations(range(x.m), k) if runner.succeeds(pos)]
        sets.append(np.array(good, dtype=np.int64).reshape(len(good), k))
    return sets


def profile_of_sets(decoder: str, m: int, sets) -> FailureProfile:
    """The exact profile whose D_k are ``sets``, each row packed into uint64 words bit by bit."""
    sizes = [comb(m, k) for k in range(len(sets))]
    words = []
    for d_k in sets:
        packed = np.zeros((len(d_k), -(-m // 64)), dtype=np.uint64)
        for r, row in enumerate(d_k.tolist()):
            for j in row:
                packed[r, j // 64] |= np.uint64(1 << (j % 64))
        words.append(packed)
    return FailureProfile(
        mode="exact",
        decoder=decoder,
        m=m,
        l=len(sets) - 1,
        eps=tuple((size - len(d_k)) / size for size, d_k in zip(sizes, sets)),
        shell_sizes=tuple(sizes),
        decoded_words=tuple(words),
    )


def failure_profile_exact_loop(
    decoder: str,
    x: XorsatInstance,
    l: int,
    paths: PathList | None = None,
    budget: int = LOOP_BUDGET,
) -> FailureProfile:
    """The exact failure profile, scoring one enumerated error at a time."""
    return profile_of_sets(decoder, x.m, decoded_sets_loop(decoder, x, l, paths, budget))


def sample_shell_error_numpy(m: int, k: int, seed: int, draw: int) -> tuple[int, ...]:
    """One deterministic uniform weight-k error, drawn by the installed numpy.

    Each draw owns a generator seeded by (seed, k, draw): the per-draw
    sampler the package replays in ``dqi_bench._stream``.
    """
    rng = np.random.default_rng((seed, k, draw))
    return tuple(sorted(int(j) for j in rng.choice(m, size=k, replace=False)))


def failure_profile_mc_loop(
    decoder: str,
    x: XorsatInstance,
    l: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    paths: PathList | None = None,
) -> FailureProfile:
    """The Monte Carlo failure profile, scoring one enumerated or drawn error at a time."""
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    if not 0 <= l <= x.m:
        raise ValidationError(f"degree l={l} out of range 0..{x.m}")
    runner = _SyndromeDecoder(decoder, x, paths)
    eps = []
    sizes = []
    for k in range(l + 1):
        size = comb(x.m, k)
        sizes.append(size)
        if size <= samples:
            fails = sum(
                0 if runner.succeeds(pos) else 1
                for pos in combinations(range(x.m), k)
            )
            eps.append(fails / size)
        else:
            fails = sum(
                0 if runner.succeeds(sample_shell_error_numpy(x.m, k, seed, i)) else 1
                for i in range(samples)
            )
            eps.append(fails / samples)
    return FailureProfile(
        mode="monte_carlo",
        decoder=decoder,
        m=x.m,
        l=l,
        eps=tuple(eps),
        shell_sizes=tuple(sizes),
        samples_per_shell=samples,
        seed=seed,
    )


def p_exact_rowproduct(
    x: XorsatInstance, assign, weights: DickeWeights, profile: FailureProfile
) -> float:
    """Exact measurement density of one assignment, one row product per D_k row.

    Per shell k the retained errors contribute the signed sum
    sum_{y in D_k} prod_{rows flipped by y} (+1 if the row is satisfied by
    the assignment else -1); the density is the weighted sum of squared
    shell sums over the renormalization and the 2^n uniform factor.
    """
    if profile.mode != "exact" or profile.decoded_sets is None:
        raise ValidationError("exact density needs an exact profile with decoded sets")
    _check_weights_profile(weights, profile, x.m)
    assign = tuple(int(b) for b in assign)
    if len(assign) != x.n_vars:
        raise ValidationError(f"assignment length {len(assign)} != n_vars = {x.n_vars}")
    signs = np.array(
        [
            1.0 if (assign[a - 1] ^ assign[b - 1]) == v else -1.0
            for (a, b), v in zip(x.rows, x.targets)
        ]
    )
    r_norm = normalization(weights, profile)
    total = 0.0
    for k, wk in enumerate(weights.w):
        d_k = profile.decoded_sets[k]
        # rows of d_k index the flipped constraints; an empty row (k = 0)
        # has an empty product, i.e. contributes +1
        inner = float(np.prod(signs[d_k], axis=1).sum())
        total += wk * wk * inner * inner / profile.shell_sizes[k]
    return total / (r_norm * 2.0**x.n_vars)


def amplitude_oracle(
    x: XorsatInstance, weights: DickeWeights, profile: FailureProfile
) -> np.ndarray:
    """Basis-state amplitude magnitudes, built directly from the state definition.

    For each shell the pre-transform syndrome state is accumulated (phase
    (-1)^{targets . y} at basis index syndrome(y)) and pushed through a
    fast Walsh-Hadamard transform; per-shell contributions combine in
    quadrature, matching the per-shell-squared density.  Independent of
    the row products of ``p_exact_rowproduct`` and the parity counts of
    ``p_exact``, this is the oracle used to verify them: squared magnitudes
    must match the density pointwise.
    """
    if profile.mode != "exact" or profile.decoded_sets is None:
        raise ValidationError("amplitude oracle needs an exact profile with decoded sets")
    if x.n_vars > 20:
        raise CapacityError(f"amplitude oracle limited to 20 variables, got {x.n_vars}")
    _check_weights_profile(weights, profile, x.m)
    n = x.n_vars
    size = 1 << n
    row_masks = np.array(
        [(1 << (a - 1)) | (1 << (b - 1)) for a, b in x.rows], dtype=np.int64
    )
    targets = np.array(x.targets, dtype=np.int64)
    r_norm = normalization(weights, profile)
    squared = np.zeros(size)
    for k, wk in enumerate(weights.w):
        d_k = profile.decoded_sets[k]
        syn = np.bitwise_xor.reduce(row_masks[d_k], axis=1)
        parity = np.bitwise_xor.reduce(targets[d_k], axis=1)
        psi = np.zeros(size)
        np.add.at(psi, syn, 1.0 - 2.0 * parity)
        transformed = _walsh_hadamard(psi)
        scale = wk / sqrt(profile.shell_sizes[k] * size)
        squared += (scale * transformed) ** 2
    return np.sqrt(squared / r_norm)


def _walsh_hadamard(vec: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a length-2^n vector."""
    n = len(vec)
    h = 1
    while h < n:
        vec = vec.reshape(n // (2 * h), 2, h)
        top = vec[:, 0, :] + vec[:, 1, :]
        bottom = vec[:, 0, :] - vec[:, 1, :]
        vec = np.stack([top, bottom], axis=1)
        h *= 2
    return vec.reshape(n)
