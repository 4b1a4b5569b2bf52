"""End-to-end experiment pipelines and report generation.

Each pipeline takes a paint shop instance through encoding, reduction,
decoding statistics and probability estimates, and emits plain dict rows
that serialize to CSV.  Optima are found exactly by variable elimination
over the (max, +, count) semiring along a min-fill order, which costs
about 2^width per step rather than 2^n; systems whose order is wider than
``WIDTH_CAP`` are refused up front.  An LP export hook is provided for
anyone who wants to cross-check with an external integer-programming
solver.
"""
from __future__ import annotations

import csv
import hashlib
import json
import time
from functools import cached_property
from math import exp, log

import numpy as np

from .decoder import (
    DECODERS,
    ConstraintGraph,
    EvenSets,
    PathList,
    build_graph,
    build_path_list,
    check_matching_capacity,
    code_distance,
    gate_cost,
)
from .dqi import (
    DEFAULT_SAMPLES,
    DickeWeights,
    default_degree,
    dicke_weights,
    exact_syndromes,
    failure_profile_exact,
    failure_profile_mc,
    mc_shells,
    p_opt_approx,
    p_opt_exact,
)
from .encoding import (
    ICC,
    NON_ICC,
    XorsatInstance,
    encode_icc,
    encode_non_icc,
    reduce_instance,
)
from .errors import CapacityError, ValidationError
from .instances import BpspInstance, generate_instance

WIDTH_CAP = 22
LISTING_CAP = 1 << 20
DISTANCE_CAP = 12
DECODER_NAMES = tuple(DECODERS)
REPORT_COLUMNS = [
    "n_cars", "n", "m", "code_distance", "l", "decoder", "mode",
    "p_opt", "c_opt", "c_dqi", "c_total", "eps_json", "seed",
]
AGGREGATE_COLUMNS = ["n_cars", "decoder", "mode", "metric", "mean", "std"]


def instance_digest(inst: BpspInstance) -> str:
    """Stable short hash of the canonical instance JSON, for joining report rows."""
    canon = json.dumps(
        {"n_cars": inst.n_cars, "sequence": list(inst.sequence)},
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def derive_seed(*parts) -> int:
    """Deterministic child seed from integer or string parts (order-sensitive)."""
    entropy = tuple(
        part
        if isinstance(part, int)
        else int.from_bytes(hashlib.sha256(str(part).encode()).digest()[:8], "big")
        for part in parts
    )
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _pair_scores(x: XorsatInstance) -> dict[tuple[int, int], list[int]]:
    """Rows summed per distinct endpoint pair: 0-based (a, b), a < b -> [target-0, target-1] rows."""
    pairs: dict[tuple[int, int], list[int]] = {}
    for (a, b), v in zip(x.rows, x.targets):
        pairs.setdefault((min(a, b) - 1, max(a, b) - 1), [0, 0])[v] += 1
    return pairs


def _elimination_order(n: int, pairs) -> list[int]:
    """Greedy min-fill elimination order of the constraint graph.

    Each step eliminates the variable whose neighbours lack the fewest edges
    among themselves (then the lowest degree, then the lowest index) and joins
    those neighbours.  Refuses, as soon as it is reached, a variable with more
    than ``WIDTH_CAP`` neighbours: its table would hold more than 2^(cap+1) cells.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)

    def fill(v):
        return sum(len(adj[v] - adj[u]) - 1 for u in adj[v])

    remaining = set(range(n))
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (fill(u), len(adj[u]), u))
        if len(adj[v]) > WIDTH_CAP:
            raise CapacityError(
                f"optimum search capped at elimination width {WIDTH_CAP}, "
                f"the min-fill order reaches {len(adj[v])}"
            )
        for u in adj[v]:
            adj[u] |= adj[v]
            adj[u] -= {u, v}
        remaining.remove(v)
        order.append(v)
    return order


def _check_listable(count: int) -> None:
    if count > LISTING_CAP:
        raise CapacityError(f"{count} optimal assignments exceed the listing cap of {LISTING_CAP}")


def enumerate_optima(x: XorsatInstance, order=None) -> tuple[list[tuple[int, ...]], int]:
    """All assignments maximizing the satisfied-row count, plus that count.

    Variable elimination over the (max, +, count) semiring: each distinct
    endpoint pair is one 2x2 table of satisfied rows, and eliminating a
    variable in min-fill order joins the tables that hold it, then keeps for
    every assignment of its neighbours the best score, the number of optimal
    completions and which of its values reach that score.  Backtracking those
    choices lists every optimum.  Optima come sorted by assignment index
    (variable j maps to bit j-1).  Refuses a system over the elimination-width
    cap, a count that would leave int64, and more than ``LISTING_CAP`` optima.
    ``order``, when given, is the system's min-fill order, already built.
    """
    n = x.n_vars
    if x.m == 0:
        _check_listable(1 << n)
        return [tuple((i >> j) & 1 for j in range(n)) for i in range(1 << n)], 0
    pairs = _pair_scores(x)
    if order is None:
        order = _elimination_order(n, pairs)
    # a table is (scope in ascending order, best score, count of optimal completions)
    tables = [
        (key, np.array([[c0, c1], [c1, c0]], dtype=np.int32), np.ones((2, 2), dtype=np.int64))
        for key, (c0, c1) in pairs.items()
    ]
    choices: dict[int, tuple[list[int], np.ndarray]] = {}
    s_opt, count = 0, 1
    for v in order:
        mine = [t for t in tables if v in t[0]]
        tables = [t for t in tables if v not in t[0]]
        scope = sorted({v}.union(*(t[0] for t in mine)))
        bound = 2
        for _, _, counts in mine:
            bound *= int(counts.max())
        if bound >= 1 << 63:
            raise CapacityError(f"optimum count could pass 2^63 at variable {v + 1}")
        score = np.zeros((2,) * len(scope), dtype=np.int32)
        counts = np.ones((2,) * len(scope), dtype=np.int64)
        for key, t_score, t_counts in mine:
            shape = [2 if u in key else 1 for u in scope]
            score += t_score.reshape(shape)
            counts *= t_counts.reshape(shape)
        axis = scope.index(v)
        at = [(slice(None),) * axis + (b,) for b in (0, 1)]
        best = np.maximum(score[at[0]], score[at[1]])
        hit0, hit1 = score[at[0]] == best, score[at[1]] == best
        counts = np.where(hit0, counts[at[0]], 0) + np.where(hit1, counts[at[1]], 0)
        rest = scope[:axis] + scope[axis + 1 :]
        # bit b is set where value b of v reaches the best score
        choices[v] = (rest, (hit0 + 2 * hit1.astype(np.uint8)).ravel())
        if rest:
            tables.append((tuple(rest), best, counts))
        else:  # a component is done: scores add, counts multiply
            s_opt += int(best)
            count *= int(counts)
    _check_listable(count)
    assign = np.zeros((1, n), dtype=np.uint8)
    for v in reversed(order):
        rest, choice = choices[v]
        idx = np.zeros(len(assign), dtype=np.int64)
        for u in rest:
            idx = (idx << 1) | assign[:, u]
        code = choice[idx]
        ones = assign[(code & 2) > 0]
        ones[:, v] = 1
        assign = np.concatenate([assign[(code & 1) > 0], ones])
    assign = assign[np.lexsort(assign.T)]
    return [tuple(row) for row in assign.tolist()], s_opt


def _encode(inst: BpspInstance, encoding: str, reduce: bool):
    if encoding == ICC:
        x = encode_icc(inst)
    elif encoding == NON_ICC:
        x = encode_non_icc(inst)
    else:
        raise ValidationError(f"unknown encoding {encoding!r}")
    if reduce:
        x, record = reduce_instance(x, inst)
    else:
        record = None
    return x, record


class _Instance:
    """One instance, encoded and reduced, and what every decoder's row shares.

    Construction refuses an optimum search over the elimination-width cap
    (``WIDTH_CAP``) before any other work, and the row builders then refuse
    an exact profile over its syndrome budget, or drawn syndromes past the
    min-length decoder's matching capacity, before any row.  The constraint
    graph, the path list, the optimum search and the Dicke weights run on
    first use and only once, and so do the Monte Carlo shells of each
    (degree, samples, seed) and their syndromes, which every decoder scores
    and the matching-capacity check reads, and the
    even-set batches of each exact degree (one ``EvenSets`` per component,
    in the colex order of the min-length pairing tables), which every
    decoder decodes; building them checks their budget, once per degree.
    """

    def __init__(self, inst: BpspInstance, encoding: str, reduce: bool):
        self.inst = inst
        self.x, record = _encode(inst, encoding, reduce)
        self.forced_swaps = record.forced_swaps if record else 0
        self.order = _elimination_order(self.x.n_vars, _pair_scores(self.x))
        self._weights: dict[int, DickeWeights] = {}
        self._shells: dict[tuple[int, int, int], tuple[list[np.ndarray], np.ndarray]] = {}
        self._syndromes: dict[int, list[EvenSets]] = {}

    @cached_property
    def graph(self) -> ConstraintGraph:
        return build_graph(self.x)

    @cached_property
    def paths(self) -> PathList:
        return build_path_list(self.graph)

    @cached_property
    def optima(self) -> tuple[list[tuple[int, ...]], int]:
        return enumerate_optima(self.x, self.order)

    def weights(self, degree: int) -> DickeWeights:
        if degree not in self._weights:
            self._weights[degree] = dicke_weights(self.x.m, degree)
        return self._weights[degree]

    def syndromes(self, l: int) -> list[EvenSets]:
        if l not in self._syndromes:
            self._syndromes[l] = exact_syndromes(self.x, l, self.graph)
        return self._syndromes[l]

    def shells(self, l: int, samples: int, seed: int) -> tuple[list[np.ndarray], np.ndarray]:
        if (l, samples, seed) not in self._shells:
            self._shells[l, samples, seed] = mc_shells(self.x, l, samples, seed)
        return self._shells[l, samples, seed]

    def check_matching_capacity(self, l: int, samples: int, seed: int) -> None:
        """Refuse drawn errors whose syndromes the min-length decoder cannot pair."""
        _, syndromes = self.shells(l, samples, seed)
        check_matching_capacity(syndromes, self.graph.component)

    def profile(self, decoder: str, exact: bool, l: int, samples: int, seed: int):
        if exact:
            return failure_profile_exact(
                decoder, self.x, l, paths=self.paths, batches=self.syndromes(l)
            )
        return failure_profile_mc(
            decoder, self.x, l, samples=samples, seed=seed, paths=self.paths,
            shells=self.shells(l, samples, seed),
        )


def _pipeline_rows(inst, runs, encoding, reduce, l, samples, seed) -> list[dict]:
    """One report row per (decoder, mode) run, all built on one shared instance stage."""
    for decoder, mode in runs:
        if decoder not in DECODER_NAMES:
            raise ValidationError(f"unknown decoder {decoder!r}")
        if mode not in ("exact", "approx"):
            raise ValidationError(f"unknown mode {mode!r}")
    started = time.perf_counter()
    stage = _Instance(inst, encoding, reduce)
    x = stage.x
    degree, dist = 0, ""
    if x.m:
        degree = default_degree(x.n_vars, x.m) if l is None else l
        if not 1 <= degree <= min(x.n_vars, x.m):
            raise ValidationError(
                f"degree {degree} outside 1..min(n={x.n_vars}, m={x.m})"
            )
        if any(mode == "exact" for _, mode in runs):
            stage.syndromes(degree)
        if ("min-length", "approx") in runs:
            stage.check_matching_capacity(degree, samples, seed)
        dist = code_distance(x, cap=DISTANCE_CAP, graph=stage.graph)
        if dist is None:
            dist = f">{DISTANCE_CAP}"
    setup_s = time.perf_counter() - started
    return [
        _decoder_row(stage, decoder, mode, degree, dist, samples, seed, setup_s)
        for decoder, mode in runs
    ]


def _decoder_row(stage, decoder, mode, degree, dist, samples, seed, setup_s) -> dict:
    """The report row of one decoder; its profile is dropped when it returns."""
    started = time.perf_counter()
    x = stage.x
    if x.m == 0:  # fully reduced, empty problem: every coloring is optimal
        n, eps, s_opt, n_opt = 0, [0.0], 0, 1
        p_opt, c_opt, c_dqi, c_total = 1.0, 1.0, 0.0, 0.0
    else:
        profile = stage.profile(decoder, mode == "exact", degree, samples, seed)
        optima, s_opt = stage.optima
        weights = stage.weights(degree)
        if decoder == "greedy":
            c_dqi = float(gate_cost(stage.paths).leading_order)
        else:
            c_dqi = float(x.n_vars) ** 4
        if mode == "exact":
            est = p_opt_exact(x, optima, weights, profile, c_dqi)
        else:
            est = p_opt_approx(len(optima), s_opt, weights, profile, x.n_vars, c_dqi)
        n, eps, n_opt = x.n_vars, list(profile.eps), len(optima)
        p_opt, c_opt, c_dqi, c_total = est.p_opt, est.c_opt, est.c_dqi, est.c_total
    return {
        "digest": instance_digest(stage.inst),
        "n_cars": stage.inst.n_cars,
        "n": n,
        "m": x.m,
        "code_distance": dist,
        "l": degree,
        "decoder": decoder,
        "mode": mode,
        "p_opt": p_opt,
        "c_opt": c_opt,
        "c_dqi": c_dqi,
        "c_total": c_total,
        "eps": eps,
        "seed": seed,
        "s_opt": s_opt,
        "n_opt": n_opt,
        "forced_swaps": stage.forced_swaps,
        "wall_time_s": setup_s + time.perf_counter() - started,
        "trivial": x.m == 0,
    }


def run_pipeline(
    inst: BpspInstance,
    *,
    encoding: str = ICC,
    reduce: bool = True,
    decoder: str = "greedy",
    l: int | None = None,
    mode: str = "exact",
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> dict:
    """Full single-instance benchmark; returns one report row.

    ``mode="exact"`` decodes every syndrome an error up to the degree can
    have and sums the exact density over all optima; ``mode="approx"``
    estimates failure rates by sampling and evaluates the closed-form
    density at the optimal satisfied-count.  The per-run gate cost is the leading-order circuit
    count for the greedy decoder and n^4 for the minimum-length decoder.
    """
    return _pipeline_rows(inst, [(decoder, mode)], encoding, reduce, l, samples, seed)[0]


def sweep_degree(
    inst: BpspInstance,
    decoder: str = "greedy",
    profile_source: str = "mc",
    l_range=None,
    *,
    encoding: str = ICC,
    reduce: bool = True,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> tuple[int, list[tuple[int, float]]]:
    """Approximate optimum probability across polynomial degrees.

    One failure profile is built up to the largest degree and reused for
    the whole series.  Returns the argmax degree (smallest on ties) and
    the per-degree series.  An instance that reduces to an empty problem
    returns (0, []).
    """
    return _sweeps(inst, [decoder], profile_source, l_range, samples, seed, encoding, reduce)[0]


def _sweeps(inst, decoders, profile_source, l_range, samples, seed, encoding=ICC, reduce=True):
    """``sweep_degree`` for each decoder in turn, all on one shared instance stage."""
    if profile_source not in ("exact", "mc"):
        raise ValidationError(f"unknown profile source {profile_source!r}")
    stage = _Instance(inst, encoding, reduce)
    x = stage.x
    if x.m == 0:
        return [(0, []) for _ in decoders]
    bound = min(x.n_vars, x.m)
    if l_range is None:
        l_range = range(1, bound + 1)
    l_values = sorted(set(int(v) for v in l_range))
    if not l_values or l_values[0] < 1 or l_values[-1] > bound:
        raise ValidationError(f"degree range must lie within 1..{bound}")
    if profile_source == "exact":
        stage.syndromes(l_values[-1])
    elif "min-length" in decoders:
        stage.check_matching_capacity(l_values[-1], samples, seed)
    out = []
    for decoder in decoders:
        profile = stage.profile(decoder, profile_source == "exact", l_values[-1], samples, seed)
        optima, s_opt = stage.optima
        series = []
        for degree in l_values:
            est = p_opt_approx(
                len(optima), s_opt, stage.weights(degree), profile, x.n_vars, c_dqi=1.0
            )
            series.append((degree, est.p_opt))
        out.append((max(series, key=lambda pair: (pair[1], -pair[0]))[0], series))
    return out


def compare_decoders(
    inst: BpspInstance,
    l: int | None = None,
    samples: int | None = None,
    seed: int = 0,
    *,
    encoding: str = ICC,
    reduce: bool = True,
) -> list[dict]:
    """Run both decoders on identical inputs and return their paired rows.

    With ``samples=None`` the failure profiles are exact; otherwise both
    decoders score the same sampled error sets (sampling depends only on
    the seed, never on the decoder).  Everything but the profiles and the
    densities runs once for both.
    """
    mode = "exact" if samples is None else "approx"
    samples = DEFAULT_SAMPLES if samples is None else samples
    runs = [(decoder, mode) for decoder in DECODER_NAMES]
    return _pipeline_rows(inst, runs, encoding, reduce, l, samples, seed)


def validate_approximation(
    n_list,
    instances_per_n: int = 10,
    seed: int = 0,
    samples: int = DEFAULT_SAMPLES,
    decoder: str = "greedy",
) -> tuple[list[dict], list[dict], list[dict]]:
    """Exact vs approximate optimum probability on random instances.

    For every car count in ``n_list``, ``instances_per_n`` seeded instances
    go through both pipelines at the default degree rule.  Returns the
    paired rows, per-N aggregates (the geometric mean of the approx/exact
    ratio, under mode "approx/exact", then each mode's own metrics), and
    the rows whose ratio falls outside [0.05, 3].  Car counts below 1, fewer
    than one instance per car count and a negative seed are refused before
    any instance is built.
    """
    n_list = [int(n_cars) for n_cars in n_list]
    if any(n_cars < 1 for n_cars in n_list):
        raise ValidationError(f"car counts must be >= 1, got {n_list}")
    if instances_per_n < 1:
        raise ValidationError(f"instances per car count must be >= 1, got {instances_per_n}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    runs = [(decoder, "exact"), (decoder, "approx")]
    rows: list[dict] = []
    flagged: list[dict] = []
    ratios: dict[int, list[float]] = {}
    for n_cars in n_list:
        for i in range(instances_per_n):
            inst_seed = derive_seed(seed, n_cars, i)
            exact_row, approx_row = _pipeline_rows(
                generate_instance(n_cars, inst_seed), runs, ICC, True, None, samples, inst_seed
            )
            rows.extend((exact_row, approx_row))
            if exact_row["p_opt"] > 0 and approx_row["p_opt"] > 0:
                ratio = approx_row["p_opt"] / exact_row["p_opt"]
                ratios.setdefault(n_cars, []).append(ratio)
                if not 0.05 <= ratio <= 3.0:
                    flagged.append({"digest": exact_row["digest"], "n_cars": n_cars, "ratio": ratio})
    aggregates = []
    for n_cars in sorted(ratios):
        logs = [log(r) for r in ratios[n_cars]]
        aggregates.append(
            {
                "n_cars": n_cars,
                "decoder": decoder,
                "mode": "approx/exact",
                "metric": "geomean_p_ratio",
                "mean": exp(sum(logs) / len(logs)),
                "std": float(np.std(logs)),
            }
        )
    aggregates.extend(aggregate_rows(rows, metrics=("p_opt",)))
    return rows, aggregates, flagged


def aggregate_rows(rows, metrics=("p_opt", "c_opt", "c_dqi", "c_total")) -> list[dict]:
    """Mean/std of the chosen row metrics over the finite values of each group.

    Rows are grouped by (car count, decoder, mode), so no aggregate mixes
    two decoders or an exact with an approximate run.
    """
    out = []
    groups: dict[tuple[int, str, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["n_cars"], row["decoder"], row["mode"]), []).append(row)
    for (n_cars, decoder, mode), group in sorted(groups.items()):
        for metric in metrics:
            values = [float(r[metric]) for r in group if np.isfinite(float(r[metric]))]
            if not values:
                continue
            out.append(
                {
                    "n_cars": n_cars,
                    "decoder": decoder,
                    "mode": mode,
                    "metric": metric,
                    "mean": float(np.mean(values)),
                    "std": float(np.std(values)),
                }
            )
    return out


def export_lp(x: XorsatInstance, path) -> None:
    """Write the system as a 0/1 integer program in LP text format.

    One binary z_j per row scores whether the row's parity matches its
    target, linearized without big-M constants; the objective maximizes
    the number of satisfied rows.
    """
    lines = ["Maximize"]
    if x.m:
        terms = " + ".join(f"z{j}" for j in range(1, x.m + 1))
        lines.append(f" obj: {terms}")
    else:
        lines.append(" obj: 0 x1" if x.n_vars else " obj:")
    lines.append("Subject To")
    for j, ((a, b), v) in enumerate(zip(x.rows, x.targets), start=1):
        if v == 1:
            lines.append(f" c{j}a: z{j} - x{a} - x{b} <= 0")
            lines.append(f" c{j}b: z{j} + x{a} + x{b} <= 2")
            lines.append(f" c{j}c: z{j} - x{a} + x{b} >= 0")
            lines.append(f" c{j}d: z{j} + x{a} - x{b} >= 0")
        else:
            lines.append(f" c{j}a: z{j} + x{a} - x{b} <= 1")
            lines.append(f" c{j}b: z{j} - x{a} + x{b} <= 1")
            lines.append(f" c{j}c: z{j} + x{a} + x{b} >= 1")
            lines.append(f" c{j}d: z{j} - x{a} - x{b} >= -1")
    lines.append("Binary")
    for i in range(1, x.n_vars + 1):
        lines.append(f" x{i}")
    for j in range(1, x.m + 1):
        lines.append(f" z{j}")
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_csv(rows, path) -> None:
    """Write report rows with the fixed column set; eps lists become JSON."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row["n_cars"], row["n"], row["m"], row["code_distance"],
                    row["l"], row["decoder"], row["mode"], row["p_opt"],
                    row["c_opt"], row["c_dqi"], row["c_total"],
                    json.dumps(row["eps"]), row["seed"],
                ]
            )


def write_aggregate_csv(aggregates, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_COLUMNS)
        for agg in aggregates:
            writer.writerow([agg[column] for column in AGGREGATE_COLUMNS])
