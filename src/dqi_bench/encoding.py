"""Max-2-XORSAT encodings of paint shop instances.

Two encodings are provided.  The position encoding ("non-icc") keeps one
variable per sequence position and turns both the soft adjacency terms and
the hard pairing constraints into parity rows (3N-1 rows over 2N variables).
The initial-car-color encoding ("icc") keeps one variable per car, namely
the color of its first occurrence, which makes every assignment feasible
and leaves 2N-1 rows over N variables.

Constraint elimination removes rows whose parity is forced: a car repeated
immediately forces one color change, a car repeated at distance two forces
exactly one color change somewhere in between.  Each applied elimination
event contributes one forced swap to the objective offset.

The constraint graph of a system, and its code distance, live in
``decoder``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ParseError, ValidationError
from .instances import BpspInstance, Coloring, is_json_int

ICC = "icc"
NON_ICC = "non-icc"


@dataclass(frozen=True)
class XorsatInstance:
    """A list of two-variable parity constraints over n_vars binary variables.

    Row j (1-based) is the ordered pair ``rows[j-1] = (a, b)`` of distinct
    1-based variable indices with target bit ``targets[j-1]``; the row is
    satisfied by an assignment x iff x_a XOR x_b equals the target.

    ``var_labels`` maps each variable index to the car id (icc) or sequence
    position (non-icc) it stands for; ``n_vars = 0`` with no rows represents
    a fully reduced, empty problem.
    """

    n_vars: int
    rows: tuple[tuple[int, int], ...]
    targets: tuple[int, ...]
    var_labels: dict[int, int] = field(default_factory=dict)
    encoding: str = ICC

    def __post_init__(self):
        if self.n_vars < 0:
            raise ValidationError("n_vars must be nonnegative")
        object.__setattr__(
            self, "rows", tuple((int(a), int(b)) for a, b in self.rows)
        )
        object.__setattr__(self, "targets", tuple(int(v) for v in self.targets))
        if len(self.rows) != len(self.targets):
            raise ValidationError("rows and targets must have equal length")
        for a, b in self.rows:
            if a == b:
                raise ValidationError(f"row ({a},{b}) must reference two distinct variables")
            if not (1 <= a <= self.n_vars and 1 <= b <= self.n_vars):
                raise ValidationError(f"row ({a},{b}) references a variable outside 1..{self.n_vars}")
        if any(v not in (0, 1) for v in self.targets):
            raise ValidationError("targets must be bits")
        if self.encoding not in (ICC, NON_ICC):
            raise ValidationError(f"unknown encoding tag {self.encoding!r}")
        if not self.var_labels:
            object.__setattr__(self, "var_labels", {i: i for i in range(1, self.n_vars + 1)})

    @property
    def m(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ReductionRecord:
    """Bookkeeping of one constraint-elimination pass.

    ``forced_swaps`` counts applied elimination events (one swap each);
    ``var_map`` sends original variable indices to their dense reduced
    indices.  ``encoding`` records which encoding the pass ran on, which
    fixes how solutions are lifted back.
    """

    removed_constraints: frozenset[int]
    removed_variables: frozenset[int]
    forced_swaps: int
    var_map: dict[int, int]
    encoding: str


def encode_non_icc(inst: BpspInstance) -> XorsatInstance:
    """Position encoding: 2N variables, 3N-1 rows.

    Adjacency rows (j, j+1) with target 0 come first, ordered by position,
    followed by one row per car pair with target 1, ordered by car id.
    """
    two_n = 2 * inst.n_cars
    rows = [(j, j + 1) for j in range(1, two_n)]
    targets = [0] * (two_n - 1)
    occ = inst.occurrences()
    for car in range(1, inst.n_cars + 1):
        p1, p2 = occ[car]
        rows.append((p1, p2))
        targets.append(1)
    return XorsatInstance(
        n_vars=two_n,
        rows=tuple(rows),
        targets=tuple(targets),
        var_labels={i: i for i in range(1, two_n + 1)},
        encoding=NON_ICC,
    )


def encode_icc(inst: BpspInstance) -> XorsatInstance:
    """Initial-car-color encoding: N variables (one per car), 2N-1 constraints.

    Constraint j connects the cars at positions j and j+1; its target is
    the parity of the two "seen before" indicators, so that it is
    satisfied exactly when no color change happens between the positions.

    A car repeated immediately (c_j = c_{j+1}) would make constraint j a
    self-loop reading 0 = 1: the color change there is forced no matter
    what.  Such constraints cannot be represented as two-variable rows and
    are left out of the returned system; they keep their conceptual index
    for reduction bookkeeping, where the matching elimination event counts
    their forced swap.  For N = 1 this leaves an empty system.
    """
    n = inst.n_cars
    seq = inst.sequence
    seen: set[int] = set()
    rows = []
    targets = []
    for j in range(1, 2 * n):
        cj, cj1 = seq[j - 1], seq[j]
        flag_j = 1 if cj in seen else 0
        seen.add(cj)
        flag_j1 = 1 if cj1 in seen else 0
        if cj != cj1:
            rows.append((cj, cj1))
            targets.append(flag_j ^ flag_j1)
    return XorsatInstance(
        n_vars=n,
        rows=tuple(rows),
        targets=tuple(targets),
        var_labels={i: i for i in range(1, n + 1)},
        encoding=ICC,
    )


def _elimination_events(inst: BpspInstance) -> tuple[frozenset[int], int]:
    """Scan the car sequence for elimination events, ascending by position.

    Returns the removed conceptual adjacency-constraint indices (1-based,
    1..2N-1) and the number of applied events.  An event is applied only
    when none of its constraints was removed by an earlier event; this
    matters for patterns like (a, b, a, b), where applying both distance-2
    events would double-count the single forced swap between the a's.
    """
    seq = inst.sequence
    two_n = len(seq)
    removed: set[int] = set()
    events = 0
    for j in range(1, two_n):
        if seq[j - 1] == seq[j]:
            if j not in removed:
                removed.add(j)
                events += 1
        elif j + 1 < two_n and seq[j - 1] == seq[j + 1]:
            if j not in removed and (j + 1) not in removed:
                removed.update((j, j + 1))
                events += 1
    return frozenset(removed), events


def reduce_instance(
    x: XorsatInstance, inst: BpspInstance
) -> tuple[XorsatInstance, ReductionRecord]:
    """Apply constraint and variable elimination to an encoded instance.

    Removed constraint indices refer to the adjacency constraints
    1..2N-1 of the original encoding (for the position encoding these are
    its first 2N-1 rows; pair rows are never removed).  Variables left
    with no remaining constraint are dropped and densely re-indexed by
    ascending original index; remaining rows keep their relative order.
    """
    removed, events = _elimination_events(inst)

    seq = inst.sequence
    if x.encoding == ICC:
        # conceptual adjacency indices of the materialized rows (self-loop
        # constraints were skipped at encoding time)
        concept = [j for j in range(1, 2 * inst.n_cars) if seq[j - 1] != seq[j]]
    else:
        concept = list(range(1, x.m + 1))  # adjacency rows first, then pair rows
    if len(concept) != x.m:
        raise ValidationError("constraint system does not match the instance")

    # removed indices all lie in 1..2N-1, so pair rows (non-icc indices
    # 2N..3N-1) can never be filtered here
    keep_rows = []
    keep_targets = []
    for j, row, v in zip(concept, x.rows, x.targets):
        if j in removed:
            continue
        keep_rows.append(row)
        keep_targets.append(v)

    alive = sorted({v for row in keep_rows for v in row})
    var_map = {orig: new for new, orig in enumerate(alive, start=1)}
    removed_vars = frozenset(range(1, x.n_vars + 1)) - frozenset(alive)

    reduced = XorsatInstance(
        n_vars=len(alive),
        rows=tuple((var_map[a], var_map[b]) for a, b in keep_rows),
        targets=tuple(keep_targets),
        var_labels={var_map[v]: x.var_labels[v] for v in alive},
        encoding=x.encoding,
    )
    record = ReductionRecord(
        removed_constraints=removed,
        removed_variables=removed_vars,
        forced_swaps=events,
        var_map=var_map,
        encoding=x.encoding,
    )
    return reduced, record


def lift_solution(
    reduced_x, rec: ReductionRecord, inst: BpspInstance
) -> Coloring:
    """Expand an assignment of the reduced system into a full coloring.

    Eliminated variables take the value 0.  Under the icc encoding the
    induced coloring is always feasible and every elimination event
    contributes exactly its one forced swap, because the two occurrences
    of the repeated car bracket the eliminated region with opposite
    colors no matter what value the dropped variable takes.
    """
    reduced_x = tuple(int(b) for b in reduced_x)
    if len(reduced_x) != len(rec.var_map):
        raise ValidationError(
            f"assignment length {len(reduced_x)} != reduced variable count {len(rec.var_map)}"
        )
    if rec.encoding == ICC:
        car_bits = {car: 0 for car in range(1, inst.n_cars + 1)}
        for orig, new in rec.var_map.items():
            car_bits[orig] = reduced_x[new - 1]
        bits = []
        seen: set[int] = set()
        for car in inst.sequence:
            first = car not in seen
            seen.add(car)
            bits.append(car_bits[car] if first else car_bits[car] ^ 1)
        return Coloring(bits=tuple(bits))
    bits = [0] * (2 * inst.n_cars)
    for orig, new in rec.var_map.items():
        bits[orig - 1] = reduced_x[new - 1]
    return Coloring(bits=tuple(bits))


def syndrome(x: XorsatInstance, y) -> tuple[int, ...]:
    """Image of an error vector under the transposed constraint matrix.

    Component k is the parity of the number of flipped rows containing
    variable k; flipping one row toggles exactly its two endpoints.
    """
    y = tuple(int(b) for b in y)
    if len(y) != x.m:
        raise ValidationError(f"error length {len(y)} != m = {x.m}")
    out = [0] * x.n_vars
    for bit, (a, b) in zip(y, x.rows):
        if bit:
            out[a - 1] ^= 1
            out[b - 1] ^= 1
    return tuple(out)


def satisfied_count(x: XorsatInstance, assign) -> int:
    """Number of rows satisfied by an assignment (x_a XOR x_b == target)."""
    assign = tuple(int(b) for b in assign)
    if len(assign) != x.n_vars:
        raise ValidationError(f"assignment length {len(assign)} != n_vars = {x.n_vars}")
    return sum(
        1
        for (a, b), v in zip(x.rows, x.targets)
        if (assign[a - 1] ^ assign[b - 1]) == v
    )


def non_icc_distance_bound(inst: BpspInstance, after_elimination: bool) -> int:
    """Code-distance value for the position encoding.

    Before elimination the distance is min over car repeat gaps k of k+1
    (the pair row plus the k adjacency rows between the occurrences form a
    cycle).  After elimination all repeats sit at gap >= 3, giving the
    lower bound 4.
    """
    if after_elimination:
        return 4
    gaps = [p2 - p1 for p1, p2 in inst.occurrences().values()]
    return min(gaps) + 1


def write_xorsat(x: XorsatInstance, path) -> None:
    """Write a constraint system as JSON: n_vars, rows, targets, labels."""
    payload = {
        "n_vars": x.n_vars,
        "rows": [[a, b] for a, b in x.rows],
        "targets": list(x.targets),
        "labels": {
            "encoding": x.encoding,
            "vars": {str(i): lab for i, lab in sorted(x.var_labels.items())},
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def read_xorsat(path) -> XorsatInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object")
    for fieldname in ("n_vars", "rows", "targets", "labels"):
        if fieldname not in data:
            raise ParseError(f"missing field '{fieldname}'")
    labels = data["labels"]
    if not isinstance(labels, dict):
        raise ParseError("field 'labels' must be an object")
    vars_field = labels.get("vars", {})
    if not isinstance(vars_field, dict) or not all(map(is_json_int, vars_field.values())):
        raise ParseError("field 'labels.vars' must map variable ids to integers")
    try:
        var_labels = {int(i): lab for i, lab in vars_field.items()}
    except ValueError as exc:  # keys are strings
        raise ParseError("field 'labels.vars' must map variable ids to integers") from exc
    rows, n_vars, targets = data["rows"], data["n_vars"], data["targets"]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == 2 and all(map(is_json_int, row)) for row in rows
    ):
        raise ParseError("field 'rows' must be a list of variable pairs")
    if not is_json_int(n_vars) or not isinstance(targets, list) or not all(map(is_json_int, targets)):
        raise ParseError("fields 'n_vars' and 'targets' must be integers")
    return XorsatInstance(
        n_vars=n_vars,
        rows=tuple(map(tuple, rows)),
        targets=tuple(targets),
        var_labels=var_labels,
        encoding=labels.get("encoding", ICC),
    )
