"""Binary paint shop instances: generation, scoring and serialization.

A binary paint shop instance is a sequence of 2N cars in which each of the
N distinct cars appears exactly twice.  A coloring assigns one of two colors
to every position; it is feasible when the two occurrences of every car get
opposite colors, and its cost is the number of adjacent color changes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParseError, ValidationError

MAX_CARS = 100_000  # most cars generate_instance draws; its Python shuffle takes ≈ 0.8 s there


@dataclass(frozen=True)
class BpspInstance:
    """A car sequence of length 2N over cars 1..N, each appearing twice.

    Car identifiers and positions are 1-based: position j holds car
    ``sequence[j - 1]``.
    """

    n_cars: int
    sequence: tuple[int, ...]

    def __post_init__(self):
        if self.n_cars < 1:
            raise ValidationError("n_cars must be a positive integer")
        object.__setattr__(self, "sequence", tuple(int(c) for c in self.sequence))
        if len(self.sequence) != 2 * self.n_cars:
            raise ValidationError(
                f"sequence length {len(self.sequence)} != 2*n_cars = {2 * self.n_cars}"
            )
        counts = {}
        for c in self.sequence:
            if not 1 <= c <= self.n_cars:
                raise ValidationError(f"car id {c} outside 1..{self.n_cars}")
            counts[c] = counts.get(c, 0) + 1
        bad = {c: k for c, k in counts.items() if k != 2}
        if len(counts) != self.n_cars or bad:
            raise ValidationError(f"every car must appear exactly twice, got counts {counts}")

    def occurrences(self) -> dict[int, tuple[int, int]]:
        """Map car id -> its two 1-based positions, in order of appearance."""
        first: dict[int, int] = {}
        out: dict[int, tuple[int, int]] = {}
        for pos, car in enumerate(self.sequence, start=1):
            if car in first:
                out[car] = (first[car], pos)
            else:
                first[car] = pos
        return out


@dataclass(frozen=True)
class Coloring:
    """Color bits for every position of a paired instance (0/1, 1-based positions)."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if any(b not in (0, 1) for b in self.bits):
            raise ValidationError("coloring bits must be 0 or 1")


def generate_instance(n_cars: int, seed: int) -> BpspInstance:
    """Draw a uniformly random instance with ``n_cars`` car pairs.

    The multiset {1,1,2,2,...,N,N} is shuffled with a Fisher-Yates pass
    driven by numpy's PCG64 generator seeded directly by ``seed``, so the
    output is deterministic for a fixed (n_cars, seed) pair and uniform
    over the distinct arrangements of the multiset.  More than ``MAX_CARS``
    cars raise CapacityError before anything is drawn.
    """
    if n_cars < 1:
        raise ValidationError("n_cars must be a positive integer")
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    if n_cars > MAX_CARS:
        raise CapacityError(f"{n_cars} cars exceed the generation cap of {MAX_CARS}")
    rng = np.random.default_rng(seed)
    seq = [car for car in range(1, n_cars + 1) for _ in range(2)]
    for i in range(len(seq) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        seq[i], seq[j] = seq[j], seq[i]
    return BpspInstance(n_cars=n_cars, sequence=tuple(seq))


def paint_swaps(inst: BpspInstance, col: Coloring) -> tuple[int, bool]:
    """Score a coloring: (number of adjacent color changes, hard-constraint flag).

    ``feasible`` is True iff every car's two occurrences have opposite
    colors.  The swap count is reported either way, so that relaxations
    treating the pairing constraints as soft can still be scored.
    """
    bits = col.bits
    if len(bits) != 2 * inst.n_cars:
        raise ValidationError(
            f"coloring length {len(bits)} != 2*n_cars = {2 * inst.n_cars}"
        )
    swaps = sum(1 for j in range(len(bits) - 1) if bits[j] != bits[j + 1])
    feasible = all(bits[p1 - 1] != bits[p2 - 1] for p1, p2 in inst.occurrences().values())
    return swaps, feasible


def write_instance(inst: BpspInstance, path) -> None:
    """Write an instance as canonical JSON: {"n_cars": N, "sequence": [...]}."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n_cars": inst.n_cars, "sequence": list(inst.sequence)}, fh)
        fh.write("\n")


def is_json_int(value) -> bool:
    """Whether a parsed JSON value is an integer: an int, and not a bool, which is also an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def read_instance(path) -> BpspInstance:
    """Read an instance file, validating structure and invariants."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object")
    for field in ("n_cars", "sequence"):
        if field not in data:
            raise ParseError(f"missing field '{field}'")
    if not is_json_int(data["n_cars"]):
        raise ParseError("field 'n_cars' must be an integer")
    if not isinstance(data["sequence"], list) or not all(map(is_json_int, data["sequence"])):
        raise ParseError("field 'sequence' must be a list of integers")
    return BpspInstance(n_cars=data["n_cars"], sequence=tuple(data["sequence"]))
