"""Syndrome decoding on the constraint graph, its reversible circuit, and the code distance.

A two-variable parity system maps to a multigraph: variables are vertices,
constraints are edges.  ``build_graph`` is the one place that derives the
graph's structure (distinct endpoint pairs, adjacency lists, connected
components); the path list, the code distance and the exact failure
profile read it from there.  The code distance is the multigraph's
shortest cycle, since the errors of zero syndrome are exactly its
even-degree edge subsets.

An error vector flips the syndrome bits of the endpoints of every flipped
edge, so recovering an error from a syndrome means finding an edge subset
whose odd-degree vertex set equals the syndrome support T (a T-join).
Both decoders here pick a T-join built from precomputed shortest paths:
the greedy decoder scans an ordered path list and takes the first path
whose endpoints are still unmatched; the minimum-length decoder pairs T
optimally per component by subset dynamic programming over the pairwise
graph distances.  The path list is held as columns (endpoints, edge ids,
length), written by one BFS per target straight into buckets that read
out in scan order, so building, scanning and emitting it makes no record
per path; its ``entries`` and pair ``index`` are derived on request.

``DECODERS`` maps each name to its batch form on packed words: (batch,
n_vars // 64 + 1) uint64 syndromes in, vertex v being bit v % 64 of word
v // 64 and bit 0 clear, and (batch, ceil(m / 64)) uint64 errors out, row
j (0-based) being bit j % 64 of word j // 64 and the padding bits 0;
``pack_rows`` packs 0/1 rows that way, and ``pack_positions`` rows of
positions.  The greedy scan runs once per batch over bit-sliced ints.
The minimum-weight T-join is a minimum pairing of T over shortest paths
(Edmonds and Johnson, "Matching, Euler tours and the Chinese postman",
Math. Prog. 1973).  An exact profile decodes one ``EvenSets`` per
component, its even vertex sets up to a size in the pairing table's own
colex order; the min-length errors of that batch are the table itself,
filled layer by layer in set size, with one vectorized pass per partner
column.  An array pairs each component's part recursively, sharing one
memo of solved vertex sets.  Both give the same errors.
``greedy_decode`` and ``min_length_decode`` are batches of one.
The scan translates gate-for-gate into a reversible circuit of
CNOT/Toffoli gates over three registers (syndrome, one flag qubit per
path, error), which is what makes it attractive as an in-circuit decoder.

A gate list is held as its program: three flat int columns (control 1,
control 2, target word index), a kind column (a CX or a CCX) and the
starts of its control runs.  ``emit_circuit`` writes those columns as it
walks the path list; a list built from gate tuples compiles them once, on
first use, checking every gate's shape and every wire before any gate
runs, and the tuples of an emitted list are derived from the columns on
request.  A control run is a maximal stretch of consecutive gates with the
same two controls in which no target is one of those controls, so the
controls hold still across it.  One interpreter loop reads
``fire = w[c1] & w[c2]`` once per run over Python-int words, bit b of each
word being basis state b, skips the run when it is 0 and otherwise XORs it
into each target: ``simulate_circuit_batch`` runs a whole batch of basis
states in one pass, and ``simulate_circuit`` is a batch of one.  The
circuit file is formatted from the same columns, one precomputed name per
wire, and written in chunks of lines.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import NamedTuple

import numpy as np

from .encoding import XorsatInstance, syndrome
from .errors import CapacityError, ValidationError

_T_CAP = 22  # largest syndrome support the min-length decoder pairs
_CHUNK_LINES = 4096  # circuit file lines formatted and written at once


@dataclass(frozen=True)
class ConstraintGraph:
    """Multigraph view of a parity system: one vertex per variable, one edge per row.

    ``dedup_class`` sends every edge id to the lowest edge id with the same
    unordered endpoints; only those representatives take part in shortest
    paths, since parallel edges are interchangeable for decoding.
    ``pairs`` maps each distinct (u, v), u < v, to its representative edge
    id, ``adjacency`` lists each vertex's distinct neighbours in ascending
    order, and ``component`` labels the connected components 1, 2, ... in
    order of their lowest vertex.
    """

    n_vertices: int
    edges: tuple[tuple[int, int, int], ...]  # (edge_id, u, v), all 1-based
    dedup_class: dict[int, int]
    pairs: dict[tuple[int, int], int]
    adjacency: dict[int, tuple[int, ...]]
    component: dict[int, int]


class PathEntry(NamedTuple):
    """One stored path, as ``PathList.entries`` derives it."""

    u: int
    v: int
    edges: tuple[int, ...]  # representative edge ids along the path
    length: int


class PathList:
    """Ordered shortest paths between all vertex pairs of each component.

    Path i runs from ``u[i]`` to ``v[i]`` > ``u[i]`` over the representative
    edge ids ``edges[i]``, ``length[i]`` of them; the paths are sorted by
    (length, u, v), and the retained path per pair is the one with the
    lexicographically smallest vertex sequence.  ``component`` is the
    graph's component labelling.  The four columns are the one
    representation: ``entries`` (one ``PathEntry`` per path) and ``index``
    (the position of each pair (u, v)) are derived from them on request.
    ``PathList(entries, component)`` takes ``(u, v, edges, length)``
    records in that order; ``build_path_list`` writes the columns directly.
    """

    def __init__(self, entries, component: dict[int, int]):
        self.u, self.v, self.edges, self.length = [], [], [], []
        for u, v, edges, length in entries:
            self.u.append(u)
            self.v.append(v)
            self.edges.append(tuple(edges))
            self.length.append(length)
        self.component = component

    @classmethod
    def _of_columns(cls, u: list[int], v: list[int], edges: list[tuple[int, ...]], length: list[int],
                    component: dict[int, int]) -> PathList:
        p = cls.__new__(cls)
        p.u, p.v, p.edges, p.length, p.component = u, v, edges, length, component
        return p

    @cached_property
    def entries(self) -> tuple[PathEntry, ...]:
        new = tuple.__new__  # skips the named tuple's argument handling
        return tuple([new(PathEntry, e) for e in zip(self.u, self.v, self.edges, self.length)])

    @cached_property
    def index(self) -> dict[tuple[int, int], int]:
        return dict(zip(zip(self.u, self.v), range(len(self.u))))

    def __eq__(self, other):
        if not isinstance(other, PathList):
            return NotImplemented
        return (self.u, self.v, self.edges, self.length, self.component) == (
            other.u, other.v, other.edges, other.length, other.component)


@dataclass(frozen=True)
class DecodeOutcome:
    decoded_residual: tuple[int, ...]  # y XOR the chosen T-join
    success: bool  # residual identically zero
    decoded_error: tuple[int, ...]  # the T-join itself


class Program(NamedTuple):
    """A gate list as flat columns: gate i is ``t[i] ^= c1[i] & c2[i]`` on words.

    ``kind[i]`` is gate i's number of controls: 1 for a CX, which repeats
    its control in ``c2``, and 2 for a CCX, which may name one control
    twice.  ``runs`` holds the index of the first gate of each control run,
    then the gate count, so run r is gates ``runs[r]:runs[r + 1]``.
    """

    c1: list[int]
    c2: list[int]
    t: list[int]
    runs: list[int]
    kind: bytes


def _registers(gl: GateList) -> tuple[tuple[str, int], ...]:
    """Each register's name and size, in the order they are laid end to end."""
    return ("v", gl.n_syndrome), ("p", gl.n_path), ("e", gl.n_error)


def _wires(gl: GateList) -> list[tuple[str, int]]:
    """Every wire of the registers laid end to end: wire k is word k."""
    return [(reg, i) for reg, size in _registers(gl) for i in range(1, size + 1)]


def _compile(gl: GateList) -> Program:
    """Compile gate tuples into a ``Program``, checking every gate's shape and every wire."""
    index = {wire: word for word, wire in enumerate(_wires(gl))}
    c1s, c2s, ts, runs, kinds = [], [], [], [], bytearray()
    run_c1 = -1  # the open run's controls; -1 when no run is open
    run_c2 = -1
    for gate in gl.gates:
        kind, *wires = gate
        if not (kind == "CX" and len(wires) == 2 or kind == "CCX" and len(wires) == 3):
            raise ValidationError(f"malformed circuit: bad gate {gate!r}")
        words = []
        for reg, i in (wires[-1], *wires[:-1]):  # the target first
            if (reg, i) not in index:
                raise ValidationError(f"malformed circuit: wire {reg}:{i} out of range")
            words.append(index[reg, i])
        t, c1, *rest = words
        c2 = rest[0] if rest else c1
        if t == c1 or t == c2:  # a run by itself
            runs.append(len(ts))
            run_c1 = -1
        elif c1 != run_c1 or c2 != run_c2:
            runs.append(len(ts))
            run_c1, run_c2 = c1, c2
        c1s.append(c1)
        c2s.append(c2)
        ts.append(t)
        kinds.append(len(wires) - 1)
    runs.append(len(ts))
    return Program(c1s, c2s, ts, runs, bytes(kinds))


class GateList:
    """A reversible circuit over the syndrome, path and error registers.

    Its one representation is ``program``: flat columns of word indices over
    the registers laid end to end (control 1, control 2, target), each
    gate's kind, and the start of each control run, a maximal stretch of
    consecutive gates with the same two controls in which no target is one
    of those controls.  A gate whose target is one of its controls is a
    run by itself.  ``emit_circuit`` writes the program directly.
    ``GateList(n_syndrome, n_path, n_error, gates)`` takes gate tuples,
    ``("CX", ctrl, tgt)`` or ``("CCX", c1, c2, tgt)`` over wires
    ``("v"|"p"|"e", i)``, and compiles them once, on first use, checking
    every gate's shape and every wire's register and range before any gate
    runs.  ``gates`` of an emitted list is derived from the program on
    request, one tuple per wire shared by every gate on it.
    """

    def __init__(self, n_syndrome: int, n_path: int, n_error: int, gates):
        self.n_syndrome = n_syndrome
        self.n_path = n_path
        self.n_error = n_error
        self.gates = gates

    @classmethod
    def _of_program(cls, n_syndrome: int, n_path: int, n_error: int, program: Program) -> GateList:
        gl = cls.__new__(cls)
        gl.n_syndrome, gl.n_path, gl.n_error, gl.program = n_syndrome, n_path, n_error, program
        return gl

    @cached_property
    def gates(self) -> tuple[tuple, ...]:
        wires = _wires(self)
        c1, c2, targets, _, kind = self.program
        return tuple([
            ("CX", wires[a], wires[t]) if k == 1 else ("CCX", wires[a], wires[b], wires[t])
            for k, a, b, t in zip(kind, c1, c2, targets)
        ])

    @cached_property
    def program(self) -> Program:
        return _compile(self)


@dataclass(frozen=True)
class GateCost:
    leading_order: int  # path-controlled error-register CX count = sum of all pairwise distances
    ccx: int
    cx: int

    @property
    def total(self) -> int:
        return self.ccx + self.cx


def _bfs(adj, source: int) -> dict[int, int]:
    """Hop distance from ``source`` to every vertex it reaches, in BFS order."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def build_graph(x: XorsatInstance) -> ConstraintGraph:
    """Turn a parity system into its constraint multigraph."""
    edges = []
    pairs: dict[tuple[int, int], int] = {}
    dedup: dict[int, int] = {}
    for eid, (a, b) in enumerate(x.rows, start=1):
        edges.append((eid, a, b))
        dedup[eid] = pairs.setdefault((min(a, b), max(a, b)), eid)
    neighbours: dict[int, list[int]] = {v: [] for v in range(1, x.n_vars + 1)}
    for u, v in pairs:
        neighbours[u].append(v)
        neighbours[v].append(u)
    adjacency = {v: tuple(sorted(ws)) for v, ws in neighbours.items()}
    component: dict[int, int] = {}
    label = 0
    for start in adjacency:
        if start not in component:
            label += 1
            component.update(dict.fromkeys(_bfs(adjacency, start), label))
    return ConstraintGraph(
        n_vertices=x.n_vars,
        edges=tuple(edges),
        dedup_class=dedup,
        pairs=pairs,
        adjacency=adjacency,
        component=component,
    )


def build_path_list(g: ConstraintGraph) -> PathList:
    """All-pairs shortest paths over representative edges, one BFS tree per target.

    In the tree of target v every vertex steps to its smallest neighbour one
    hop closer to v, so each stored path is the lexicographically smallest
    shortest vertex sequence, which keeps the list platform-independent.
    The BFS visits each level in ascending order, so the first vertex to
    reach a vertex of the next level is that smallest closer neighbour.
    Paths to v share their suffixes.  Pairs in different components are
    omitted.  Targets run in ascending order, and each path u < v goes into
    a bucket per (length, u), so the buckets hold their paths in ascending
    v and, read in (length, u) order, give the sorted columns.
    """
    n, pairs = g.n_vertices, g.pairs
    # steps[s]: (neighbour w, (representative edge of s-w,)), w ascending
    steps = [()] + [
        tuple((w, (pairs[(w, s) if w < s else (s, w)],)) for w in g.adjacency[s]) for s in range(1, n + 1)
    ]
    vs_at, edges_at = [], []  # [length - 1][u]: the v and edges of each path u < v, v ascending
    for v in range(1, n + 1):
        to_v = [None] * (n + 1)  # the edges from each reached vertex to v
        to_v[v] = ()
        level = [v]
        depth = 0
        while True:
            reached = []
            for step in level:
                tail = to_v[step]
                for w, edge in steps[step]:
                    if to_v[w] is None:
                        to_v[w] = edge + tail
                        reached.append(w)
            if not reached:
                break
            reached.sort()
            if depth == len(vs_at):
                vs_at.append([[] for _ in range(n + 1)])
                edges_at.append([[] for _ in range(n + 1)])
            vs_of, edges_of = vs_at[depth], edges_at[depth]
            for u in reached:
                if u > v:
                    break
                vs_of[u].append(v)
                edges_of[u].append(to_v[u])
            depth += 1
            level = reached
    us, vs, edges, lengths = [], [], [], []
    for length, (vs_of, edges_of) in enumerate(zip(vs_at, edges_at), start=1):
        for u in range(1, n + 1):
            us += [u] * len(vs_of[u])
            vs += vs_of[u]
            edges += edges_of[u]
        lengths += [length] * (len(us) - len(lengths))
    return PathList._of_columns(us, vs, edges, lengths, g.component)


def _greedy_scan(p: PathList, t: list[int], m: int) -> list[int]:
    """Bit b of ``t[v-1]`` is vertex v's bit in syndrome b; returns word j-1 per edge j.

    A path fires for the syndromes whose endpoints are both still set: it
    clears them and flips its edges in their decoded errors.  Paths need not
    be disjoint; on a connected component every pair of T-vertices appears,
    so the scan always empties T.
    """
    err = [0] * m
    for u, v, edges in zip(p.u, p.v, p.edges):
        fire = t[u - 1] & t[v - 1]
        if fire:
            t[u - 1] ^= fire
            t[v - 1] ^= fire
            for eid in edges:
                err[eid - 1] ^= fire
    return err


def _outcome(y: tuple[int, ...], decoded) -> DecodeOutcome:
    decoded = tuple(decoded)
    residual = tuple(a ^ b for a, b in zip(y, decoded))
    return DecodeOutcome(decoded_residual=residual, success=not any(residual), decoded_error=decoded)


def greedy_decode(p: PathList, x: XorsatInstance, y) -> DecodeOutcome:
    """Greedy-decode one error: the scan over a batch of one syndrome."""
    y = tuple(int(b) for b in y)
    return _outcome(y, _greedy_scan(p, list(syndrome(x, y)), x.m))


def pack_rows(bits) -> np.ndarray:
    """0/1 rows as uint64 words: column j of a (batch, width) array is bit j % 64 of word j // 64."""
    bits = np.asarray(bits, dtype=np.uint8)
    batch, width = bits.shape
    packed = np.zeros((batch, 8 * -(-width // 64)), dtype=np.uint8)
    packed[:, : -(-width // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8")


def pack_positions(pos: np.ndarray, m: int) -> np.ndarray:
    """Rows of values below m as (rows, ceil(m / 64)) uint64 words: value j of a row
    sets bit j % 64 of its word j // 64."""
    words = np.zeros((len(pos), (m + 63) // 64), np.uint64)
    for col in pos.T:
        bit = np.left_shift(np.uint64(1), (col & 63).astype(np.uint64))
        for w, word in enumerate(words.T):
            word |= np.where(col >> 6 == w, bit, np.uint64(0))
    return words


def _pack_columns(bits: np.ndarray) -> list[int]:
    """One int word per column of a (batch, width) 0/1 array: bit b is row b."""
    packed = np.packbits(bits, axis=0, bitorder="little")
    return [int.from_bytes(c.tobytes(), "little") for c in packed.T]


def _column_rows(words: list[int], batch: int) -> np.ndarray:
    """Int columns as (batch, ceil(len(words) / 64)) uint64 rows: bit b of word j is bit j of row b."""
    size = (batch + 7) // 8
    raw = b"".join(w.to_bytes(size, "little") for w in words)
    raw = np.frombuffer(raw, dtype=np.uint8).reshape(len(words), size)
    out = np.zeros((batch, 8 * -(-len(words) // 64)), dtype=np.uint8)
    for q in range(0, len(words), 8):  # byte q // 8 of a row holds columns q..q+7
        cols = np.unpackbits(raw[q : q + 8], axis=1, count=batch, bitorder="little")
        cols <<= np.arange(len(cols), dtype=np.uint8)[:, None]
        out[:, q // 8] = np.bitwise_or.reduce(cols)
    return out.view("<u8")


def greedy_decode_batch(p: PathList, x: XorsatInstance, syndromes: np.ndarray | EvenSets) -> np.ndarray:
    """Greedy-decode packed syndromes into packed errors (see ``DECODERS``) over bit-sliced columns."""
    if isinstance(syndromes, EvenSets):
        syndromes = syndromes.syndromes
    syn = np.ascontiguousarray(syndromes, dtype="<u8").view(np.uint8)
    cols = _pack_columns(np.unpackbits(syn, axis=1, count=x.n_vars + 1, bitorder="little"))
    return _column_rows(_greedy_scan(p, cols[1:], x.m), len(syn))


def _pairing(mask: int, memo: dict[int, tuple[int, int]], link) -> tuple[int, int]:
    """Minimum-weight perfect matching of the vertices in ``mask``: (weight, error bits).

    Bit i of ``mask`` is vertex i+1, all in one component; bit j-1 of the
    error is edge j.  Subset dynamic programming: the lowest vertex is
    paired with each partner in ascending order, and a strict ``<`` keeps
    the first of equal weights, so the lexicographically smallest pair list
    wins.  ``link[i][j]`` is the (distance, path edge bits) of vertices
    i+1 < j+1; ``memo`` holds every solved mask and is shared by a whole batch.
    """
    hit = memo.get(mask)
    if hit is not None:
        return hit
    low = mask & -mask
    row = link[low.bit_length() - 1]
    rest = mask ^ low
    best_w = best_e = None
    partners = rest
    while partners:
        bit = partners & -partners
        partners ^= bit
        dist, edges = row[bit.bit_length() - 1]
        w, e = _pairing(rest ^ bit, memo, link)
        if best_w is None or w + dist < best_w:
            best_w, best_e = w + dist, e ^ edges
    memo[mask] = best = (best_w, best_e)
    return best


def min_length_decode(p: PathList, x: XorsatInstance, y) -> DecodeOutcome:
    """Decode one error via an exact minimum-weight perfect matching of its syndrome."""
    y = tuple(int(b) for b in y)
    err = min_length_decode_batch(p, x, pack_rows([(0, *syndrome(x, y))]))
    return _outcome(y, np.unpackbits(err.view(np.uint8), count=x.m, bitorder="little"))


def _memo_decode(p: PathList, x: XorsatInstance, syn: np.ndarray) -> np.ndarray:
    """The min-length errors of a packed batch, one ``_pairing`` per component part of each row."""
    n = x.n_vars
    link = [[None] * n for _ in range(n)]
    for u, v, length, edges in zip(p.u, p.v, p.length, p.edges):
        link[u - 1][v - 1] = (length, sum(1 << (eid - 1) for eid in edges))
    comp_masks = [sum(1 << (v - 1) for v in verts) for verts in _components(p.component)]
    memo: dict[int, tuple[int, int]] = {0: (0, 0)}
    batch, width = len(syn), 8 * ((x.m + 63) // 64)
    raw = bytearray(batch * width)
    for i, row in enumerate(syn.tolist()):
        mask = sum(w << (64 * q) for q, w in enumerate(row)) >> 1  # vertex v is bit v
        err = 0
        for comp_mask in comp_masks:
            if mask & comp_mask:
                err ^= _pairing(mask & comp_mask, memo, link)[1]
        raw[i * width : (i + 1) * width] = err.to_bytes(width, "little")
    return np.frombuffer(raw, dtype="<u8").reshape(batch, width // 8)


def _colex_layers(s: int, top: int):
    """Every j-subset of range(s), j = 0..top, as a (C(s, j), j) array in colex order.

    Row r of layer j is the subset of colex rank r, sum_q C(row[q], q + 1):
    the subsets whose largest element is c are (c, appended to) the first
    C(c, j - 1) rows of layer j - 1.
    """
    dtype = np.min_scalar_type(max(s - 1, 0))
    layer = np.zeros((1, 0), dtype=dtype)
    yield layer
    for j in range(1, top + 1):
        head, layer = layer, np.empty((comb(s, j), j), dtype=dtype)
        for c in range(j - 1, s):  # rows C(c, j) up to C(c + 1, j) end in c
            lo, hi = comb(c, j), comb(c + 1, j)
            layer[lo:hi, :-1] = head[: hi - lo]
            layer[lo:hi, -1] = c
        yield layer


class EvenSets(NamedTuple):
    """Every even vertex set of one component, up to a size, as one decoder batch.

    ``verts`` are the component's vertices, ascending, and ``layers`` its
    even layers (layer i: every 2i-subset of indices into ``verts``, in
    colex order).  ``syndromes`` packs those sets, read end to end, as
    ``DECODERS`` take them.
    """

    syndromes: np.ndarray
    verts: list[int]
    layers: list[np.ndarray]


def _components(component: dict[int, int]) -> list[list[int]]:
    """The vertices of each component, ascending, in label order."""
    comps: dict[int, list[int]] = {}
    for v, label in sorted(component.items()):
        comps.setdefault(label, []).append(v)
    return list(comps.values())


def even_sets(verts: list[int], n_vars: int, top: int) -> EvenSets:
    """Every even subset of one component's ``verts`` (ascending) of at most ``top`` vertices.

    One pass of ``_colex_layers`` gives the even layers, and the syndromes
    are packed for a system of ``n_vars`` variables.
    """
    layers = [lay for lay in _colex_layers(len(verts), min(len(verts), top)) if lay.shape[1] % 2 == 0]
    local = np.array(verts, dtype=np.min_scalar_type(n_vars + 1))
    syndromes = np.concatenate([pack_positions(local.take(layer), n_vars + 1) for layer in layers])
    return EvenSets(syndromes, verts, layers)


def _pair_table(p: PathList, verts: list[int], words: int):
    """Layer 2 of a component: the (distance, path edge words) of each pair, in colex order."""
    s = len(verts)
    dist = np.zeros(comb(s, 2), dtype=np.int32)
    rows, cols, bits = [], [], []
    for b in range(1, s):
        for a in range(b):
            r = a + comb(b, 2)
            i = p.index[verts[a], verts[b]]
            dist[r] = p.length[i]
            for eid in p.edges[i]:
                rows.append(r)
                cols.append((eid - 1) >> 6)
                bits.append(1 << ((eid - 1) & 63))
    errs = np.zeros((len(dist), words), dtype=np.uint64)
    np.bitwise_or.at(errs, (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)),
                     np.array(bits, dtype=np.uint64))
    return dist, errs


def _component_table(p: PathList, verts: list[int], layers: list[np.ndarray], words: int) -> np.ndarray:
    """Errors of the min-length pairing of every set of one component's even ``layers``.

    Entry r of layer j is the pairing of the j-subset of colex rank r, as
    ``words`` uint64 words, and the layers are returned end to end.  A
    layer is one pass per partner column: the lowest vertex S[0] pairs
    with S[i], i = 1..j-1 in ascending order, and the rest S minus {S[0],
    S[i]} is looked up by its rank in layer j - 2.  A strict ``<`` keeps
    the first of equal weights, the same tie-break as ``_pairing``.
    """
    top = layers[-1].shape[1]
    binom = np.array([[comb(v, q) for q in range(top + 1)] for v in range(len(verts))])
    pair_w, pair_e = _pair_table(p, verts, words)
    errs = [np.zeros((1, words), dtype=np.uint64), pair_e][: len(layers)]
    prev_w = pair_w
    for subsets in layers[2:]:
        j = subsets.shape[1]
        low = subsets[:, 0]
        # rank of S minus {S[0], S[1]}: S[q] sits at position q - 2
        rest = sum(binom[subsets[:, q], q - 1] for q in range(2, j))
        pair = low + binom[subsets[:, 1], 2]
        best_w = prev_w[rest] + pair_w[pair]
        best_rest, best_pair = rest, pair
        for i in range(2, j):
            # S[i - 1] moves into the rest at position i - 2, S[i] leaves it
            rest = rest + binom[subsets[:, i - 1], i - 1] - binom[subsets[:, i], i - 1]
            pair = low + binom[subsets[:, i], 2]
            cand = prev_w[rest] + pair_w[pair]
            better = cand < best_w
            best_w = np.where(better, cand, best_w)
            best_rest = np.where(better, rest, best_rest)
            best_pair = np.where(better, pair, best_pair)
        errs.append(errs[-1][best_rest] ^ pair_e[best_pair])
        prev_w = best_w
    return np.concatenate(errs)


def _check_support(support: int) -> None:
    if support > _T_CAP:
        raise CapacityError(f"syndrome support {support} exceeds matching capacity {_T_CAP}")


def check_matching_capacity(syndromes: np.ndarray, component: dict[int, int]) -> np.ndarray:
    """Refuse packed syndromes with more than ``_T_CAP`` vertices in one component, the most the
    min-length decoder pairs there.

    ``component`` labels each vertex's component.  Returns the number of
    vertices each row holds in each component, one row per component.
    """
    syn = np.asarray(syndromes, dtype=np.uint64)
    bits = np.arange(64 * syn.shape[1])  # vertex v is bit v
    sizes = np.array([
        np.bitwise_count(syn & pack_rows([np.isin(bits, verts)])).sum(axis=1, dtype=np.intp)
        for verts in _components(component)
    ]).reshape(-1, len(syn))
    _check_support(int(sizes.max(initial=0)))
    return sizes


def min_length_decode_batch(p: PathList, x: XorsatInstance, syndromes: np.ndarray | EvenSets) -> np.ndarray:
    """Min-length-decode a batch of packed syndromes into packed errors, laid out as ``DECODERS`` says.

    Each syndrome's support T is paired per component.  An ``EvenSets``
    is its component's pairing table, filled from the batch's own layers;
    an array runs ``_pairing`` with one memo for the whole batch.  Both give
    the same errors.  Before any pairing, more than ``_T_CAP`` vertices of T
    in one component raise CapacityError and, in an array, an odd part of T
    in a component raises ValidationError.
    """
    if isinstance(syndromes, EvenSets):
        _check_support(syndromes.layers[-1].shape[1])
        return _component_table(p, syndromes.verts, syndromes.layers, (x.m + 63) // 64)
    syn = np.asarray(syndromes, dtype=np.uint64)
    if (check_matching_capacity(syn, p.component) % 2).any():
        raise ValidationError("odd syndrome parity within a component")
    return _memo_decode(p, x, syn)


DECODERS = {"greedy": greedy_decode_batch, "min-length": min_length_decode_batch}


def code_distance(x: XorsatInstance, cap: int = 12, *, graph: ConstraintGraph | None = None):
    """Minimum weight of a nonzero error with zero syndrome, or None past cap.

    Errors with zero syndrome are exactly the even-degree edge subsets of
    the constraint multigraph, so the minimum weight equals its shortest
    cycle: 2 as soon as two rows share a support, otherwise the girth of
    the underlying simple graph (found by one BFS per edge with that edge
    removed).  Returns None when every cycle is longer than ``cap`` (in
    particular for forests, which have no nonzero kernel vector at all).
    ``graph``, when given, is ``build_graph(x)``, already built.
    """
    if x.m < 1:
        raise ValidationError("code distance needs at least one constraint")
    g = build_graph(x) if graph is None else graph
    if len(g.pairs) < x.m:
        return 2 if cap >= 2 else None
    best = None
    for a, b in g.pairs:
        # the shortest a-b path avoiding the edge (a, b) closes the shortest
        # cycle through that edge
        dist = _bfs({**g.adjacency, a: tuple(w for w in g.adjacency[a] if w != b)}, a)
        if b in dist and (best is None or dist[b] + 1 < best):
            best = dist[b] + 1
    if best is None or best > cap:
        return None
    return best


def emit_circuit(p: PathList, g: ConstraintGraph) -> GateList:
    """Reversible circuit for the greedy scan, written straight into its program columns.

    Per path i with endpoints (u, v): a Toffoli marks the path qubit when
    both syndrome bits are set, then path-controlled CNOTs flip the path's
    error-register bits and clear the two syndrome bits.  A final pass
    re-applies the syndrome CNOTs to restore the syndrome register; the
    path register is left as garbage.  Wire ``v:u`` is word u - 1, ``p:i``
    word n_syndrome + i - 1 and ``e:j`` word n_syndrome + n_path + j - 1;
    every column entry is the one int object of its word.  Each path is
    two control runs, its Toffoli and its CNOTs, and its restoring pair is
    a third, unless it is the only path, whose restoring pair continues its
    CNOT run.
    """
    n_s, n_p, n_e = g.n_vertices, len(p.u), len(g.edges)
    word = list(range(n_s + n_p + n_e))
    e_word = word[n_s + n_p - 1 :].__getitem__  # e_word(j) is e:j's word, j >= 1
    paths = word[n_s : n_s + n_p]
    c1, c2, t, runs, ends, kind = [], [], [], [], [], bytearray()
    start = 0  # the Toffoli of the current path
    for u, v, edges, length, pq in zip(p.u, p.v, p.edges, p.length, paths):
        vu, vv = word[u - 1], word[v - 1]
        runs += (start, start + 1)
        start += length + 3
        c1.append(vu)
        c2.append(vv)
        t.append(pq)
        cx = [pq] * (length + 2)
        c1 += cx
        c2 += cx
        t += map(e_word, edges)
        t += (vu, vv)
        ends += (vu, vv)
        kind += b"\x02" + b"\x01" * (length + 2)
    restore = range(start, start + 2 * n_p, 2)
    runs += restore[1:] if n_p == 1 else restore
    controls = [pq for pq in paths for _ in (0, 1)]
    c1 += controls
    c2 += controls
    t += ends
    kind += b"\x01" * len(ends)
    runs.append(len(t))
    return GateList._of_program(n_s, n_p, n_e, Program(c1, c2, t, runs, bytes(kind)))


def _run(program: Program, words: list[int]) -> None:
    """The interpreter: bit b of every word is basis state b.

    The controls of a run hold still across it, so ``fire`` is read once
    per run, and a run that does not fire is skipped whole.
    """
    c1, c2, targets, runs, _ = program
    for start, end in zip(runs, runs[1:]):
        fire = words[c1[start]] & words[c2[start]]
        if fire:
            for t in targets[start:end]:
                words[t] ^= fire


def _check_bits(name: str, bits, size: int) -> None:
    if len(bits) != size:
        raise ValidationError(f"{name} register length {len(bits)} != {size}")
    if any(b != 0 and b != 1 for b in bits):
        raise ValidationError(f"{name} register values must be 0 or 1")


def simulate_circuit(gl: GateList, y, s) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Apply the gate list to one classical basis state; returns (syndrome, path, error).

    This is the control-run interpreter of ``simulate_circuit_batch`` on a
    batch of one, so every word is a single bit.  The gate list is compiled
    and checked once, before any gate runs; a malformed list or a register
    value other than 0/1 raises ValidationError.
    """
    y, s = tuple(y), tuple(s)
    _check_bits("error", y, gl.n_error)
    _check_bits("syndrome", s, gl.n_syndrome)
    words = [int(b) for b in s] + [0] * gl.n_path + [int(b) for b in y]
    _run(gl.program, words)
    path_end = gl.n_syndrome + gl.n_path
    return tuple(words[: gl.n_syndrome]), tuple(words[gl.n_syndrome : path_end]), tuple(words[path_end:])


def simulate_circuit_batch(gl: GateList, errors, syndromes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the gate list to a batch of basis states in one pass over the gates.

    ``errors`` and ``syndromes`` are (batch, n_error) and (batch,
    n_syndrome) 0/1 arrays; row b is basis state b, packed as bit b of one
    int word per wire.  Returns the (syndrome, path, error) registers as
    (batch, size) uint8 arrays, row for row what ``simulate_circuit`` gives.
    """
    errors, syndromes = np.asarray(errors), np.asarray(syndromes)
    for name, bits, size in (("error", errors, gl.n_error), ("syndrome", syndromes, gl.n_syndrome)):
        if bits.ndim != 2 or bits.shape[1] != size:
            raise ValidationError(f"{name} registers must have shape (batch, {size}), got {bits.shape}")
        if not np.isin(bits, (0, 1)).all():
            raise ValidationError(f"{name} register values must be 0 or 1")
    if len(errors) != len(syndromes):
        raise ValidationError(f"{len(errors)} error registers != {len(syndromes)} syndrome registers")
    words = _pack_columns(syndromes != 0) + [0] * gl.n_path + _pack_columns(errors != 0)
    _run(gl.program, words)
    rows = _column_rows(words, len(errors)).view(np.uint8)
    bits = np.unpackbits(rows, axis=1, count=len(words), bitorder="little")
    path_end = gl.n_syndrome + gl.n_path
    return bits[:, : gl.n_syndrome], bits[:, gl.n_syndrome : path_end], bits[:, path_end:]


def gate_cost(p: PathList) -> GateCost:
    """Gate counts of the emitted circuit.

    The leading-order term is the number of path-controlled error-register
    CNOTs, one per edge of every stored path, i.e. the sum of all pairwise
    distances of the completed graph.  Each path additionally costs one
    Toffoli and four syndrome CNOTs (two in the scan, two in the restore
    pass).
    """
    leading = sum(p.length)
    n_paths = len(p.length)
    return GateCost(leading_order=leading, ccx=n_paths, cx=leading + 4 * n_paths)


def _circuit_chunks(gl: GateList):
    """The circuit file as strings of up to ``_CHUNK_LINES`` lines, formatted from ``gl.program``."""
    c1, c2, targets, _, kind = gl.program
    names = [f"{reg}:{i}" for reg, size in _registers(gl) for i in range(1, size + 1)]
    yield f"REGISTERS syndrome={gl.n_syndrome} path={gl.n_path} error={gl.n_error}\n"
    for lo in range(0, len(targets), _CHUNK_LINES):
        hi = lo + _CHUNK_LINES
        yield "".join([
            f"CX {names[a]} {names[t]}\n" if k == 1 else f"CCX {names[a]} {names[b]} {names[t]}\n"
            for k, a, b, t in zip(kind[lo:hi], c1[lo:hi], c2[lo:hi], targets[lo:hi])
        ])


def format_circuit(gl: GateList) -> str:
    """Render a gate list in the line-oriented circuit file format.

    The text is formatted from the compiled program, so a malformed gate
    list raises ValidationError.
    """
    return "".join(_circuit_chunks(gl))


def write_circuit(gl: GateList, path) -> None:
    """Write ``format_circuit(gl)`` to ``path``, one chunk of lines at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_circuit_chunks(gl))
