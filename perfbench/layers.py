"""Traced mode: per-layer time and work counts from wrapped program functions.

The wrappers replace functions in the namespaces the pipelines call them
from (``dqi_bench.bench``, ``dqi_bench.dqi``, the ``DECODERS`` table, and
the package itself for the circuit workload, whose operation calls the
package's exports).  Calls are kept in memory as one collapsed call tree
per operation: repeated calls of a function under the same parent share a
node that sums their count and time.  A layer's self time is its node's
time minus its children's.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager

# (function label, namespace, attribute): the call sites that get wrapped
SITES = [
    ("encode_icc", "bench", "encode_icc"),
    ("reduce_instance", "bench", "reduce_instance"),
    ("code_distance", "bench", "code_distance"),
    ("build_graph", "bench", "build_graph"),
    ("build_path_list", "bench", "build_path_list"),
    ("failure_profile_exact", "bench", "failure_profile_exact"),
    ("failure_profile_mc", "bench", "failure_profile_mc"),
    ("dicke_weights", "bench", "dicke_weights"),
    ("p_opt_exact", "bench", "p_opt_exact"),
    ("p_opt_approx", "bench", "p_opt_approx"),
    ("enumerate_optima", "bench", "enumerate_optima"),
    ("sample_shell_error", "dqi", "sample_shell_error"),
    ("greedy_decode", "DECODERS", "greedy"),
    ("min_length_decode", "DECODERS", "min-length"),
    ("encode_icc", "package", "encode_icc"),
    ("reduce_instance", "package", "reduce_instance"),
    ("build_graph", "package", "build_graph"),
    ("build_path_list", "package", "build_path_list"),
    ("emit_circuit", "package", "emit_circuit"),
    ("write_circuit", "package", "write_circuit"),
    ("simulate_circuit", "package", "simulate_circuit"),
    ("greedy_decode", "package", "greedy_decode"),
]

ENCODE = {"encode_icc", "reduce_instance", "code_distance"}
PATHS = {"build_graph", "build_path_list"}
EMIT = {"emit_circuit", "write_circuit"}
SIMULATE = {"simulate_circuit"}
DECODE = {"greedy_decode", "min_length_decode"}
PROFILE = {"failure_profile_exact", "failure_profile_mc"}
SAMPLE = {"sample_shell_error"}
DICKE = {"dicke_weights"}
DENSITY = {"p_opt_exact", "p_opt_approx"}
OPTIMA = {"enumerate_optima"}

# metric name -> (unit, the function labels it is made of)
METRICS = {
    "encoding.encode_s": ("s/op", ENCODE),
    "decoder.paths_s": ("s/op", PATHS),
    "decoder.emit_s": ("s/op", EMIT),
    "decoder.simulate_s": ("s/op", SIMULATE),
    "decoder.gates_per_s": ("1/s", SIMULATE),
    "decoder.decode_s": ("s/op", DECODE),
    "decoder.decode_calls": ("count/op", DECODE),
    "dqi.errors_scored": ("count/op", PROFILE),
    "dqi.decode_hit_ratio": ("ratio", PROFILE | DECODE),
    "dqi.profile_self_s": ("s/op", PROFILE),
    "dqi.sample_s": ("s/op", SAMPLE),
    "dqi.draws": ("count/op", SAMPLE),
    "dqi.dicke_s": ("s/op", DICKE),
    "dqi.dicke_calls": ("count/op", DICKE),
    "dqi.density_s": ("s/op", DENSITY),
    "bench.optima_s": ("s/op", OPTIMA),
    "bench.optima_calls": ("count/op", OPTIMA),
    "bench.glue_s": ("s/op", set()),
}
# metrics that are ratios over all traced ops rather than per-op means
RATIOS = {"decoder.gates_per_s", "dqi.decode_hit_ratio"}


class Node:
    __slots__ = ("label", "calls", "total", "counts", "children")

    def __init__(self, label):
        self.label = label
        self.calls = 0
        self.total = 0.0
        self.counts: dict[str, int] = {}
        self.children: dict[str, Node] = {}

    def as_dict(self):
        return {
            "name": self.label,
            "calls": self.calls,
            "s": self.total,
            **({"counts": self.counts} if self.counts else {}),
            "children": [c.as_dict() for c in self.children.values()],
        }


def _errors_scored(profile) -> int:
    """Errors a profile enumerated or drew, read from the returned profile."""
    if profile.samples_per_shell is None:
        return sum(profile.shell_sizes)
    return sum(min(size, profile.samples_per_shell) for size in profile.shell_sizes)


COUNTERS = {
    "failure_profile_exact": ("errors_scored", lambda args, out: _errors_scored(out)),
    "failure_profile_mc": ("errors_scored", lambda args, out: _errors_scored(out)),
    "simulate_circuit": ("gates", lambda args, out: len(args[0].gates)),
}


class Tracer:
    def __init__(self, dq):
        self._namespaces = {
            "bench": dq.bench,
            "dqi": dq.dqi,
            "DECODERS": dq.decoder.DECODERS,
            "package": dq,
        }
        self._installed = []
        self.unwrapped: set[str] = set()
        self.ops: list[Node] = []
        self._stack: list[Node] = []

    def install(self):
        for label, where, key in SITES:
            space = self._namespaces[where]
            fn = space.get(key) if isinstance(space, dict) else getattr(space, key, None)
            if fn is None:
                self.unwrapped.add(label)
                continue
            self._put(space, key, self._wrap(label, fn))
            self._installed.append((space, key, fn))

    def uninstall(self):
        for space, key, fn in reversed(self._installed):
            self._put(space, key, fn)
        self._installed.clear()

    @staticmethod
    def _put(space, key, fn):
        if isinstance(space, dict):
            space[key] = fn
        else:
            setattr(space, key, fn)

    def _wrap(self, label, fn):
        counter = COUNTERS.get(label)
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            node = parent.children.get(label)
            if node is None:
                node = parent.children[label] = Node(label)
            stack.append(node)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                node.total += time.perf_counter() - start
                node.calls += 1
                stack.pop()
            if counter is not None:
                name, count = counter
                node.counts[name] = node.counts.get(name, 0) + count(args, out)
            return out

        return traced

    @contextmanager
    def op(self):
        root = Node("op")
        self._stack.append(root)
        start = time.perf_counter()
        try:
            yield
        finally:
            root.total = time.perf_counter() - start
            root.calls = 1
            self._stack.pop()
            self.ops.append(root)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"ops": [op.as_dict() for op in self.ops]}, fh)
            fh.write("\n")


def _outermost(node: Node, labels):
    """Nodes with a label in ``labels`` that have no such ancestor."""
    for child in node.children.values():
        if child.label in labels:
            yield child
        else:
            yield from _outermost(child, labels)


def _called(node: Node, labels) -> set[str]:
    out = {node.label} if node.label in labels and node.calls else set()
    for child in node.children.values():
        out |= _called(child, labels)
    return out


def layer_metrics(ops: list[Node], expected: set[str], unwrapped: set[str]):
    """Per-op means of every layer metric, and the metrics reported missing.

    A metric is missing when one of its functions could not be wrapped, or
    when a function the workload's operation is expected to call was never
    called: a later version that stops calling it shows as missing, not 0.
    """
    n_ops = len(ops)
    called = set().union(*(_called(op, expected) for op in ops))

    def time_of(labels):
        return sum(node.total for op in ops for node in _outermost(op, labels))

    def calls_of(labels):
        return sum(node.calls for op in ops for node in _outermost(op, labels))

    def count_of(labels, name):
        return sum(node.counts.get(name, 0) for op in ops for node in _outermost(op, labels))

    simulate_s = time_of(SIMULATE)
    scored = count_of(PROFILE, "errors_scored")
    profile_decodes = sum(
        node.calls for op in ops for prof in _outermost(op, PROFILE) for node in _outermost(prof, DECODE)
    )
    totals = {
        "encoding.encode_s": time_of(ENCODE),
        "decoder.paths_s": time_of(PATHS),
        "decoder.emit_s": time_of(EMIT),
        "decoder.simulate_s": simulate_s,
        "decoder.gates_per_s": count_of(SIMULATE, "gates") / simulate_s if simulate_s else 0.0,
        "decoder.decode_s": time_of(DECODE),
        "decoder.decode_calls": calls_of(DECODE),
        "dqi.errors_scored": scored,
        "dqi.decode_hit_ratio": 1.0 - profile_decodes / scored if scored else 0.0,
        "dqi.profile_self_s": sum(
            node.total - sum(c.total for c in node.children.values())
            for op in ops
            for node in _outermost(op, PROFILE)
        ),
        "dqi.sample_s": time_of(SAMPLE),
        "dqi.draws": calls_of(SAMPLE),
        "dqi.dicke_s": time_of(DICKE),
        "dqi.dicke_calls": calls_of(DICKE),
        "dqi.density_s": time_of(DENSITY),
        "bench.optima_s": time_of(OPTIMA),
        "bench.optima_calls": calls_of(OPTIMA),
        "bench.glue_s": sum(op.total - sum(c.total for c in op.children.values()) for op in ops),
    }
    metrics = {}
    missing = {}
    for name, (unit, labels) in METRICS.items():
        gone = labels & unwrapped
        never = (labels & expected) - called
        if gone or never:
            missing[name] = sorted(gone | never)
        else:
            per_op = 1 if name in RATIOS else n_ops
            metrics[name] = {"value": totals[name] / per_op, "unit": unit}
    return metrics, missing
