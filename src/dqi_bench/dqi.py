"""Measurement probabilities and cost estimates for decoded interferometry.

The protocol prepares a superposition over errors of Hamming weight k <= l,
weighted per shell by the principal eigenvector of a tridiagonal matrix,
maps each error to its syndrome, uncomputes the error through a decoder
and post-selects on success.  What survives per shell k is the set D_k of
correctly decoded weight-k errors; the probability density of measuring an
assignment x combines the per-shell signed sums over D_k.

Everything here is classical, and densities are evaluated in closed form.
Both decoders see only an error's syndrome, and both split over the
components of the row graph, so the exact profile decodes each
component's even vertex sets of at most 2l vertices once, as one
``EvenSets`` in the min-length pairing table's own order, keeps that
component's D_k as the decoded errors and joins the components' D_k by
weight.  The Monte Carlo profile samples errors and decodes all of their
syndromes as one array, which the min-length decoder pairs through its
memo.  The batches depend only on the instance and l (and, when sampled,
samples and seed), so decoders sharing an instance share one build of
them.  In both, syndromes and errors are uint64 words from start to end,
laid out like ``FailureProfile.decoded_words``: weights are popcounts, an
error's syndrome is one table lookup per byte of its words
(``_syndromes``), and an error decodes correctly when the decoder returns
its own words.  No pipeline run holds errors as positions; only the
enumeration of a small shell and the rare redrawn sample pass through
them on the way to words.
The sampler owns its random stream: a drawn shell is numpy 2.4.6's
per-draw ``default_rng((seed, k, draw)).choice``, packed, replayed
in-package for all draws at once, so sampled profiles no longer depend
on the installed numpy.  The replay (``_stream``) hashes the seed words
once, steps PCG64 on two uint64 halves, and runs Floyd's steps in one
pass on a per-draw bitset of the values chosen, which is the shell it
returns; the rare draw with a rejected Lemire step is replayed alone,
step by step.  The Monte Carlo shells are refused over
``MC_POSITION_BUDGET`` error positions before any is built.
Probability arithmetic is 64-bit float; binomial coefficients and shell sums are exact integers
converted as late as possible.  A shell sum is a Walsh-Hadamard
coefficient of the shell's signed syndrome state (Jordan et al.,
arXiv:2408.08292): one table lookup per byte of a packed D_k row gives its
syndrome and target parity, and the sum at an assignment counts the rows
whose lookup, masked by the assignment, has odd popcount.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import comb, inf, sqrt

import numpy as np

from ._stream import draw_shell
from .decoder import (
    DECODERS, ConstraintGraph, EvenSets, PathList, _components, build_graph, build_path_list, even_sets,
    pack_positions, pack_rows,
)
from .encoding import XorsatInstance
from .errors import CapacityError, ValidationError

POWER_ITERATION_CAP = 10**5
_CHANGE_TOL = 1e-12
_RESIDUAL_TOL = 1e-11
ENUMERATION_BUDGET = 1 << 21  # even syndromes an exact profile may decode
_DENSITY_CHUNK = 1 << 16  # (assignment, D_k row) parities evaluated at once
DEFAULT_SAMPLES = 2000
# error positions the shells of a Monte Carlo profile may draw or enumerate,
# sum_k min(C(m, k), samples) * k; a 100-car sweep to k = 100 at the default samples draws about 10M
MC_POSITION_BUDGET = 1 << 24


@dataclass(frozen=True)
class DickeWeights:
    """Per-shell weights w_0..w_l: positive, unit-norm principal eigenvector."""

    m: int
    l: int
    w: tuple[float, ...]
    lambda_max: float


def dicke_weights(m: int, l: int) -> DickeWeights:
    """Principal eigenvector of the (l+1)x(l+1) tridiagonal with a_k = sqrt(k(m-k+1)).

    Shifted power iteration (the raw matrix has a symmetric spectrum, so a
    positive diagonal shift makes the top eigenvalue strictly dominant).
    Iterates until the vector change drops below 1e-12 *and* the residual
    ||A w - lambda w||_inf is below 1e-11; the change criterion alone can
    stall an order of magnitude above the residual target.  Raises
    ``CapacityError`` when the iteration cap runs out or the result fails
    its residual or positivity check.
    """
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
        w_next /= sqrt(w_next.dot(w_next))  # numpy's own 1-D norm
        change = float(np.abs(w_next - w).max())
        w = w_next
        if change <= _CHANGE_TOL:
            aw = matvec(w)
            lam = float(w @ aw)
            if float(np.abs(aw - lam * w).max()) <= _RESIDUAL_TOL:
                converged = True
                break
    if not converged:
        raise CapacityError(f"power iteration failed to converge for (m={m}, l={l})")
    if w[0] < 0:
        w = -w
    aw = matvec(w)
    lam = float(w @ aw)
    residual = float(np.abs(aw - lam * w).max())
    if residual > 1e-10 or not np.all(w > 0):
        raise CapacityError(
            f"eigenvector quality check failed for (m={m}, l={l}): residual {residual:.2e}"
        )
    return DickeWeights(m=m, l=l, w=tuple(float(v) for v in w), lambda_max=lam)


def shell_sum_A(k: int, s: int, m: int) -> int:
    """Sum over all weight-k sign patterns with s of m factors positive.

    Closed form 2 * sum_{0 <= 2j <= min(k, m-s)} C(s, k-2j) C(m-s, 2j) - C(m, k):
    a weight-k subset hitting i unsatisfied rows contributes (-1)^i, and
    grouping by even i against the Vandermonde total gives the expression.
    Exact integer arithmetic throughout.
    """
    if not 0 <= k <= m:
        raise ValidationError(f"k={k} out of range 0..{m}")
    if not 0 <= s <= m:
        raise ValidationError(f"s={s} out of range 0..{m}")
    even = sum(
        comb(s, k - 2 * j) * comb(m - s, 2 * j)
        for j in range(0, min(k, m - s) // 2 + 1)
    )
    return 2 * even - comb(m, k)


@dataclass(frozen=True, eq=False)
class FailureProfile:
    """Per-Hamming-weight decoder failure rates for one instance.

    Exact mode retains the correctly decoded sets D_k so signed sums can be
    evaluated later: ``decoded_words[k]`` holds each error of D_k as one row
    of a (|D_k|, ceil(m / 64)) uint64 array, row j of the system being bit
    j % 64 of word j // 64, rows in no particular order.  ``decoded_sets``
    derives 0-based positions from them on request.  Monte Carlo mode keeps
    only the sampled failure fractions.  Shells small enough to enumerate
    are always exact, even in Monte Carlo mode.
    """

    mode: str  # "exact" | "monte_carlo"
    decoder: str
    m: int
    l: int
    eps: tuple[float, ...]
    shell_sizes: tuple[int, ...]
    decoded_words: tuple[np.ndarray, ...] | None = None
    samples_per_shell: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if len(self.eps) != self.l + 1 or len(self.shell_sizes) != self.l + 1:
            raise ValidationError("eps and shell_sizes must have length l+1")
        if self.eps[0] != 0.0:
            raise ValidationError("weight-0 errors always decode: eps[0] must be 0")

    @cached_property
    def decoded_sets(self) -> tuple[np.ndarray, ...] | None:
        """D_k as (|D_k|, k) int64 arrays of 0-based positions, rows in lexicographic order.

        Derived from ``decoded_words`` on first access; None in Monte Carlo mode.
        """
        if self.decoded_words is None:
            return None
        sets = []
        for k, words in enumerate(self.decoded_words):
            bits = np.unpackbits(words.view(np.uint8), axis=1, count=self.m, bitorder="little")
            pos = np.nonzero(bits)[1].astype(np.int64).reshape(len(words), k)
            sets.append(pos[np.lexsort(pos.T[::-1])] if k else pos)
        return tuple(sets)


def _combinations(m: int, k: int) -> np.ndarray:
    """Every weight-k error as a row of words laid out like ``FailureProfile.decoded_words``,
    in lexicographic order of their positions."""
    flat = chain.from_iterable(combinations(range(m), k))
    size = comb(m, k)
    pos = np.fromiter(flat, dtype=np.min_scalar_type(m), count=size * k).reshape(size, k)
    return pack_positions(pos, m)


def _incidence_words(x: XorsatInstance) -> np.ndarray:
    """Row j's two endpoints v as bits of row j of an (m, n_vars // 64 + 1) uint64 array.

    Vertex v is bit v % 64 of word v // 64.  Bit 0 stays clear, so no row is
    0 words wide, and a row's target parity can be folded in there.
    """
    return pack_positions(np.array(x.rows, dtype=np.int64).reshape(x.m, 2), x.n_vars + 1)


def check_exact_budget(x: XorsatInstance, l: int, graph: ConstraintGraph | None = None) -> None:
    """Refuse an exact degree-l profile that would decode over ``ENUMERATION_BUDGET`` syndromes.

    Those are the syndromes T with an even number of vertices in every
    component of the row graph and |T| <= 2l: at most 2^(n-c) for n
    variables in c components.  ``graph``, when given, is ``build_graph(x)``.
    """
    if graph is None:
        graph = build_graph(x)
    # syndromes by size: the product over components of sum_j C(s, 2j) z^(2j)
    count = [1] + [0] * (2 * l)
    for size in Counter(graph.component.values()).values():
        step = [comb(size, j) if j % 2 == 0 else 0 for j in range(2 * l + 1)]
        count = [sum(count[i] * step[t - i] for i in range(t + 1)) for t in range(2 * l + 1)]
    if sum(count) > ENUMERATION_BUDGET:
        raise CapacityError(
            f"exact profile needs {sum(count)} syndromes (> budget {ENUMERATION_BUDGET}); "
            "use the Monte Carlo profile instead"
        )


def exact_syndromes(x: XorsatInstance, l: int, graph: ConstraintGraph | None = None) -> list[EvenSets]:
    """The syndromes an exact degree-l profile decodes, as one ``EvenSets`` batch per component.

    Component c's batch holds its even vertex sets of at most 2l vertices,
    laid out like ``_incidence_words``.  The batches depend only on the
    instance and the degree, so every decoder of an instance can share
    them; the budget is checked before any is built.  ``graph``, when
    given, is ``build_graph(x)``.
    """
    if graph is None:
        graph = build_graph(x)
    check_exact_budget(x, l, graph)
    return [even_sets(verts, x.n_vars, 2 * l) for verts in _components(graph.component)]


def _byte_table(rows: np.ndarray) -> np.ndarray:
    """For every byte position of a packed error and every value of that byte,
    the XOR of the ``rows`` (one per error position) that the byte sets.

    The table takes 256 entries per byte, each as wide as a row.
    """
    span = -(-len(rows) // 8)
    padded = np.zeros((8 * span, rows.shape[1]), dtype=np.uint64)
    padded[: len(rows)] = rows
    table = np.zeros((span, 1, rows.shape[1]), dtype=np.uint64)
    for bit in range(8):  # the entries with this bit set add row 8 * byte + bit
        table = np.concatenate([table, table ^ padded[bit::8, None]], axis=1)
    return table


def _xor_rows(table: np.ndarray, err: np.ndarray) -> np.ndarray:
    """The XOR of the rows each packed error sets: one ``_byte_table`` entry per byte."""
    by = err.view(np.uint8)
    out = np.zeros((len(err), table.shape[2]), dtype=np.uint64)
    for b in range(len(table)):
        out ^= table[b, by[:, b]]
    return out


def _syndromes(x: XorsatInstance, err: np.ndarray) -> np.ndarray:
    """The syndromes of packed errors, as words laid out like ``_incidence_words``."""
    return _xor_rows(_byte_table(_incidence_words(x)), err)


def failure_profile_exact(
    decoder: str,
    x: XorsatInstance,
    l: int,
    paths: PathList | None = None,
    batches: list[EvenSets] | None = None,
) -> FailureProfile:
    """Exact failure rates and correctly decoded sets D_k for every weight k <= l.

    Both decoders see only the syndrome T, so D_k is the set of decoded
    errors dec(T) of weight k whose own syndrome is T.  Both split over the
    components of the row graph, so each component's even vertex sets are
    decoded apart, one batch per component; only |T| <= 2l can matter,
    since a T-join has at least |T|/2 edges.  The batches are
    ``exact_syndromes(x, l)``, built here, budget check first, unless
    ``batches`` passes them in.  The decoder returns each error as uint64
    words; its weight is a popcount and its syndrome is checked against the
    batch's.  One stable counting
    split groups a component's errors by weight, in batch order within a
    weight.  From the second component on, D_k is the weight-join of the
    components so far with this one, each error of weight a there ORed
    with each of weight k - a here.  eps_k = (C(m, k) - |D_k|) / C(m, k).
    Raises CapacityError when the components' syndromes multiply to more
    than ``ENUMERATION_BUDGET`` (at most 2^(n-c) for n variables in c
    components); Monte Carlo mode is the fallback at that point.
    """
    if not 0 <= l <= x.m:
        raise ValidationError(f"degree l={l} out of range 0..{x.m}")
    if decoder not in DECODERS:
        raise ValidationError(f"unknown decoder {decoder!r}")
    if batches is None:
        batches = exact_syndromes(x, l)
    if paths is None:
        paths = build_path_list(build_graph(x))
    table = _byte_table(_incidence_words(x))
    words = (x.m + 63) // 64
    decoded_words = [np.zeros((int(k == 0), words), dtype=np.uint64) for k in range(l + 1)]
    for c, batch in enumerate(batches):
        err = DECODERS[decoder](paths, x, batch)
        weight = np.bitwise_count(err).sum(axis=1, dtype=np.intp)
        keep = np.flatnonzero(weight <= l)
        err, weight = err[keep], weight[keep].astype(np.min_scalar_type(l))
        ok = (_xor_rows(table, err) == batch.syndromes[keep]).all(axis=1)
        err, weight = err[ok], weight[ok]
        err = err[np.argsort(weight, kind="stable")]  # a radix sort on these small integers
        shells = np.split(err, np.cumsum(np.bincount(weight, minlength=l + 1))[:-1])
        if c:  # D_k = U_a D_a(components so far) | D_(k - a)(this one), on disjoint rows
            shells = [np.concatenate([(a[:, None] | b[None]).reshape(len(a) * len(b), words)
                                      for a, b in zip(decoded_words[: k + 1], shells[k::-1])])
                      for k in range(l + 1)]
        decoded_words = shells
    sizes = tuple(comb(x.m, k) for k in range(l + 1))
    return FailureProfile(
        mode="exact",
        decoder=decoder,
        m=x.m,
        l=l,
        eps=tuple((size - len(d_k)) / size for size, d_k in zip(sizes, decoded_words)),
        shell_sizes=sizes,
        decoded_words=tuple(decoded_words),
    )


def _check_draws(m: int, k: int, seed: int, draws: int) -> None:
    if not 0 <= k <= m:
        raise ValidationError(f"weight k={k} out of range 0..{m}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if draws < 0:
        raise ValidationError(f"draws must be >= 0, got {draws}")
    if draws > 1 << 32:
        raise CapacityError(f"{draws} draws exceed 2^32 per shell")
    if m > 10000 and k > m // 50:
        raise CapacityError(
            f"drawing {k} of {m} rows needs numpy's tail shuffle (m > 10000, k > m // 50)"
        )


def sample_shell_error(m: int, k: int, seed: int, draws: int) -> np.ndarray:
    """Deterministic uniform weight-k errors: a (draws, ceil(m / 64)) uint64 array.

    Row i is ``numpy.random.default_rng((seed, k, i)).choice(m, k,
    replace=False)`` of numpy 2.4.6 in packed form, laid out like
    ``FailureProfile.decoded_words`` (position j is bit j % 64 of word
    j // 64), replayed in-package (``_stream``), so the draws no longer
    depend on the installed numpy.  Each draw has its own
    stream, so samples do not depend on evaluation order or worker count, and
    paired runs with the same seed see byte-identical error sets.

    Checked before any draw: k outside 0..m, a negative seed or draws raise
    ``ValidationError``; more than 2^32 draws (draw indices past one 32-bit
    word), or m > 10000 with k > m // 50 (where numpy switches to a tail
    shuffle), raise ``CapacityError``.
    """
    _check_draws(m, k, seed, draws)
    return draw_shell(m, k, seed, draws)


def mc_shells(
    x: XorsatInstance, l: int, samples: int, seed: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """The errors a Monte Carlo profile scores, and their syndromes.

    The errors come as one (rows, ceil(m / 64)) uint64 array per shell
    k <= l, laid out like ``FailureProfile.decoded_words``.  Shells with at
    most ``samples`` errors are enumerated exactly instead;
    draws are independent, so an error can be sampled more than once.  Each
    drawn shell is one ``sample_shell_error`` call, and its refusals are
    checked for the heaviest drawn shell before any shell is drawn or
    enumerated, as is ``MC_POSITION_BUDGET``: shells holding more error
    positions in all raise ``CapacityError``.  A negative seed raises
    ``ValidationError`` even when every shell is enumerated.  The errors
    depend on (m, l, samples, seed) only, never on the decoder.  The
    syndromes of all shells, in order, are one (rows, n_vars // 64 + 1)
    uint64 array laid out like ``_incidence_words``, from one XOR pass.
    """
    m = x.m
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    if not 0 <= l <= m:
        raise ValidationError(f"degree l={l} out of range 0..{m}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    sizes = [comb(m, k) for k in range(l + 1)]
    drawn = [k for k, size in enumerate(sizes) if size > samples]
    if drawn:  # whatever refuses a drawn shell refuses the heaviest one
        _check_draws(m, drawn[-1], seed, samples)
    positions = sum(min(size, samples) * k for k, size in enumerate(sizes))
    if positions > MC_POSITION_BUDGET:
        raise CapacityError(
            f"Monte Carlo shells hold {positions} error positions (> budget "
            f"{MC_POSITION_BUDGET}); lower the samples or the degree"
        )
    shells = [
        sample_shell_error(m, k, seed, samples) if size > samples else _combinations(m, k)
        for k, size in enumerate(sizes)
    ]
    return shells, _syndromes(x, np.concatenate(shells))


def failure_profile_mc(
    decoder: str,
    x: XorsatInstance,
    l: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    paths: PathList | None = None,
    shells: tuple[list[np.ndarray], np.ndarray] | None = None,
) -> FailureProfile:
    """Monte Carlo failure rates: a fixed number of uniform errors per shell.

    The errors and their syndromes are ``mc_shells(x, l, samples, seed)``,
    drawn here unless ``shells`` passes that pair in, already drawn.  An
    error fails when the decoder does not return its own words.  All rows
    are decoded in one batch, as they are: the decoders are deterministic
    per row, and almost every drawn syndrome is distinct, so removing
    repeats would cost more than decoding them.
    """
    errors, syndromes = mc_shells(x, l, samples, seed) if shells is None else shells
    if decoder not in DECODERS:
        raise ValidationError(f"unknown decoder {decoder!r}")
    if paths is None:
        paths = build_path_list(build_graph(x))
    bounds = np.cumsum([len(e) for e in errors])[:-1]
    decoded = np.split(DECODERS[decoder](paths, x, syndromes), bounds)
    return FailureProfile(
        mode="monte_carlo",
        decoder=decoder,
        m=x.m,
        l=l,
        eps=tuple(int((d != e).any(axis=1).sum()) / len(e) for d, e in zip(decoded, errors)),
        shell_sizes=tuple(comb(x.m, k) for k in range(l + 1)),
        samples_per_shell=samples,
        seed=seed,
    )


def _check_weights_profile(weights: DickeWeights, profile: FailureProfile, m: int):
    if weights.m != m or profile.m != m:
        raise ValidationError("weights/profile built for a different constraint count")
    if weights.l > profile.l:
        raise ValidationError(
            f"profile covers degrees up to {profile.l} < weights degree {weights.l}"
        )


def normalization(weights: DickeWeights, profile: FailureProfile) -> float:
    """Post-selection renormalization: sum of w_k^2 (1 - eps_k) up to the weights' degree."""
    return sum(
        wk * wk * (1.0 - profile.eps[k]) for k, wk in enumerate(weights.w)
    )


def _densities(x: XorsatInstance, assigns, weights: DickeWeights, profile: FailureProfile) -> np.ndarray:
    """Exact measurement density of each assignment, one row of ``assigns`` each.

    Per shell k the retained errors y contribute the signed sum
    sum_{y in D_k} prod_{rows flipped by y} (+1 if the row is satisfied by
    the assignment else -1); the density is the weighted sum of squared
    shell sums over the renormalization and the 2^n uniform factor.  That
    product is (-1)^(<y, targets> + <T(y), x>) for the syndrome T(y), the
    parity of popcount(s & a) for y's signed syndrome s and the assignment
    mask a with bit 0 set.  The signed syndromes come straight from the
    packed rows of ``profile.decoded_words``: a ``_byte_table`` over the
    incidence words with each row's target in bit 0 gives T(y) and the
    target parity in one lookup per byte, built once per call and read one
    shell at a time.  So a shell sum is an integer, |D_k| minus twice its
    odd rows, counted for about ``_DENSITY_CHUNK`` (assignment, row) pairs
    at a time.
    """
    if profile.mode != "exact" or profile.decoded_words is None:
        raise ValidationError("exact density needs an exact profile with decoded sets")
    _check_weights_profile(weights, profile, x.m)
    assigns = [tuple(int(b) for b in a) for a in assigns]
    for a in assigns:
        if len(a) != x.n_vars:
            raise ValidationError(f"assignment length {len(a)} != n_vars = {x.n_vars}")
    bits = np.ones((len(assigns), x.n_vars + 1), dtype=np.uint8)
    bits[:, 1:] = np.array(assigns, dtype=np.int64).reshape(len(assigns), x.n_vars) != 0
    masks = pack_rows(bits)
    words = masks.shape[1]
    signed = _incidence_words(x)
    signed[:, 0] |= np.array(x.targets, dtype=np.uint64)
    table = _byte_table(signed)
    inner = np.zeros((len(assigns), len(weights.w)), dtype=np.int64)
    for k, d_k in enumerate(profile.decoded_words[: len(weights.w)]):
        syn = _xor_rows(table, d_k)
        step = max(1, _DENSITY_CHUNK // max(len(syn), 1))
        for lo in range(0, len(assigns), step):
            chunk = masks[lo : lo + step]
            folded = syn[:, 0] & chunk[:, :1]
            for w in range(1, words):
                folded ^= syn[:, w] & chunk[:, w : w + 1]
            odd = np.count_nonzero(np.bitwise_count(folded) & 1, axis=1)
            inner[lo : lo + step, k] = len(syn) - 2 * odd
    total = np.zeros(len(assigns))
    for k, wk in enumerate(weights.w):
        shell = inner[:, k].astype(np.float64)
        total += wk * wk * shell * shell / float(profile.shell_sizes[k])
    return total / (normalization(weights, profile) * 2.0**x.n_vars)


def p_exact(
    x: XorsatInstance, assign, weights: DickeWeights, profile: FailureProfile
) -> float:
    """Exact measurement density of one assignment: ``_densities`` of a batch of one."""
    return float(_densities(x, [assign], weights, profile)[0])


def p_approx(
    s: int, weights: DickeWeights, profile: FailureProfile, n: int
) -> float:
    """Approximate density of any assignment satisfying s constraints.

    Assumes correctly decoded errors are spread uniformly over each shell,
    which turns every shell sum into (1 - eps_k) times the closed-form
    shell sum at s.
    """
    m = profile.m
    if not 0 <= s <= m:
        raise ValidationError(f"s={s} out of range 0..{m}")
    _check_weights_profile(weights, profile, m)
    r_norm = normalization(weights, profile)
    total = 0.0
    for k, wk in enumerate(weights.w):
        a_ks = shell_sum_A(k, s, m)
        frac = 1.0 - profile.eps[k]
        total += wk * wk * frac * frac * ((a_ks * a_ks) / comb(m, k))
    return total / (r_norm * 2.0**n)


@dataclass(frozen=True)
class DqiEstimate:
    """Probability of measuring an optimum and the induced cost chain."""

    p_opt: float
    c_opt: float  # expected repetitions, 1/p_opt
    c_dqi: float  # gate cost of one preparation
    c_total: float  # c_opt * c_dqi
    l: int
    normalization: float

    def __post_init__(self):
        if not (self.p_opt == 0.0 or 0.0 < self.p_opt <= 1.0 + 1e-12):
            raise ValidationError(f"p_opt {self.p_opt} outside (0, 1]")


def _estimate(p_opt: float, c_dqi: float, l: int, r_norm: float) -> DqiEstimate:
    if c_dqi <= 0:
        raise ValidationError("c_dqi must be positive")
    if p_opt <= 0.0:
        # decoder never post-selects onto an optimum: flag infinite cost
        return DqiEstimate(
            p_opt=0.0, c_opt=inf, c_dqi=c_dqi, c_total=inf, l=l, normalization=r_norm
        )
    return DqiEstimate(
        p_opt=p_opt,
        c_opt=1.0 / p_opt,
        c_dqi=c_dqi,
        c_total=c_dqi / p_opt,
        l=l,
        normalization=r_norm,
    )


def p_opt_exact(
    x: XorsatInstance,
    s_opt_assignments,
    weights: DickeWeights,
    profile: FailureProfile,
    c_dqi: float,
) -> DqiEstimate:
    """Sum the exact density over the optimal assignments.

    The density is generally not constant across optima (failures break the
    symmetry), so it is evaluated per optimum, all in one ``_densities`` batch.
    """
    s_opt_assignments = list(s_opt_assignments)
    if not s_opt_assignments:
        raise ValidationError("the set of optimal assignments must be nonempty")
    p_opt = sum(_densities(x, s_opt_assignments, weights, profile).tolist())
    return _estimate(p_opt, c_dqi, weights.l, normalization(weights, profile))


def p_opt_approx(
    count: int,
    s_opt: int,
    weights: DickeWeights,
    profile: FailureProfile,
    n: int,
    c_dqi: float,
) -> DqiEstimate:
    """Approximate optimum probability: |S_opt| times the density at s_opt."""
    if count < 1:
        raise ValidationError("the set of optimal assignments must be nonempty")
    p_opt = count * p_approx(s_opt, weights, profile, n)
    return _estimate(p_opt, c_dqi, weights.l, normalization(weights, profile))


def default_degree(n: int, m: int) -> int:
    """Default polynomial degree: floor(2n/5), at least 1, at most min(n, m)."""
    if m < 1:
        raise ValidationError("degree rule needs at least one constraint")
    return min(max(1, (2 * n) // 5), n, m)
