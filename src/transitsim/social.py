"""Directed follower graph, pairwise influence probabilities, and the
independent-cascade spread of event interest.

Edges read "x follows y": y's posts reach x, so influence travels from the
followed (poster) to the follower. The probability that poster ``a``
activates follower ``b`` averages three components: age-group closeness,
same-category membership, and contact-point proximity normalized against
``b``'s least proximate connection.

Cascade coin flips are stateless, keyed by (event, poster, follower), which
makes outcomes independent of traversal order and lets paired runs reuse the
exact same coins. One spread round (``spread``) serves both the batch
cascade and the simulator, which runs one round per feed cycle.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .city import haversine_km, haversine_km_array, radians_and_cos
from .config import ConfigError
from .engine import RngStreams, keyed_uniform_batch
from .population import Human

MEAN_TOLERANCE = 0.05

# followers per array pass in generate_graph: bounds the per-edge temporaries,
# which for a whole crowd-sized graph at once would raise the run's peak memory
_BLOCK = 2048
# posters per coin pass of spread: bounds the per-edge arrays of a round
_POSTERS = 256


class InfeasibleDegreeError(ConfigError):
    """Degree settings no follower graph of this population can meet."""


# influence components: each reads two Humans or two _Columns alike


def similar_age_influence(a: Human, b: Human) -> float:
    return 1 - abs(a.age_group - b.age_group) / 6


def similar_class_influence(a: Human, b: Human) -> float:
    return (a.category == b.category) * 1.0


def proximity(a: Human, b: Human) -> float:
    """Meters between the closest matching contact points, inf if none match."""
    best = math.inf
    if a.home is not None and b.home is not None:
        best = haversine_km(a.home, b.home) * 1000.0
    if a.office is not None and b.office is not None:
        best = min(best, haversine_km(a.office, b.office) * 1000.0)
    if a.school is not None and b.school is not None:
        best = min(best, haversine_km(a.school, b.school) * 1000.0)
    return best


def influence(a: Human, b: Human, prox, farthest):
    """Probability that poster ``a`` activates follower ``b`` (``b`` follows
    ``a``), given ``prox = proximity(a, b)`` and the proximity of ``b``'s
    least proximate (farthest) connection.

    The proximity component scores how near ``a`` is relative to that
    connection, which itself scores 0. An infinite farthest distance makes
    any finite-proximity connection score 1; if ``a`` is also at infinite
    proximity the pair scores 0.

    The one formula of the model, written for arrays: ``a`` and ``b`` may
    also be ``_Columns`` of many pairs, with arrays ``prox`` and
    ``farthest``, and each pair scores as it would alone.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        near = np.where(prox == farthest, 0.0,
                        np.where(np.isinf(farthest), 1.0, 1 - np.divide(prox, farthest)))
    return (similar_age_influence(a, b) + similar_class_influence(a, b) + near) / 3.0


def influence_probability(a: Human, b: Human, graph: "SocialGraph") -> float:
    """Probability that poster ``a`` activates follower ``b`` in ``graph``."""
    return float(influence(a, b, proximity(a, b), graph.least_proximate(b.id)))


class _Columns(NamedTuple):
    """The age groups and category codes of many humans, read by the
    influence components as they read a Human's fields."""

    age_group: np.ndarray
    category: np.ndarray

    def take(self, ids: np.ndarray) -> "_Columns":
        return _Columns(self.age_group[ids], self.category[ids])


class SocialGraph:
    """Immutable follower graph with per-edge activation probabilities, held
    as CSR arrays.

    Follower x follows the posters ``posters[out_ptr[x]:out_ptr[x + 1]]``
    (ascending id), and the constructor's ``probs`` at the same positions is
    the probability that each of them activates x. The graph keeps the
    reverse adjacency a post travels along: the followers of poster y are
    ``follower_ids[indptr[y]:indptr[y + 1]]`` in ascending id, with their
    activation probabilities at the same positions of ``edge_probs``.
    """

    def __init__(self, out_ptr: np.ndarray, posters: np.ndarray, probs: np.ndarray,
                 lpc: Optional[np.ndarray] = None):
        self.n = len(out_ptr) - 1
        self.out_ptr = out_ptr
        self.posters = posters
        self._lpc = lpc
        # a stable sort keeps each poster's followers in ascending id
        order = np.argsort(posters, kind="stable")
        self.indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(posters, minlength=self.n), out=self.indptr[1:])
        self.follower_ids = np.repeat(np.arange(self.n, dtype=np.int64),
                                      np.diff(out_ptr))[order]
        self.edge_probs = np.asarray(probs, dtype=np.float64)[order]

    @cached_property
    def following(self) -> list[list[int]]:
        """``following[x]`` lists the nodes x follows (sorted), built on
        first read."""
        flat = self.posters.tolist()
        bounds = self.out_ptr.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    def edges_from(self, posters: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges out of each of ``posters`` in turn, followers in
        ascending id: the poster, the follower and the activation
        probability of each."""
        lo, hi = self.indptr[posters], self.indptr[posters + 1]
        count = hi - lo
        edges = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)
        return np.repeat(posters, count), self.follower_ids[edges], self.edge_probs[edges]

    def least_proximate(self, node: int) -> float:
        if self._lpc is None:
            raise ValueError("graph was built without proximity data")
        return float(self._lpc[node])

    def edge_count(self) -> int:
        return int(self.indptr[-1])


def _sample_degrees(n: int, dmin: int, dmax: int, dmean: float, gen,
                    max_attempts: int = 200) -> np.ndarray:
    """Exponential friend counts clamped to [dmin, dmax], redrawn until the
    empirical mean lands within 5% of the target."""
    for _ in range(max_attempts):
        draws = np.rint(gen.exponential(scale=dmean, size=n)).astype(np.int64)
        degrees = np.clip(draws, dmin, dmax)
        if abs(float(degrees.mean()) - dmean) <= MEAN_TOLERANCE * dmean:
            return degrees
    raise InfeasibleDegreeError(f"degree sampling failed to hit mean {dmean} within "
                                f"{MEAN_TOLERANCE:.0%} after {max_attempts} attempts")


def generate_graph(population: Sequence[Human], streams: RngStreams,
                   degree_params: tuple[int, int, float],
                   constant_probability: Optional[float] = None) -> SocialGraph:
    """Build the follower graph for a population.

    Follow targets are uniform over the other humans, without repeats. With
    ``constant_probability`` set, every edge gets that probability instead of
    the influence model (used for model comparison).
    """
    n = len(population)
    if n == 0:
        raise ValueError("population must be non-empty")
    dmin, dmax, dmean = degree_params
    if dmax >= n:
        raise InfeasibleDegreeError(
            f"max degree {dmax} needs at least {dmax + 1} humans, got {n}")
    if not (1 <= dmin <= dmax):
        raise InfeasibleDegreeError(f"bad degree bounds ({dmin}, {dmax})")
    if not (dmin <= dmean <= dmax):
        raise InfeasibleDegreeError(f"mean degree {dmean} outside [{dmin}, {dmax}]")
    gen = streams.generator("graph")
    degrees = _sample_degrees(n, dmin, dmax, dmean, gen)
    out_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=out_ptr[1:])
    posters = _follow_targets(gen, n, degrees)
    if constant_probability is not None:
        probs = np.full(len(posters), constant_probability, dtype=np.float64)
        return SocialGraph(out_ptr, posters, probs)
    return SocialGraph(out_ptr, posters, *_influence_edges(population, out_ptr, posters))


def _follow_targets(gen, n: int, degrees: np.ndarray) -> np.ndarray:
    """The posters each follower x follows, ascending, in follower order:
    the first ``degrees[x]`` distinct values other than x that ``gen``
    draws uniform over [0, n) for x, in batches.

    Each follower's first batch holds ``want + max(8, want // 16)`` draws for
    ``want`` targets, and the first batches of a block of followers are one
    ``gen.integers`` call, which reads the stream as the calls one at a time
    would. One stable sort of (follower, value) per block finds each
    follower's distinct values in draw order. A follower whose batch falls
    short continues the stream with a batch of ``max(8, want // 16)`` more
    draws than it still needs, until it has ``want``; the block's draws past
    its first batch are then drawn again from the stream after it.
    """
    sizes = degrees + np.maximum(8, degrees // 16)
    pieces = []
    lo = 0
    while lo < n:
        hi = min(lo + _BLOCK, n)
        state = gen.bit_generator.state
        size, want = sizes[lo:hi], degrees[lo:hi]
        drawn = gen.integers(0, n, size=int(size.sum()))
        owner = np.repeat(np.arange(lo, hi), size)
        key = owner * n + drawn
        order = np.argsort(key, kind="stable")
        repeat = np.zeros(len(drawn), dtype=bool)  # drawn before by the same follower
        repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
        fresh = ~repeat & (drawn != owner)
        seen = np.concatenate(([0], np.cumsum(fresh)))  # fresh values before each draw
        first = np.concatenate(([0], np.cumsum(size)))  # each follower's first draw
        before = seen[first[:-1]]
        # a fresh value is kept while its follower has fewer than ``want``
        keep = fresh & (seen[1:] - np.repeat(before, size) <= np.repeat(want, size))
        short = np.flatnonzero(seen[first[1:]] - before < want)
        done = hi if len(short) == 0 else lo + int(short[0])
        kept = order[keep[order]]  # by follower, then value
        pieces.append(drawn[kept[:int(want[:done - lo].sum())]])
        if done == hi:
            lo = hi
            continue
        # follower ``done`` falls short: take the stream back to the end of
        # its first batch and continue it
        gen.bit_generator.state = state
        gen.integers(0, n, size=int(sizes[lo:done + 1].sum()))
        x, need = done, int(want[done - lo])
        targets = dict.fromkeys(drawn[(owner == x) & fresh].tolist())
        while len(targets) < need:
            batch = gen.integers(0, n, size=(need - len(targets)) + max(8, need // 16))
            targets.update(dict.fromkeys(batch.tolist()))
            targets.pop(x, None)
        pieces.append(np.array(sorted(islice(targets, need)), dtype=np.int64))
        lo = x + 1
    return np.concatenate(pieces)


def _influence_edges(population: Sequence[Human], out_ptr: np.ndarray, posters: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Each edge's influence probability, at its position in ``posters``,
    and each follower's least proximate connection.

    Proximity, its per-follower maximum and the influence model are array
    passes over blocks of followers, equal bit for bit to ``proximity`` and
    ``influence`` pair by pair.
    """
    contacts = []
    for kind in ("home", "office", "school"):
        points = [getattr(h, kind) for h in population]
        has = np.array([p is not None for p in points])
        lat = np.array([0.0 if p is None else p.lat for p in points])
        lon = np.array([0.0 if p is None else p.lon for p in points])
        contacts.append((has, radians_and_cos(lat, lon)))
    codes: dict[str, int] = {}
    people = _Columns(np.array([h.age_group for h in population]),
                      np.array([codes.setdefault(h.category, len(codes)) for h in population]))
    n = len(out_ptr) - 1
    probs = np.empty(len(posters))
    lpc = np.empty(n)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        a, b = out_ptr[lo], out_ptr[hi]
        degree = np.diff(out_ptr[lo:hi + 1])
        block = posters[a:b]
        followers = np.repeat(np.arange(lo, hi), degree)
        prox = np.full(len(block), math.inf)
        for has, polar in contacts:
            both = np.flatnonzero(has[block] & has[followers])
            km = haversine_km_array(polar[:, block[both]], polar[:, followers[both]])
            prox[both] = np.minimum(prox[both], km * 1000.0)
        farthest = np.maximum.reduceat(prox, out_ptr[lo:hi] - a)
        probs[a:b] = influence(people.take(block), people.take(followers), prox,
                               np.repeat(farthest, degree))
        lpc[lo:hi] = farthest
    return probs, lpc


def spread(graph: SocialGraph, active: set[int], posters: Iterable[int], event_key: int,
           streams: RngStreams, accept: Optional[Callable[[int], bool]] = None) -> list[int]:
    """One cascade round: every poster tries each of its followers once.

    A follower activates when its keyed (event, poster, follower) coin is
    below the edge probability, it is not active yet, and ``accept``, if
    given, admits it; these are checked in that order. Posters are taken in
    the given order and their followers in ascending id, so a follower that
    ``accept`` declines can still be reached through a later poster's edge.
    The newly active nodes are added to ``active`` and returned in the order
    they activated: they post in the next round.
    """
    fresh: list[int] = []
    posters = np.fromiter(posters, dtype=np.int64)
    for lo in range(0, len(posters), _POSTERS):
        by, followers, probs = graph.edges_from(posters[lo:lo + _POSTERS])
        coins = keyed_uniform_batch(streams, "cascade", (event_key,), np.stack((by, followers)))
        for follower in followers[coins < probs].tolist():
            if follower not in active and (accept is None or accept(follower)):
                active.add(follower)
                fresh.append(follower)
    return fresh


def cascade(graph: SocialGraph, seeds: Iterable[int], event_key: int,
            streams: RngStreams) -> set[int]:
    """One-shot independent cascade from a seed set: spread rounds until
    nothing new activates. Returns every active node, seeds included."""
    active = set(seeds)
    frontier = sorted(active)
    while frontier:
        frontier = spread(graph, active, frontier, event_key, streams)
    return active
