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
from itertools import chain, islice
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

    def followers_of(self, poster: int) -> tuple[np.ndarray, np.ndarray]:
        """The followers of ``poster`` and their activation probabilities."""
        lo, hi = self.indptr[poster], self.indptr[poster + 1]
        return self.follower_ids[lo:hi], self.edge_probs[lo:hi]

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
    targets = (_draw_targets(gen, n, x, want) for x, want in enumerate(degrees.tolist()))
    posters = np.fromiter(chain.from_iterable(targets), dtype=np.int64, count=int(out_ptr[-1]))
    if constant_probability is not None:
        probs = np.full(len(posters), constant_probability, dtype=np.float64)
        return SocialGraph(out_ptr, posters, probs)
    return SocialGraph(out_ptr, posters, *_influence_edges(population, out_ptr, posters))


def _draw_targets(gen, n: int, x: int, want: int) -> list[int]:
    """First ``want`` distinct uniform draws over [0, n) minus x, sorted."""
    kept: dict[int, None] = {}  # distinct, in draw order
    while len(kept) < want:
        batch = gen.integers(0, n, size=(want - len(kept)) + max(8, want // 16))
        kept.update(dict.fromkeys(batch.tolist()))
        kept.pop(x, None)
    return sorted(islice(kept, want))


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
    for poster in posters:
        followers, probs = graph.followers_of(poster)
        coins = keyed_uniform_batch(streams, "cascade", (event_key, poster), followers)
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


def cascade_trial_batch(graph: SocialGraph, seeds: Iterable[int], trials: int,
                        streams: RngStreams, event_key_base: int = 0,
                        return_masks: bool = False):
    """Per-node activation counts over Monte-Carlo cascades.

    Trial t replays exactly ``cascade(graph, seeds, event_key_base + t,
    streams)``: same coins, same result, just evaluated for all trials at
    once via live-edge reachability. Needs a graph small enough for bitmask
    state (≤ 63 nodes). Returns an (n,) array of activation counts, plus the
    per-trial node bitmasks when asked.
    """
    n = graph.n
    if n > 63:
        raise ValueError("bitmask trial batch supports at most 63 nodes")
    seed_mask = np.uint64(0)
    for s in seeds:
        seed_mask |= np.uint64(1) << np.uint64(s)
    t_keys = np.arange(trials, dtype=np.uint64) + np.uint64(event_key_base)
    # open[e, t]: edge e's coin succeeds in trial t
    posters = np.repeat(np.arange(n), np.diff(graph.indptr))
    edges = list(zip(posters.tolist(), graph.follower_ids.tolist(), graph.edge_probs.tolist()))
    opens = []
    for poster, follower, p in edges:
        u = keyed_uniform_batch(streams, "cascade", (), t_keys, suffix=(poster, follower))
        opens.append(u < p)
    active = np.full(trials, seed_mask, dtype=np.uint64)
    for _ in range(n):
        prev = active
        for (poster, follower, _), open_e in zip(edges, opens):
            fires = ((active >> np.uint64(poster)) & np.uint64(1)).astype(bool) & open_e
            active = active | np.where(fires, np.uint64(1) << np.uint64(follower), np.uint64(0))
        if np.array_equal(active, prev):
            break
    counts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        counts[i] = int((((active >> np.uint64(i)) & np.uint64(1)) != 0).sum())
    if return_masks:
        return counts, active
    return counts
