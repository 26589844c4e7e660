"""Directed follower graph, pairwise influence probabilities, and the
independent-cascade spread of event interest.

Edges read "x follows y": y's posts reach x, so influence travels from the
followed (poster) to the follower. The probability that poster ``a``
activates follower ``b`` averages three components: age-group closeness,
same-category membership, and contact-point proximity normalized against
``b``'s least proximate connection.

Cascade coin flips are stateless, keyed by (event, poster, follower), which
makes outcomes independent of traversal order and lets paired runs reuse the
exact same coins.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .city import haversine_km
from .engine import RngStreams, mix64
from .population import Human

# social-media follower-count shape: (min, max, mean) at the reference
# population size; desk-scale runs shrink these proportionally.
DEFAULT_DEGREE_PARAMS = (1, 5000, 500)
DEGREE_REFERENCE_POPULATION = 100_000

MEAN_TOLERANCE = 0.05


class InfeasibleDegreeError(ValueError):
    pass


def scaled_degree_params(n: int, base: tuple[int, int, int] = DEFAULT_DEGREE_PARAMS,
                         base_population: int = DEGREE_REFERENCE_POPULATION) -> tuple[int, int, int]:
    """Shrink (min, max, mean) linearly with population size."""
    ratio = n / base_population
    dmin = max(1, round(base[0] * ratio)) if base[0] > 1 else base[0]
    dmax = max(dmin + 1, round(base[1] * ratio))
    dmean = max(dmin, round(base[2] * ratio))
    return (dmin, min(dmax, n - 1), dmean)


# influence components


def similar_age_influence(a: Human, b: Human) -> float:
    return 1 - abs(a.age_group - b.age_group) / 6


def similar_class_influence(a: Human, b: Human) -> float:
    return 1.0 if a.category == b.category else 0.0


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


def proximity_influence(a: Human, b: Human, graph: "SocialGraph") -> float:
    """How near ``a`` is to ``b`` relative to ``b``'s least proximate connection.

    The least proximate (farthest) connection scores 0. An infinite farthest
    distance makes any finite-proximity connection score 1; if ``a`` is also
    at infinite proximity the pair scores 0.
    """
    prox = proximity(a, b)
    lpc = graph.least_proximate(b.id)
    if prox == lpc:
        return 0.0
    if math.isinf(lpc):
        return 1.0
    return 1 - prox / lpc


def influence_probability(a: Human, b: Human, graph: "SocialGraph") -> float:
    """Probability that poster ``a`` activates follower ``b`` (``b`` follows ``a``)."""
    return (similar_age_influence(a, b)
            + similar_class_influence(a, b)
            + proximity_influence(a, b, graph)) / 3.0


class SocialGraph:
    """Immutable follower graph with per-edge activation probabilities.

    ``following[x]`` lists the nodes x follows (sorted); ``probs[x][i]`` is
    the probability that following[x][i] activates x. ``followers[y]`` is the
    reverse adjacency used when y posts.
    """

    def __init__(self, following: list[list[int]], probs: list[list[float]],
                 humans: Optional[list[Human]] = None,
                 lpc: Optional[list[float]] = None):
        self.n = len(following)
        self.following = following
        self.probs = probs
        self.humans = humans
        self._lpc = lpc
        self.followers: list[list[int]] = [[] for _ in range(self.n)]
        for x, targets in enumerate(following):
            for y in targets:
                self.followers[y].append(x)

    def edge_probability(self, follower: int, followed: int) -> float:
        targets = self.following[follower]
        i = bisect_left(targets, followed)
        if i == len(targets) or targets[i] != followed:
            raise KeyError(f"no edge {follower} -> {followed}")
        return self.probs[follower][i]

    def least_proximate(self, node: int) -> float:
        if self._lpc is None:
            raise ValueError("graph was built without proximity data")
        return self._lpc[node]

    def edge_count(self) -> int:
        return sum(len(t) for t in self.following)

    def dump(self, path: str) -> None:
        """Edge list: one `follower followed probability` line per edge."""
        with open(path, "w") as fh:
            for x, targets in enumerate(self.following):
                for y, p in zip(targets, self.probs[x]):
                    fh.write(f"{x} {y} {p!r}\n")

    @classmethod
    def load(cls, path: str) -> "SocialGraph":
        edges: dict[int, list[tuple[int, float]]] = {}
        n = 0
        with open(path) as fh:
            for line in fh:
                parts = line.split()
                if not parts:
                    continue
                x, y, p = int(parts[0]), int(parts[1]), float(parts[2])
                edges.setdefault(x, []).append((y, p))
                n = max(n, x + 1, y + 1)
        following = [[] for _ in range(n)]
        probs = [[] for _ in range(n)]
        for x, lst in edges.items():
            lst.sort()
            following[x] = [y for y, _ in lst]
            probs[x] = [p for _, p in lst]
        return cls(following, probs)


def _sample_degrees(n: int, dmin: int, dmax: int, dmean: float, gen,
                    max_attempts: int = 200) -> np.ndarray:
    """Exponential friend counts clamped to [dmin, dmax], redrawn until the
    empirical mean lands within 5% of the target."""
    for _ in range(max_attempts):
        draws = np.rint(gen.exponential(scale=dmean, size=n)).astype(np.int64)
        degrees = np.clip(draws, dmin, dmax)
        if abs(float(degrees.mean()) - dmean) <= MEAN_TOLERANCE * dmean:
            return degrees
    raise RuntimeError(f"degree sampling failed to hit mean {dmean} within "
                       f"{MEAN_TOLERANCE:.0%} after {max_attempts} attempts")


def generate_graph(population: Sequence[Human], streams: RngStreams,
                   degree_params: tuple[int, int, int] = DEFAULT_DEGREE_PARAMS,
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
    gen = streams.generator("graph")
    degrees = _sample_degrees(n, dmin, dmax, dmean, gen)
    following: list[list[int]] = []
    for x in range(n):
        following.append(_draw_targets(gen, n, x, int(degrees[x])))

    humans = list(population)
    if constant_probability is not None:
        probs = [[constant_probability] * len(t) for t in following]
        return SocialGraph(following, probs, humans=humans)
    lpc: list[float] = []
    probs = []
    for x in range(n):
        prox = [proximity(humans[y], humans[x]) for y in following[x]]
        worst = max(prox)
        lpc.append(worst)
        row = []
        for y, d in zip(following[x], prox):
            if d == worst:
                pi = 0.0
            elif math.isinf(worst):
                pi = 1.0
            else:
                pi = 1 - d / worst
            row.append((similar_age_influence(humans[y], humans[x])
                        + similar_class_influence(humans[y], humans[x])
                        + pi) / 3.0)
        probs.append(row)
    return SocialGraph(following, probs, humans=humans, lpc=lpc)


def _draw_targets(gen, n: int, x: int, want: int) -> list[int]:
    """First ``want`` distinct uniform draws over [0, n) minus x, sorted."""
    kept = np.empty(0, dtype=np.int64)
    while len(kept) < want:
        batch = gen.integers(0, n, size=(want - len(kept)) + max(8, want // 16))
        arr = np.concatenate([kept, batch[batch != x]])
        _, idx = np.unique(arr, return_index=True)
        kept = arr[np.sort(idx)][:want]  # distinct, in draw order
    return sorted(int(v) for v in kept)


@dataclass
class ActivationState:
    """Cascade bookkeeping for one event; survives across seed arrivals."""

    event_key: int
    active: set[int] = field(default_factory=set)
    frontier: set[int] = field(default_factory=set)
    steps: int = 0

    def absorb(self, graph: SocialGraph, seeds: Iterable[int], streams: RngStreams) -> set[int]:
        """Add seeds and run synchronous spread steps until nothing new
        activates. Returns every node activated by this call."""
        fresh = {s for s in seeds if s not in self.active}
        self.active |= fresh
        newly = set(fresh)
        frontier = fresh
        while frontier:
            self.frontier = frontier
            self.steps += 1
            nxt: set[int] = set()
            for poster in frontier:
                for follower in graph.followers[poster]:
                    if follower in self.active or follower in nxt:
                        continue
                    p = graph.edge_probability(follower, poster)
                    if streams.keyed_uniform("cascade", self.event_key, poster, follower) < p:
                        nxt.add(follower)
            self.active |= nxt
            newly |= nxt
            frontier = nxt
        self.frontier = set()
        return newly


def cascade(graph: SocialGraph, seeds: Iterable[int], event_key: int,
            streams: RngStreams) -> set[int]:
    """One-shot independent cascade from a seed set."""
    state = ActivationState(event_key)
    state.absorb(graph, seeds, streams)
    return state.active


# vectorized splitmix64, bit-identical to engine.splitmix64 / engine.mix64


def _np_splitmix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        z = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _np_mix_step(h: np.ndarray, value: np.ndarray | int) -> np.ndarray:
    with np.errstate(over="ignore"):
        return _np_splitmix64(h ^ np.uint64(value) if np.isscalar(value) else h ^ value)


def keyed_uniform_batch(streams: RngStreams, name: str, fixed_prefix: tuple[int, ...],
                        varying: np.ndarray, suffix: tuple[int, ...] = ()) -> np.ndarray:
    """Vector of keyed uniforms equal to ``streams.keyed_uniform(name,
    *fixed_prefix, v, *suffix)`` for each v in ``varying``."""
    from .engine import _name_key  # same derivation as the scalar path
    prefix = mix64(streams._base(name), _name_key(name), *fixed_prefix)
    h = np.full(varying.shape, prefix, dtype=np.uint64)
    h = _np_mix_step(h, varying.astype(np.uint64))
    for v in suffix:
        h = _np_mix_step(h, v)
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53


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
    edges = [(poster, follower, graph.edge_probability(follower, poster))
             for follower in range(n) for poster in graph.following[follower]]
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
