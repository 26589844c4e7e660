import hashlib
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transitsim.city import BoundingBox, GeoPoint, haversine_km
from transitsim.cli import build_world
from transitsim.config import load_scenario
from transitsim.engine import RngStreams
from transitsim.population import Human, generate_population
import transitsim.social as social
from transitsim.social import (
    InfeasibleDegreeError,
    SocialGraph,
    _sample_degrees,
    cascade,
    generate_graph,
    influence,
    influence_probability,
    proximity,
    similar_age_influence,
    similar_class_influence,
    spread,
)

import oracles
from oracles import cascade_trial_batch, keyed_uniform

BBOX = BoundingBox(1.24, 103.6, 1.46, 103.99)
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def human(i, cat="student", age=2, home=(1.30, 103.80), office=None, school=None):
    return Human(i, cat, age,
                 GeoPoint(*home),
                 GeoPoint(*office) if office else None,
                 GeoPoint(*school) if school else None)


def test_similar_age_influence():
    assert similar_age_influence(human(0, age=3), human(1, age=3)) == 1.0
    assert similar_age_influence(human(0, age=1), human(1, age=6)) == 1 - 5 / 6
    assert similar_age_influence(human(0, age=2), human(1, age=4)) == 1 - 2 / 6
    assert similar_age_influence(human(0, age=4), human(1, age=2)) == 1 - 2 / 6


def test_similar_class_influence():
    cats = ["working-professional", "student", "home-maker", "senior-citizen"]
    for ca, cb in product(cats, cats):
        v = similar_class_influence(human(0, cat=ca), human(1, cat=cb))
        assert v == (1.0 if ca == cb else 0.0)
        assert v == similar_class_influence(human(1, cat=cb), human(0, cat=ca))


def test_proximity_picks_closest_defined_pair():
    a = human(0, cat="working-professional", home=(1.30, 103.80), office=(1.35, 103.85))
    b = human(1, cat="working-professional", home=(1.30, 103.82), office=(1.39, 103.83))
    home_m = haversine_km(a.home, b.home) * 1000.0
    office_m = haversine_km(a.office, b.office) * 1000.0
    assert office_m > home_m
    assert proximity(a, b) == home_m
    # same home -> zero
    assert proximity(human(0), human(1)) == 0.0
    # student vs working-professional: school and office pairs undefined
    s = human(2, cat="student", home=(1.30, 103.80), school=(1.31, 103.81))
    w = human(3, cat="working-professional", home=(1.33, 103.80), office=(1.32, 103.80))
    assert proximity(s, w) == haversine_km(s.home, w.home) * 1000.0


def hand_graph(following, lpc=None, probs=None):
    """A SocialGraph from per-follower lists of posters and probabilities."""
    if probs is None:
        probs = [[0.0] * len(t) for t in following]
    out_ptr = np.cumsum([0] + [len(t) for t in following])
    posters = np.array([y for t in following for y in t], dtype=np.int64)
    return SocialGraph(out_ptr, posters, np.array([p for ps in probs for p in ps]), lpc)


# influence between two humans of one age group and category: the age and
# class components are 1, so only the proximity component varies
SAME_AGE_AND_CLASS = 1.0 + 1.0


def test_proximity_influence_normalization():
    # b follows a (1 km-ish) and c (4 km-ish): ratio of meridian arcs
    b = human(0, home=(1.30, 103.80))
    a = human(1, home=(1.30 + 0.01, 103.80))
    c = human(2, home=(1.30 + 0.04, 103.80))
    g = hand_graph([[1, 2], [0], [0]],
                   lpc=[proximity(c, b), proximity(b, a), proximity(b, c)])
    near = 1 - proximity(a, b) / proximity(c, b)
    assert near == pytest.approx(0.75, rel=1e-6)
    assert influence_probability(a, b, g) == (SAME_AGE_AND_CLASS + near) / 3.0
    assert influence(a, b, proximity(a, b), proximity(c, b)) == (SAME_AGE_AND_CLASS + near) / 3.0
    # the least proximate connection itself scores zero
    assert influence_probability(c, b, g) == (SAME_AGE_AND_CLASS + 0.0) / 3.0


def test_proximity_influence_sole_connection_and_infinite_rules():
    b = human(0)
    a = human(1, home=(1.31, 103.81))
    g = hand_graph([[1], [0]], lpc=[proximity(a, b), proximity(b, a)])
    # only connection
    assert influence_probability(a, b, g) == (SAME_AGE_AND_CLASS + 0.0) / 3.0
    # infinite farthest connection, finite proximity -> 1
    g_inf = hand_graph([[1], [0]], lpc=[math.inf, math.inf])
    assert influence_probability(a, b, g_inf) == (SAME_AGE_AND_CLASS + 1.0) / 3.0
    # proximity and farthest connection both infinite -> 0; force an infinite
    # pair proximity by stripping homes from hand-made records
    s1 = human(0, cat="student", school=(1.30, 103.80))
    s2 = human(1, cat="student", school=(1.31, 103.81))
    s1.home = None
    s2.school = None
    s2.home = None
    g_both = hand_graph([[1], [0]], lpc=[math.inf, math.inf])
    assert math.isinf(proximity(s2, s1))
    assert influence_probability(s2, s1, g_both) == (SAME_AGE_AND_CLASS + 0.0) / 3.0
    assert influence(s2, s1, math.inf, math.inf) == (SAME_AGE_AND_CLASS + 0.0) / 3.0


def test_influence_probability_examples():
    # all components 1: same age, same class, finite prox with infinite lpc
    b = human(0, age=3)
    a = human(1, age=3, home=(1.31, 103.81))
    g = hand_graph([[1], [0]], lpc=[math.inf, math.inf])
    assert influence_probability(a, b, g) == 1.0
    # components (1, 0, 0.5) -> 0.5: same age, different class, mid proximity
    b2 = human(0, age=2, home=(1.30, 103.80))
    a2 = human(1, age=2, cat="home-maker", home=(1.30 + 0.02, 103.80))
    c2 = human(2, age=2, home=(1.30 + 0.04, 103.80))
    g2 = hand_graph([[1, 2], [0], [0]],
                    lpc=[proximity(c2, b2), math.inf, math.inf])
    v = influence_probability(a2, b2, g2)
    expected = (1.0 + 0.0 + (1 - proximity(a2, b2) / proximity(c2, b2))) / 3.0
    assert v == expected
    assert v == pytest.approx(0.5, rel=1e-6)


def assert_graph_follows_model(pop, g):
    """Every edge once in the follower index, followers in ascending id, each
    follower's least proximate connection the farthest of its targets, and
    each edge with the probability the influence model gives, recomputed
    pair by pair."""
    followers = {y: [] for y in range(g.n)}
    for x, t in enumerate(g.following):
        for y in t:
            followers[y].append(x)
        assert g.least_proximate(x) == max(proximity(pop[y], pop[x]) for y in t)
    assert g.edge_count() == sum(len(t) for t in g.following)
    for y in range(g.n):
        posters, ids, probs = g.edges_from(np.array([y]))
        assert posters.tolist() == [y] * len(followers[y])
        assert ids.tolist() == followers[y]
        for x, p in zip(ids.tolist(), probs.tolist()):
            assert 0.0 <= p <= 1.0
            assert p == influence_probability(pop[y], pop[x], g)


def test_generate_graph_structure_and_probability_range():
    streams = RngStreams(21)
    pop = generate_population(300, BBOX, streams)
    g = generate_graph(pop, streams, degree_params=(1, 30, 8))
    assert g.n == 300
    for x in range(g.n):
        t = g.following[x]
        assert len(t) >= 1
        assert x not in t
        assert t == sorted(set(t))
    assert_graph_follows_model(pop, g)


def test_generate_graph_with_unmatched_contacts():
    # humans without a home match others only at an office or a school, so
    # some pairs, and some followers' every connection, are infinitely far
    streams = RngStreams(34)
    pop = generate_population(200, BBOX, streams)
    for h in pop[::3]:
        h.home = None
    g = generate_graph(pop, streams, degree_params=(1, 20, 6))
    prox = [proximity(pop[y], pop[x]) for x, t in enumerate(g.following) for y in t]
    assert any(math.isinf(d) for d in prox) and not all(math.isinf(d) for d in prox)
    assert any(math.isinf(g.least_proximate(x)) for x in range(g.n))
    assert_graph_follows_model(pop, g)


def test_generate_graph_errors_and_forced_two_node():
    streams = RngStreams(3)
    pop = generate_population(2, BBOX, streams)
    with pytest.raises(InfeasibleDegreeError):
        generate_graph(pop, streams, degree_params=(1, 30, 3.0))  # max 30 >= 2
    g = generate_graph(pop, streams, degree_params=(1, 1, 1))
    assert g.following == [[1], [0]]
    with pytest.raises(ValueError):
        generate_graph([], streams, degree_params=(1, 1, 1))


def test_infeasible_degree_means_are_refused():
    streams = RngStreams(3)
    pop = generate_population(50, BBOX, streams)
    for mean in (31, 0.5, -3):
        with pytest.raises(InfeasibleDegreeError, match="mean degree"):
            generate_graph(pop, streams, degree_params=(1, 30, mean))
    # inside the bounds, but clamped exponential draws never average 29
    with pytest.raises(InfeasibleDegreeError, match="sampling failed"):
        _sample_degrees(1000, 1, 30, 29.0, RngStreams(3).generator("graph"))


def test_dense_graph_pinned():
    """A dense graph, pinned bit for bit to the per-pair build it replaced:
    the follow lists, the edge probabilities in follower-index order, the
    least proximate connections and the graph stream's next draw."""
    streams = RngStreams(2024)
    pop = generate_population(3000, BBOX, streams)
    g = generate_graph(pop, streams, degree_params=(1, 200, 60))
    lpc = np.array([g.least_proximate(x) for x in range(g.n)])

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    assert g.edge_count() == 176225
    assert sha(repr(g.following).encode()) == (
        "09fc8641ab90802d4852a6f1a56968405720f2916c6873b86c4a7e6362a2e58c")
    assert sha(g.edge_probs.tobytes()) == (
        "720577c543f0db814586f2504af4801218d0e0b0bbdb7d4ef13ea4a8c8096193")
    assert sha(lpc.tobytes()) == (
        "d95b04b94a6aeb066a5c91168378af947467d4eb78d14dc2dc65e3719bffa05a")
    assert streams.generator("graph").random() == 0.6803981745682851


@pytest.mark.parametrize("block", [1, 2, 7, social._BLOCK])
@pytest.mark.parametrize("n,degree_params", [(3, (2, 2, 2)), (12, (1, 11, 8)), (60, (1, 59, 30))])
def test_follow_targets_equal_the_scalar_draws(n, degree_params, block, monkeypatch):
    """The follow lists and the graph stream's state are the per-follower
    reference's, through batches that fall short, also at a block's ends: a
    short follower continues the stream, and the next draws from after it."""
    monkeypatch.setattr(social, "_BLOCK", block)
    pop = [human(i) for i in range(n)]
    shorts = []
    for seed in range(60):
        got, want = RngStreams(seed), RngStreams(seed)
        g = generate_graph(pop, got, degree_params, constant_probability=0.5)
        gen = want.generator("graph")
        degrees = _sample_degrees(n, *degree_params, gen)
        posters, short = oracles.follow_targets(gen, n, degrees)
        assert g.out_ptr.tolist() == [0] + np.cumsum(degrees).tolist()
        assert g.posters.tolist() == posters.tolist()
        # the whole state: a half-used 32-bit word included
        assert got.generator("graph").bit_generator.state == gen.bit_generator.state
        assert got.generator("graph").random() == gen.random()
        shorts += short
    # with n = 3 and 2 targets, a follower's 10 draws miss one about 3.5% of
    # the time; some short followers open a block and some close one
    assert len(shorts) >= 3
    assert any(x % block == 0 for x in shorts)
    assert any(x % block == block - 1 or x == n - 1 for x in shorts)


def test_graph_holds_no_per_follower_lists():
    # a run reads the CSR arrays only; the list view is built on demand
    cfg = load_scenario(str(SCENARIOS / "desk.yaml"))
    world = build_world(cfg)
    assert "following" not in world.graph.__dict__


def test_degree_mean_tracks_target_across_seeds():
    for seed in range(5):
        streams = RngStreams(100 + seed)
        pop = generate_population(5000, BBOX, streams)
        g = generate_graph(pop, streams, degree_params=(1, 250, 25),
                           constant_probability=0.5)
        mean = g.edge_count() / g.n
        assert abs(mean - 25) / 25 < 0.10


def test_degree_distribution_at_reference_scale():
    gen = RngStreams(9).generator("graph")
    degrees = _sample_degrees(100_000, 1, 5000, 500, gen)
    assert degrees.min() == 1
    assert degrees.max() <= 5000
    assert abs(float(degrees.mean()) - 500) <= 25


def test_constant_probability_mode():
    streams = RngStreams(8)
    pop = generate_population(50, BBOX, streams)
    g = generate_graph(pop, streams, degree_params=(1, 10, 4), constant_probability=0.5)
    assert g.edge_count() == len(g.edge_probs) > 0
    assert all(p == 0.5 for p in g.edge_probs.tolist())


def path_graph(ps):
    """Chain 0 -> 1 -> ... with given edge success probabilities; node i+1
    follows node i."""
    n = len(ps) + 1
    following = [[] for _ in range(n)]
    probs = [[] for _ in range(n)]
    for i, p in enumerate(ps):
        following[i + 1] = [i]
        probs[i + 1] = [p]
    return hand_graph(following, probs=probs)


def test_cascade_trivial_cases():
    g = path_graph([1.0])
    streams = RngStreams(0)
    assert cascade(g, [], 1, streams) == set()
    assert cascade(g, [0], 1, streams) == {0, 1}
    assert cascade(g, [1], 1, streams) == {1}


def test_cascade_path_monte_carlo_vs_enumeration():
    # path 0 -> 1 -> 2 -> 3 with p = (1, .5, .5)
    g = path_graph([1.0, 0.5, 0.5])
    streams = RngStreams(77)
    n_trials = 10_000
    counts = np.zeros(4)
    for t in range(n_trials):
        act = cascade(g, [0], t, streams)
        for i in act:
            counts[i] += 1
    freq = counts / n_trials
    exact = np.array([1.0, 1.0, 0.5, 0.25])
    sigma = np.sqrt(exact * (1 - exact) / n_trials)
    assert np.all(np.abs(freq - exact) <= np.maximum(3 * sigma, 1e-12))


def drawn_coins(monkeypatch, module) -> list[tuple[int, ...]]:
    """The keys of the keyed coins ``module`` draws from now on, one per
    coin drawn, in draw order."""
    coins = []
    real = module.keyed_uniform_batch

    def counting(streams, name, prefix, varying, suffix=()):
        coins.extend(prefix + tuple(key) + suffix for key in np.atleast_2d(varying).T.tolist())
        return real(streams, name, prefix, varying, suffix)

    monkeypatch.setattr(module, "keyed_uniform_batch", counting)
    return coins


def test_cascade_single_attempt_per_edge(monkeypatch):
    """Each (event, poster, follower) coin is drawn at most once, so no edge
    is tried twice, and every active node posts once, to all of its
    followers."""
    coins = drawn_coins(monkeypatch, social)
    following = [[1, 2], [0, 2], [0, 1], [0]]
    probs = [[0.9, 0.9], [0.9, 0.9], [0.9, 0.9], [0.9]]
    g = hand_graph(following, probs=probs)
    streams = RngStreams(1)
    active = cascade(g, [0], 5, streams)
    assert active == {0, 1, 2, 3}
    assert len(coins) == len(set(coins))
    assert sorted(coins) == sorted((5, y, x) for x, t in enumerate(following) for y in t
                                   if y in active)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cascade_monotone_in_seeds(data):
    n = data.draw(st.integers(4, 8))
    following = []
    probs = []
    for x in range(n):
        others = [y for y in range(n) if y != x]
        t = sorted(data.draw(st.sets(st.sampled_from(others), min_size=1, max_size=3)))
        following.append(t)
        probs.append([data.draw(st.floats(0, 1)) for _ in t])
    g = hand_graph(following, probs=probs)
    seeds_small = data.draw(st.sets(st.integers(0, n - 1), max_size=2))
    extra = data.draw(st.sets(st.integers(0, n - 1), max_size=2))
    streams = RngStreams(99)
    a = cascade(g, seeds_small, 7, streams)
    b = cascade(g, seeds_small | extra, 7, streams)
    assert a <= b
    assert len(b) <= g.n


def test_constant_model_matches_plain_oracle():
    """Cascade on a constant-p graph equals a reference cascade that knows
    only p and the adjacency."""
    streams = RngStreams(55)
    pop = generate_population(60, BBOX, streams)
    g = generate_graph(pop, streams, degree_params=(1, 12, 5), constant_probability=0.37)

    followers = {y: [x for x in range(g.n) if y in g.following[x]] for y in range(g.n)}

    def oracle(seeds, event_key):
        active = set(seeds)
        frontier = set(seeds)
        while frontier:
            nxt = set()
            for y in frontier:
                for x in followers[y]:
                    if x not in active and x not in nxt:
                        if keyed_uniform(streams, "cascade", event_key, y, x) < 0.37:
                            nxt.add(x)
            active |= nxt
            frontier = nxt
        return active

    for ev in range(20):
        assert cascade(g, [0, 5, 9], ev, streams) == oracle([0, 5, 9], ev)


def test_trial_batch_replays_production_cascade():
    streams = RngStreams(123)
    pop = generate_population(12, BBOX, streams)
    g = generate_graph(pop, streams, degree_params=(1, 4, 2))
    counts, masks = cascade_trial_batch(g, [0, 3], 64, streams,
                                        event_key_base=500, return_masks=True)
    for t in (0, 17, 42, 63):
        want = cascade(g, [0, 3], 500 + t, streams)
        got = {i for i in range(g.n) if (int(masks[t]) >> i) & 1}
        assert got == want
    # counts equal the mask tallies
    for i in range(g.n):
        assert counts[i] == sum(1 for t in range(64) if (int(masks[t]) >> i) & 1)


def _scalar_spread(following, probs, active, posters, event_key, streams, accept):
    """Reference round: one scalar keyed coin per edge, probabilities looked
    up in a dict, followers visited in ascending id."""
    prob = {(y, x): p for x in range(len(following)) for y, p in zip(following[x], probs[x])}
    fresh = []
    for poster in posters:
        for follower in range(len(following)):
            if (poster, follower) not in prob:
                continue
            coin = keyed_uniform(streams, "cascade", event_key, poster, follower)
            if (coin < prob[(poster, follower)] and follower not in active
                    and accept(follower)):
                active.add(follower)
                fresh.append(follower)
    return fresh


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_spread_matches_scalar_reference(data):
    n = data.draw(st.integers(1, 8))
    following = []
    probs = []
    for x in range(n):
        others = [y for y in range(n) if y != x]
        t = sorted(data.draw(st.sets(st.sampled_from(others)))) if others else []
        following.append(t)
        probs.append([data.draw(st.floats(0, 1)) for _ in t])
    g = hand_graph(following, probs=probs)
    active = data.draw(st.sets(st.integers(0, n - 1)))
    posters = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    admitted = data.draw(st.sets(st.integers(0, n - 1)))
    event_key = data.draw(st.integers(0, 2**40))
    streams = RngStreams(data.draw(st.integers(0, 2**32)))
    asked = {"spread": [], "scalar": []}

    def gate(label):
        def accept(h):
            asked[label].append(h)
            return h in admitted
        return accept

    got_active, want_active = set(active), set(active)
    got = spread(g, got_active, posters, event_key, streams, accept=gate("spread"))
    want = _scalar_spread(following, probs, want_active, posters, event_key, streams,
                          gate("scalar"))
    assert got == want
    assert asked["spread"] == asked["scalar"]
    assert got_active == want_active == active | set(want)


def test_declined_follower_stays_reachable_through_a_later_poster():
    # 2 follows 0 and 1 on sure edges; the gate declines 2 the first time
    g = hand_graph([[], [], [0, 1]], probs=[[], [], [1.0, 1.0]])
    asked = []

    def accept(h):
        asked.append(h)
        return len(asked) > 1

    active = {0, 1}
    assert spread(g, active, [0, 1], 3, RngStreams(0), accept) == [2]
    assert asked == [2, 2]
    assert active == {0, 1, 2}
