import math
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from transitsim.city import BoundingBox, GeoPoint, haversine_km
from transitsim.engine import SECONDS_PER_DAY, RngStreams, hms
import transitsim.population as population
from transitsim.population import (
    AGE_GROUP_SHARES,
    CATEGORIES,
    CATEGORY_AGE_GROUPS,
    CATEGORY_WEIGHTS,
    DRAWS_PER_PAIR,
    HOME_MAKER,
    POINT_BUDGET,
    TRIP_TABLE,
    Trip,
    daily_trips,
    generate_population,
)

import oracles
from oracles import keyed_uniform

BBOX = BoundingBox(1.24, 103.6, 1.46, 103.99)


def in_bbox(p):
    return BBOX.min_lat <= p.lat <= BBOX.max_lat and BBOX.min_lon <= p.lon <= BBOX.max_lon


def make_pop(n, seed=42):
    return generate_population(n, BBOX, RngStreams(seed))


def one_day(h, day, streams):
    return daily_trips([h], day, streams)


def test_empty_population():
    assert make_pop(0) == []
    with pytest.raises(ValueError):
        make_pop(-1)


def assert_equals_the_scalar_draws(n, bbox, seed):
    """The humans, the population stream's state and its next draw are the
    scalar reference's."""
    got, want = RngStreams(seed), RngStreams(seed)
    humans = generate_population(n, bbox, got)
    assert humans == oracles.generate_population(n, bbox, want)
    assert got.generator("population").bit_generator.state == (
        want.generator("population").bit_generator.state)
    assert got.generator("population").random() == want.generator("population").random()
    return humans


def boxes():
    # latitudes on both sides of 84.3 degrees, past which a shop's lon box
    # stops widening (cos 0.1)
    return st.builds(lambda lat, lon, height, width: BoundingBox(lat, lon, lat + height,
                                                                 lon + width),
                     st.floats(-88, 86), st.floats(-180, 170), st.floats(0, 2), st.floats(0, 5))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 300), seed=st.integers(0, 2**63), bbox=boxes(),
       block=st.sampled_from([1, 3, 64, population._BLOCK]))
def test_population_equals_the_scalar_draws(n, seed, bbox, block):
    with patch.object(population, "_BLOCK", block):
        assert_equals_the_scalar_draws(n, bbox, seed)


@pytest.mark.parametrize("block", [5, population._BLOCK])
def test_population_equals_the_scalar_draws_through_shop_rejections(block, monkeypatch):
    attempts = []
    monkeypatch.setattr(oracles, "haversine_km",
                        lambda a, b, real=oracles.haversine_km: attempts.append(1) or real(a, b))
    n = 2 * population._BLOCK + 300
    monkeypatch.setattr(population, "_BLOCK", block)
    humans = assert_equals_the_scalar_draws(n, BBOX, 31)
    # about one shop attempt in five is rejected, some more than once
    makers = sum(h.category == HOME_MAKER for h in humans)
    assert len(attempts) - makers > 100


def test_contact_point_invariants():
    pop = make_pop(2000)
    assert [h.id for h in pop] == list(range(2000))
    for h in pop:
        assert h.category in CATEGORIES
        assert in_bbox(h.home)
        assert h.age_group in CATEGORY_AGE_GROUPS[h.category]
        if h.category == "working-professional":
            assert h.office is not None and h.school is None and h.shop is None
            assert in_bbox(h.office)
        elif h.category == "student":
            assert h.school is not None and h.office is None and h.shop is None
            assert in_bbox(h.school)
        elif h.category == "home-maker":
            assert h.office is None and h.school is None
            assert haversine_km(h.home, h.shop) <= 5.0
        else:
            assert h.office is None and h.school is None and h.shop is None


def test_category_mix_chi_square():
    pop = make_pop(10_000)
    counts = {c: 0 for c in CATEGORIES}
    for h in pop:
        counts[h.category] += 1
    observed = [counts[c] for c in CATEGORIES]
    expected = [CATEGORY_WEIGHTS[c] * len(pop) for c in CATEGORIES]
    _, p = stats.chisquare(observed, expected)
    assert p > 0.01


def test_large_population_proportions():
    pop = make_pop(100_000, seed=7)
    counts = {c: 0 for c in CATEGORIES}
    for h in pop:
        counts[h.category] += 1
    assert abs(counts["working-professional"] - 40_000) < 1500
    assert abs(counts["student"] - 30_000) < 1500
    assert abs(counts["home-maker"] - 15_000) < 1200
    assert abs(counts["senior-citizen"] - 15_000) < 1200


def test_age_mix_within_category():
    pop = make_pop(30_000, seed=3)
    students = [h for h in pop if h.category == "student"]
    n1 = sum(1 for h in students if h.age_group == 1)
    share1 = AGE_GROUP_SHARES[1] / (AGE_GROUP_SHARES[1] + AGE_GROUP_SHARES[2])
    assert abs(n1 / len(students) - share1) < 0.02
    assert all(h.age_group == 6 for h in pop if h.category == "senior-citizen")


def test_working_professional_day():
    streams = RngStreams(5)
    pop = make_pop(400)
    wp = next(h for h in pop if h.category == "working-professional")
    trips = one_day(wp, 0, streams)
    kinds = [(t.origin_kind, t.dest_kind) for t in trips]
    assert kinds == [
        ("home", "office"), ("office", "restaurant"),
        ("restaurant", "office"), ("office", "home"),
    ]
    for t in trips:
        assert t.window_start <= t.chosen_start % SECONDS_PER_DAY <= t.window_end
    starts = [t.chosen_start for t in trips]
    assert starts == sorted(starts) and len(set(starts)) == 4
    lunch_out, lunch_back = trips[1], trips[2]
    assert lunch_back.chosen_start > lunch_out.chosen_start
    assert haversine_km(lunch_out.dest, wp.office) <= 1.0
    assert lunch_out.dest == lunch_back.origin


def test_optional_pairs_all_or_nothing():
    streams = RngStreams(5)
    pop = make_pop(400)
    senior = next(h for h in pop if h.category == "senior-citizen")
    sizes = set()
    for day in range(60):
        trips = one_day(senior, day, streams)
        sizes.add(len(trips))
        assert len(trips) % 2 == 0
        for i in range(0, len(trips), 2):
            assert (trips[i].origin_kind, trips[i].dest_kind) == ("home", "other")
            assert (trips[i + 1].origin_kind, trips[i + 1].dest_kind) == ("other", "home")
            assert trips[i + 1].chosen_start > trips[i].chosen_start
            assert trips[i].dest == trips[i + 1].origin
            assert haversine_km(trips[i].dest, senior.home) <= 5.0
    # with p=0.5 per pair over 60 days all of {0,2,4} show up
    assert sizes == {0, 2, 4}


def test_home_maker_morning_always_evening_sometimes():
    streams = RngStreams(5)
    pop = make_pop(400)
    hm = next(h for h in pop if h.category == "home-maker")
    evening_days = 0
    for day in range(60):
        trips = one_day(hm, day, streams)
        assert len(trips) in (2, 4)
        assert (trips[0].origin_kind, trips[0].dest_kind) == ("home", "shop")
        assert trips[0].dest == hm.shop
        if len(trips) == 4:
            evening_days += 1
    assert 15 < evening_days < 45


def test_trips_deterministic_per_human_day():
    streams = RngStreams(5)
    pop = make_pop(50)
    for h in pop[:10]:
        a = one_day(h, 3, streams)
        b = one_day(h, 3, RngStreams(5))
        assert a == b
        if a:
            assert a != one_day(h, 4, streams) or len(a) == 0


def test_student_start_uniformity_ks():
    streams = RngStreams(11)
    pop = make_pop(3000, seed=11)
    students = [h for h in pop if h.category == "student"][:1000]
    starts = []
    for h in students:
        trips = one_day(h, 0, streams)
        first = trips[0]
        assert (first.origin_kind, first.dest_kind) == ("home", "school")
        starts.append(first.chosen_start % SECONDS_PER_DAY)
    lo, hi = hms(7, 0), hms(8, 0)
    assert all(lo <= s <= hi for s in starts)
    # integer starts cover [lo, hi]; compare against the matching uniform
    _, p = stats.kstest(np.array(starts), "uniform", args=(lo, hi + 1 - lo))
    assert p > 0.01


def scalar_day(h, day, streams, over_budget):
    """The day plan drawn one scalar keyed uniform at a time, transcribed
    from the draw layout: per pair slot j a block of DRAWS_PER_PAIR indices
    from j * DRAWS_PER_PAIR (coin, outbound start, return start, then
    POINT_BUDGET (lat, lon) rejection draws), continued past the budget by
    draws keyed (block + 3, n)."""
    def u(*k):
        return keyed_uniform(streams, "trips", h.id, day, *k)

    trips = []
    for j, pair in enumerate(TRIP_TABLE[h.category]):
        k = j * DRAWS_PER_PAIR
        if pair.optional and u(k) >= 0.5:
            continue
        kind = pair.out_kinds[1]
        if kind in ("home", "office", "school") or (kind == "shop" and h.shop is not None):
            dest = getattr(h, kind)
        else:
            centre, radius = (h.office, 1.0) if kind == "restaurant" else (h.home, 5.0)
            dlat = radius / (6371.0 * math.pi / 180.0)
            dlon = dlat / max(0.1, math.cos(math.radians(centre.lat)))
            n = 0
            while True:
                if n < 2 * POINT_BUDGET:
                    ua, uo = u(k + 3 + n), u(k + 4 + n)
                else:
                    ua, uo = u(k + 3, n), u(k + 3, n + 1)
                    over_budget.append(h.id)
                n += 2
                dest = GeoPoint(centre.lat + (-dlat + 2 * dlat * ua),
                                centre.lon + (-dlon + 2 * dlon * uo))
                if haversine_km(centre, dest) <= radius:
                    break
        origin = getattr(h, pair.out_kinds[0])
        lo, hi = pair.out_window
        t_out = lo + int(u(k + 1) * (hi - lo + 1))
        lo = max(pair.ret_window[0], t_out + 1)
        t_ret = lo + int(u(k + 2) * (max(pair.ret_window[1], lo) - lo + 1))
        base = day * 86400
        trips.append(Trip(h.id, *pair.out_kinds, *pair.out_window, base + t_out, origin, dest))
        trips.append(Trip(h.id, *pair.ret_kinds, *pair.ret_window, base + t_ret, dest, origin))
    trips.sort(key=lambda t: t.chosen_start)
    return trips


def test_batched_trips_equal_scalar_draws():
    pop = make_pop(3000, seed=8)
    streams = RngStreams(13)
    over_budget = []
    for day in (0, 1, 5):
        want = [t for h in pop for t in scalar_day(h, day, streams, over_budget)]
        assert daily_trips(pop, day, streams) == want
        # a cut-off leaves out exactly the later starts
        cut = day * 86400 + hms(12, 15)
        assert daily_trips(pop, day, streams, until=cut) == [
            t for t in want if t.chosen_start <= cut]
    # some places needed more rejection draws than the batch holds
    assert over_budget


def test_batched_trips_for_a_subset_equal_the_full_batch():
    pop = make_pop(1500, seed=9)
    streams = RngStreams(21)
    rng = random.Random(4)
    for day in (0, 2):
        full = {}
        for t in daily_trips(pop, day, streams):
            full.setdefault(t.human_id, []).append(t)
        subset = rng.sample(pop, 400)  # any humans, in any order
        assert daily_trips(subset, day, streams) == [
            t for h in subset for t in full.get(h.id, [])]
