"""Greedy reallocation rules, queued compartment moves, and the strategy factory."""

import pytest

from transitsim.city import network_from_dict
from transitsim.strategies import (
    GreedyReallocation,
    ManagerView,
    Strategy,
    StrategyDecision,
    TrainView,
    greedy_reallocate,
    make_strategy,
    snapshot,
)
from transitsim.transit import RidershipEstimate, TransportManager


def view(trains, pool, est, hour=10):
    return ManagerView(hour, tuple(trains), pool, est)


def est_with(per_hour):
    """per_hour: {(line, dir, hour): (total, departures)}"""
    est = RidershipEstimate(0)
    for key, (total, deps) in per_hour.items():
        est.delta[key] = total
        est.departures[key] = deps
    return est


def test_no_overload_means_empty_decision():
    est = est_with({("A", 1, 10): (100, 1)})
    v = view([TrainView(0, "A", 1, 10, 0)], pool=5, est=est)
    d = greedy_reallocate(v)
    assert d.moves == ()


def test_single_overloaded_train_draws_from_pool():
    est = est_with({("A", 1, 10): (340, 1)})
    v = view([TrainView(0, "A", 1, 10, 0)], pool=2, est=est)  # capacity 310
    d = greedy_reallocate(v)
    assert d.moves == (("pool", 0, 1),)


def test_busiest_train_served_first_then_donor():
    # two overloaded trains, pool of one, one donor with falling demand
    est = est_with({
        ("A", 1, 10): (400, 1), ("B", 1, 10): (350, 1),
        ("C", 1, 10): (100, 1), ("C", 1, 9): (250, 1),
    })
    trains = [
        TrainView(0, "A", 1, 10, 0),   # cap 310, wants one
        TrainView(1, "B", 1, 10, 0),   # cap 310, wants one
        TrainView(2, "C", 1, 10, 0),   # demand fell 250 -> 100, spare seats
    ]
    d = greedy_reallocate(view(trains, pool=1, est=est))
    assert d.moves == (("pool", 0, 1), (2, 1, 1))


def test_attachments_ordered_by_decreasing_estimate():
    est = est_with({("A", 1, 10): (350, 1), ("B", 1, 10): (500, 1),
                    ("C", 1, 10): (400, 1)})
    trains = [TrainView(i, ln, 1, 10, 0) for i, ln in enumerate("ABC")]
    d = greedy_reallocate(view(trains, pool=3, est=est))
    assert [m[1] for m in d.moves] == [1, 2, 0]


def test_no_donor_leaves_requests_unmet():
    est = est_with({("A", 1, 10): (400, 1), ("B", 1, 10): (200, 1),
                    ("B", 1, 9): (100, 1)})  # B demand rose, cannot donate
    trains = [TrainView(0, "A", 1, 10, 0), TrainView(1, "B", 1, 10, 0)]
    d = greedy_reallocate(view(trains, pool=0, est=est))
    assert d.moves == ()


def test_donor_needs_spare_capacity():
    # demand fell but still fills all seats less than one compartment of slack
    est = est_with({("A", 1, 10): (400, 1),
                    ("B", 1, 10): (290, 1), ("B", 1, 9): (309, 1)})
    trains = [TrainView(0, "A", 1, 10, 0), TrainView(1, "B", 1, 10, 0)]
    assert greedy_reallocate(view(trains, pool=0, est=est)).moves == ()
    # with real slack the donation happens
    est2 = est_with({("A", 1, 10): (400, 1),
                     ("B", 1, 10): (200, 1), ("B", 1, 9): (309, 1)})
    d = greedy_reallocate(view(trains, pool=0, est=est2))
    assert d.moves == ((1, 0, 1),)


def test_largest_drop_wins_donor_choice():
    est = est_with({
        ("A", 1, 10): (400, 1),
        ("B", 1, 10): (100, 1), ("B", 1, 9): (150, 1),   # drop 50
        ("C", 1, 10): (100, 1), ("C", 1, 9): (280, 1),   # drop 180
    })
    trains = [TrainView(0, "A", 1, 10, 0), TrainView(1, "B", 1, 10, 0),
              TrainView(2, "C", 1, 10, 0)]
    d = greedy_reallocate(view(trains, pool=0, est=est))
    assert d.moves == ((2, 0, 1),)


def test_hour_zero_has_no_previous_hour_to_compare():
    est = est_with({("A", 1, 0): (400, 1), ("B", 1, 0): (0, 1)})
    trains = [TrainView(0, "A", 1, 10, 0), TrainView(1, "B", 1, 10, 0)]
    assert greedy_reallocate(view(trains, pool=0, est=est, hour=0)).moves == ()


def test_donor_never_drops_below_one_compartment():
    est = est_with({
        ("A", 1, 10): (400, 1), ("B", 1, 10): (380, 1),
        ("C", 1, 10): (0, 1), ("C", 1, 9): (10, 1),
    })
    trains = [TrainView(0, "A", 1, 10, 0), TrainView(1, "B", 1, 10, 0),
              TrainView(2, "C", 1, 2, 0)]  # can give only one
    d = greedy_reallocate(view(trains, pool=0, est=est))
    assert d.moves == ((2, 0, 1),)


def test_queue_moves_land_at_terminal_service():
    doc = {
        "stations": [{"id": i, "name": f"s{i}", "lat": 1.0 + 0.01 * i, "lon": 103.0}
                     for i in range(3)],
        "lines": [{"name": "A", "stations": [0, 1, 2],
                   "service": {"run_seconds": 120, "dwell_seconds": 30,
                               "headway_seconds": 300, "first_departure": 18000,
                               "last_departure": 82800}}],
    }
    net = network_from_dict(doc)
    m = TransportManager(net, compartments_per_train=10, pool_compartments=1)
    total = m.total_compartments()
    m.queue_moves(StrategyDecision((("pool", 0, 1),)).moves)
    m.terminal_service(m.trains[0])
    assert m.trains[0].compartments == 11
    assert m.trains[0].capacity == 341
    assert m.unattached == 0
    assert m.total_compartments() == total
    m.queue_moves(StrategyDecision(()).moves)  # empty decision changes nothing
    assert m.total_compartments() == total
    assert all(tr.pending_detach == tr.pending_attach == 0 for tr in m.trains.values())
    assert m.terminal_service(m.trains[0]) == (0, 0)


def test_snapshot_reflects_manager_state():
    doc = {
        "stations": [{"id": i, "name": f"s{i}", "lat": 1.0 + 0.01 * i, "lon": 103.0}
                     for i in range(3)],
        "lines": [{"name": "A", "stations": [0, 1, 2],
                   "service": {"run_seconds": 120, "dwell_seconds": 30,
                               "headway_seconds": 300, "first_departure": 18000,
                               "last_departure": 82800}}],
    }
    m = TransportManager(network_from_dict(doc), 2, pool_compartments=4)
    est = RidershipEstimate(0)
    v = snapshot(m, est, hour=9)
    assert v.pool == 4
    assert len(v.trains) == len(m.trains)
    assert all(tv.compartments == 2 and tv.onboard == 0 for tv in v.trains)


def test_strategy_factory():
    assert type(make_strategy("none")) is Strategy
    assert isinstance(make_strategy("greedy"), GreedyReallocation)
    with pytest.raises(ValueError):
        make_strategy("optimal")
    v = ManagerView(1, (), 0, RidershipEstimate(0))
    assert make_strategy("none").on_hour(v).moves == ()
