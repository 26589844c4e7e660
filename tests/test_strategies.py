"""Greedy reallocation rules over the live fleet, queued compartment moves,
and how a scenario picks its strategy."""

from dataclasses import asdict

import pytest

from transitsim.city import network_from_dict
from transitsim.cli import build_world
from transitsim.config import scenario_from_dict
from transitsim.strategies import GreedyReallocation, Strategy, StrategyDecision
from transitsim.transit import RidershipEstimate, Train, TransportManager


def greedy(trains, pool, est, hour=10):
    return GreedyReallocation().on_hour(trains, pool, est, hour)


def est_with(per_hour):
    """per_hour: {(line, dir, hour): (total, departures)}"""
    est = RidershipEstimate()
    for key, (total, deps) in per_hour.items():
        est.delta[key] = total
        est.departures[key] = deps
    return est


def two_line_doc():
    """Lines A and C, two stations each, one train per terminal."""
    return {
        "stations": [{"id": i, "name": f"s{i}", "lat": 1.0 + 0.01 * i, "lon": 103.0}
                     for i in range(4)],
        "lines": [{"name": name, "stations": stations,
                   "service": {"run_seconds": 120, "dwell_seconds": 30,
                               "headway_seconds": 3600, "first_departure": 46800,
                               "last_departure": 50400}}
                  for name, stations in (("A", [0, 1]), ("C", [2, 3]))],
    }


def test_no_overload_means_empty_decision():
    est = est_with({("A", 1, 10): (100, 1)})
    assert greedy([Train(0, "A", 10)], pool=5, est=est).moves == ()


def test_single_overloaded_train_draws_from_pool():
    est = est_with({("A", 1, 10): (340, 1)})
    d = greedy([Train(0, "A", 10)], pool=2, est=est)  # capacity 310
    assert d.moves == (("pool", 0, 1),)


def test_busiest_train_served_first_then_donor():
    # two overloaded trains, pool of one, one donor with falling demand
    est = est_with({
        ("A", 1, 10): (400, 1), ("B", 1, 10): (350, 1),
        ("C", 1, 10): (100, 1), ("C", 1, 9): (250, 1),
    })
    trains = [
        Train(0, "A", 10),   # cap 310, wants one
        Train(1, "B", 10),   # cap 310, wants one
        Train(2, "C", 10),   # demand fell 250 -> 100, spare seats
    ]
    d = greedy(trains, pool=1, est=est)
    assert d.moves == (("pool", 0, 1), (2, 1, 1))


def test_attachments_ordered_by_decreasing_estimate():
    est = est_with({("A", 1, 10): (350, 1), ("B", 1, 10): (500, 1),
                    ("C", 1, 10): (400, 1)})
    trains = [Train(i, ln, 10) for i, ln in enumerate("ABC")]
    d = greedy(trains, pool=3, est=est)
    assert [m[1] for m in d.moves] == [1, 2, 0]


def test_no_donor_leaves_requests_unmet():
    est = est_with({("A", 1, 10): (400, 1), ("B", 1, 10): (200, 1),
                    ("B", 1, 9): (100, 1)})  # B demand rose, cannot donate
    trains = [Train(0, "A", 10), Train(1, "B", 10)]
    assert greedy(trains, pool=0, est=est).moves == ()


def test_donor_needs_spare_capacity():
    # demand fell but still fills all seats less than one compartment of slack
    est = est_with({("A", 1, 10): (400, 1),
                    ("B", 1, 10): (290, 1), ("B", 1, 9): (309, 1)})
    trains = [Train(0, "A", 10), Train(1, "B", 10)]
    assert greedy(trains, pool=0, est=est).moves == ()
    # with real slack the donation happens
    est2 = est_with({("A", 1, 10): (400, 1),
                     ("B", 1, 10): (200, 1), ("B", 1, 9): (309, 1)})
    assert greedy(trains, pool=0, est=est2).moves == ((1, 0, 1),)


def test_largest_drop_wins_donor_choice():
    est = est_with({
        ("A", 1, 10): (400, 1),
        ("B", 1, 10): (100, 1), ("B", 1, 9): (150, 1),   # drop 50
        ("C", 1, 10): (100, 1), ("C", 1, 9): (280, 1),   # drop 180
    })
    trains = [Train(0, "A", 10), Train(1, "B", 10), Train(2, "C", 10)]
    assert greedy(trains, pool=0, est=est).moves == ((2, 0, 1),)


def test_hour_zero_has_no_previous_hour_to_compare():
    est = est_with({("A", 1, 0): (400, 1), ("B", 1, 0): (0, 1)})
    trains = [Train(0, "A", 10), Train(1, "B", 10)]
    assert greedy(trains, pool=0, est=est, hour=0).moves == ()


def test_donor_never_drops_below_one_compartment():
    est = est_with({
        ("A", 1, 10): (400, 1), ("B", 1, 10): (380, 1),
        ("C", 1, 10): (0, 1), ("C", 1, 9): (10, 1),
    })
    trains = [Train(0, "A", 10), Train(1, "B", 10),
              Train(2, "C", 2)]  # can give only one
    assert greedy(trains, pool=0, est=est).moves == ((2, 0, 1),)


def test_donor_counts_the_detaches_it_already_owes():
    # a 2-compartment train that gave one at 10:00 and has made no terminal
    # visit since has nothing left to give at 11:00
    m = TransportManager(network_from_dict(two_line_doc()), 2, pool_compartments=0)
    est = est_with({("A", 1, 10): (400, 1), ("A", 1, 11): (400, 1),
                    ("C", 1, 9): (60, 1), ("C", 1, 10): (30, 1), ("C", 1, 11): (0, 1)})
    first = greedy(m.trains.values(), m.unattached, est, hour=10)
    assert first.moves == ((2, 0, 1), (3, 1, 1))
    m.queue_moves(first.moves)
    assert greedy(m.trains.values(), m.unattached, est, hour=11).moves == ()


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


@pytest.mark.parametrize("strategy,moves", [
    (Strategy(), ()), (GreedyReallocation(), (("pool", 0, 1), (2, 1, 1)))],
    ids=["none", "greedy"])
def test_on_hour_reads_the_fleet_and_changes_nothing(strategy, moves):
    m = TransportManager(network_from_dict(two_line_doc()), 2, pool_compartments=1)
    m.trains[0].onboard = {7: 1, 8: 1}
    m.trains[3].pending_attach = 1
    est = est_with({("A", 1, 10): (400, 1), ("C", 1, 9): (60, 1), ("C", 1, 10): (30, 1)})
    before = [asdict(tr) for tr in m.trains.values()]
    assert strategy.on_hour(m.trains.values(), m.unattached, est, 10).moves == moves
    assert [asdict(tr) for tr in m.trains.values()] == before
    assert m.unattached == 1


@pytest.mark.parametrize("name,alt_routing,cls", [
    ("none", False, Strategy), ("none", True, Strategy),
    ("greedy", False, GreedyReallocation), ("greedy", True, GreedyReallocation)],
    ids=["none", "none-alt", "greedy", "greedy-alt"])
def test_build_world_takes_strategy_and_alt_routing_from_config(name, alt_routing, cls):
    cfg = scenario_from_dict({
        "seed": 1, "horizon_hours": 1, "network": two_line_doc(),
        "population": {"size": 20, "margin_km": 1.0},
        "social": {"degree_min": 1, "degree_max": 5, "degree_mean": 2.0},
        "strategy": {"name": name, "alt_routing": alt_routing}})
    w = build_world(cfg)
    assert type(w.strategy) is cls
    assert w.alt_routing is alt_routing
