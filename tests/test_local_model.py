"""Tests for the LOCAL model simulator and round accounting."""

import pytest

from repro.errors import LocalModelError
from repro.graph import MultiGraph
from repro.graph.generators import path_graph, star_graph
from repro.local import (
    LocalNetwork,
    NodeAlgorithm,
    RoundCounter,
    broadcast_gather,
    ensure_counter,
)


class EchoOnce(NodeAlgorithm):
    """Sends its id once, halts after hearing from all neighbors."""

    def __init__(self, vertex):
        super().__init__()
        self.vertex = vertex

    def send(self):
        return {port: self.vertex for port in range(self.view.degree)}

    def receive(self, messages):
        self.output = sorted(messages.values())
        self.halted = True


def test_one_round_exchange():
    g = path_graph(3)
    net = LocalNetwork(g)
    out = net.run(EchoOnce)
    assert net.rounds_used == 1
    assert out[0] == [1]
    assert out[1] == [0, 2]
    assert out[2] == [1]


def test_messages_only_to_neighbors():
    g = MultiGraph.with_vertices(4)
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    out = LocalNetwork(g).run(EchoOnce)
    assert out[0] == [1]
    assert out[2] == [3]


def test_parallel_edges_get_separate_ports():
    g = MultiGraph.with_vertices(2)
    g.add_edge(0, 1)
    g.add_edge(0, 1)
    out = LocalNetwork(g).run(EchoOnce)
    assert out[0] == [1, 1]  # one message per parallel edge


def test_invalid_port_raises():
    class BadSender(NodeAlgorithm):
        def send(self):
            return {99: "boom"}

    g = path_graph(2)
    with pytest.raises(LocalModelError):
        LocalNetwork(g).run(lambda v: BadSender())


def test_round_limit():
    class Forever(NodeAlgorithm):
        def receive(self, messages):
            pass

    g = path_graph(2)
    with pytest.raises(LocalModelError):
        LocalNetwork(g).run(lambda v: Forever(), max_rounds=5)


def test_non_node_algorithm_rejected():
    g = path_graph(2)
    with pytest.raises(LocalModelError):
        LocalNetwork(g).run(lambda v: object())


def test_broadcast_gather_radius():
    g = path_graph(5)
    net = LocalNetwork(g)
    known = broadcast_gather(net, {v: v * 10 for v in g.vertices()}, radius=2)
    assert net.rounds_used == 2
    assert set(known[0].keys()) == {0, 1, 2}
    assert known[2][4] == 40
    assert set(known[2].keys()) == {0, 1, 2, 3, 4}


def test_broadcast_gather_radius_zero():
    g = path_graph(3)
    net = LocalNetwork(g)
    known = broadcast_gather(net, {v: v for v in g.vertices()}, radius=0)
    assert known[1] == {1: 1}


def test_star_center_hears_all_leaves():
    g = star_graph(6)
    out = LocalNetwork(g).run(EchoOnce)
    assert out[0] == [1, 2, 3, 4, 5]


# ----------------------------------------------------------------------
# RoundCounter
# ----------------------------------------------------------------------


def test_round_counter_basic():
    rc = RoundCounter()
    rc.charge(5)
    rc.charge(3)
    assert rc.total == 8


def test_round_counter_negative_rejected():
    rc = RoundCounter()
    with pytest.raises(ValueError):
        rc.charge(-1)


def test_round_counter_phases():
    rc = RoundCounter()
    with rc.phase("nd"):
        rc.charge(10)
        with rc.phase("inner"):
            rc.charge(2)
    rc.charge(1)
    phases = rc.by_phase()
    assert phases["nd"] == 10
    assert phases["nd/inner"] == 2
    assert phases["(top)"] == 1
    assert rc.total == 13
    assert "total LOCAL rounds: 13" in rc.report()


def test_round_counter_parallel_takes_max():
    rc = RoundCounter()
    with rc.parallel():
        rc.charge(7)
        rc.charge(3)
        rc.charge(5)
    assert rc.total == 7


def test_round_counter_nested_parallel():
    rc = RoundCounter()
    with rc.parallel():
        with rc.parallel():
            rc.charge(4)
        rc.charge(2)
    assert rc.total == 4


def test_round_counter_helpers():
    rc = RoundCounter()
    rc.charge_power_graph(6)
    rc.charge_neighborhood(3)
    rc.charge_cluster(10)
    assert rc.total == 6 + 3 + 21


def test_ensure_counter():
    rc = RoundCounter()
    assert ensure_counter(rc) is rc
    fresh = ensure_counter(None)
    assert isinstance(fresh, RoundCounter)
    assert fresh.total == 0
