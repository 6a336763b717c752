"""Synchronous message-passing simulator for the distributed LOCAL model.

In the LOCAL model (Linial), computation proceeds in synchronized
rounds; per round every vertex (1) sends one message of unbounded size
to each neighbor, (2) receives its neighbors' messages, (3) does
arbitrary local computation.  Vertices have unique O(log n)-bit ids.
Round complexity = number of rounds until every vertex halts with its
part of the output.

This module runs genuine node programs under that discipline.  A node
program subclasses :class:`NodeAlgorithm`; the simulator enforces that
a node sees *only* messages from its graph neighbors and its own local
state — the isolation the LOCAL model promises.

The heavyweight decomposition algorithms of the paper are run under the
charging model of :mod:`repro.local.rounds` instead, but the primitive
building blocks (H-partition, Cole–Vishkin) also have genuine node
programs in :mod:`repro.local.algorithms`, and tests cross-check the
two implementations.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import LocalModelError
from ..graph.multigraph import MultiGraph


class NodeView:
    """What a single node is allowed to see: its id, degree, ports.

    Ports number the incident edges ``0..deg-1``; a message sent on a
    port is delivered to the node at the other end of that edge.  Port
    numbering hides neighbor ids (nodes may still learn them through
    messages, as the LOCAL model allows).
    """

    def __init__(self, node_id: int, ports: List[Tuple[int, int]]) -> None:
        self.node_id = node_id
        self._ports = ports  # list of (edge id, neighbor) per port

    @property
    def degree(self) -> int:
        return len(self._ports)

    def edge_of_port(self, port: int) -> int:
        """Edge id behind ``port`` (edge ids are public in our graphs)."""
        return self._ports[port][0]


class NodeAlgorithm:
    """Base class for LOCAL node programs.

    Lifecycle per node: ``init(view)`` once; then each round
    ``send() -> {port: message}`` followed by
    ``receive({port: message})``.  A node halts by setting
    ``self.halted = True``; its output is read from ``self.output``.
    The simulator keeps delivering messages to halted nodes' neighbors
    as empty; halted nodes neither send nor receive.
    """

    def __init__(self) -> None:
        self.view: Optional[NodeView] = None
        self.halted = False
        self.output: Any = None

    def init(self, view: NodeView) -> None:
        self.view = view

    def send(self) -> Dict[int, Any]:
        """Messages to emit this round, keyed by port."""
        return {}

    def receive(self, messages: Dict[int, Any]) -> None:
        """Handle messages received this round, keyed by port."""


class LocalNetwork:
    """Synchronous executor for node programs over a :class:`MultiGraph`."""

    def __init__(self, graph: MultiGraph) -> None:
        self.graph = graph
        # port tables: for each vertex, ordered (eid, neighbor) pairs
        self._ports: Dict[int, List[Tuple[int, int]]] = {
            v: sorted(graph.incident(v)) for v in graph.vertices()
        }
        # reverse map: (vertex, eid) -> port index
        self._port_of: Dict[Tuple[int, int], int] = {}
        for v, plist in self._ports.items():
            for port, (eid, _nbr) in enumerate(plist):
                self._port_of[(v, eid)] = port
        self.rounds_used = 0

    def run(
        self,
        make_node: "callable",
        max_rounds: int = 10_000,
    ) -> Dict[int, Any]:
        """Run one node program instance per vertex until all halt.

        Parameters
        ----------
        make_node:
            Called as ``make_node(vertex)``; must return a
            :class:`NodeAlgorithm`.
        max_rounds:
            Safety valve; exceeding it raises :class:`LocalModelError`.

        Returns
        -------
        dict vertex -> output.
        """
        nodes: Dict[int, NodeAlgorithm] = {}
        for v in self.graph.vertices():
            node = make_node(v)
            if not isinstance(node, NodeAlgorithm):
                raise LocalModelError("make_node must return a NodeAlgorithm")
            node.init(NodeView(v, self._ports[v]))
            nodes[v] = node

        self.rounds_used = 0
        while any(not node.halted for node in nodes.values()):
            if self.rounds_used >= max_rounds:
                raise LocalModelError(
                    f"LOCAL simulation exceeded {max_rounds} rounds"
                )
            # Phase 1: collect all sends (synchronous semantics — sends
            # of round t may not depend on receives of round t).
            outboxes: Dict[int, Dict[int, Any]] = {}
            for v, node in nodes.items():
                if node.halted:
                    continue
                out = node.send()
                if out:
                    for port in out:
                        if not (0 <= port < len(self._ports[v])):
                            raise LocalModelError(
                                f"node {v} sent on invalid port {port}"
                            )
                    outboxes[v] = out
            # Phase 2: route and deliver.
            inboxes: Dict[int, Dict[int, Any]] = {v: {} for v in nodes}
            for v, out in outboxes.items():
                for port, message in out.items():
                    eid, neighbor = self._ports[v][port]
                    their_port = self._port_of[(neighbor, eid)]
                    inboxes[neighbor][their_port] = message
            for v, node in nodes.items():
                if not node.halted:
                    node.receive(inboxes[v])
            self.rounds_used += 1

        return {v: node.output for v, node in nodes.items()}


def broadcast_gather(
    network: LocalNetwork, values: Dict[int, Any], radius: int
) -> Dict[int, Dict[int, Any]]:
    """Utility: every vertex learns the ``values`` of its radius-``r`` ball.

    Implemented as a genuine flooding node program, so it costs exactly
    ``radius`` rounds in the simulator.  Returns vertex -> {vertex: value}.
    """

    class Flood(NodeAlgorithm):
        def __init__(self, vertex: int) -> None:
            super().__init__()
            self.known: Dict[int, Any] = {vertex: values[vertex]}
            self.age = 0

        def send(self) -> Dict[int, Any]:
            payload = dict(self.known)
            return {port: payload for port in range(self.view.degree)}

        def receive(self, messages: Dict[int, Any]) -> None:
            for payload in messages.values():
                self.known.update(payload)
            self.age += 1
            if self.age >= radius:
                self.halted = True
                self.output = self.known

    if radius == 0:
        return {v: {v: values[v]} for v in network.graph.vertices()}
    return network.run(Flood)
