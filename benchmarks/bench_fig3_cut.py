"""Figure 3 / Theorem 4.2 — CUT severs escape paths within budget.

Figure 3 depicts ``H_c[C'']`` and the requirement that CUT disconnect
the cluster ball ``C'`` from all vertices at distance R.  The bench
reproduces the quantitative claims of Theorem 4.2: after CUT, (a) the
execution is good (no monochromatic escape), and (b) the leftover edges
have pseudo-arboricity at most ⌈εα⌉ — for both rules.
"""

import math
import random

from repro.core import CutController, PartialListForestDecomposition, is_cut_good
from repro.core.augmenting import augment_edge
from repro.decomposition import acyclic_orientation, h_partition
from repro.graph import neighborhood
from repro.graph.generators import line_multigraph, uniform_palette
from repro.nashwilliams import exact_pseudoarboricity

from harness import emit, format_table, once

SEED = 13


def _colored_line(length, multiplicity, seed):
    graph = line_multigraph(length, multiplicity)
    state = PartialListForestDecomposition(
        graph, uniform_palette(graph, range(multiplicity + 1))
    )
    order = graph.edge_ids()
    random.Random(seed).shuffle(order)
    for eid in order:
        augment_edge(state, eid)
    return graph, state


def _leftover_pseudoarboricity(graph, leftover):
    if not leftover:
        return 0
    return exact_pseudoarboricity(graph.edge_subgraph(leftover))


def _run_rule(rule, epsilon, alpha, radius):
    graph, state = _colored_line(80, alpha, SEED)
    orientation = None
    if rule == "conditioned_sampling":
        pseudo = exact_pseudoarboricity(graph)
        partition = h_partition(graph, 3 * pseudo)
        orientation = acyclic_orientation(graph, partition)
    controller = CutController(
        state,
        epsilon,
        alpha,
        rule=rule,
        orientation=orientation,
        probability=0.4 if rule == "conditioned_sampling" else None,
        seed=SEED + 1,
    )
    rng = random.Random(SEED + 2)
    good = 0
    invocations = 6
    for _ in range(invocations):
        center = rng.randrange(graph.n)
        core = neighborhood(graph, [center], 2)
        controller.cut(core, radius)
        if is_cut_good(state, core, radius):
            good += 1
    leftover = state.leftover_edges()
    budget = math.ceil(epsilon * alpha)
    measured = _leftover_pseudoarboricity(graph, leftover)
    return [
        rule,
        f"{epsilon}",
        alpha,
        radius,
        f"{good}/{invocations}",
        len(leftover),
        measured,
        budget,
        controller.stats.fallback_removed,
    ]


def bench_fig3(benchmark):
    rows = []

    def run():
        rows.append(_run_rule("depth_residue", 1.0, 3, 8))
        rows.append(_run_rule("depth_residue", 0.5, 3, 10))
        rows.append(_run_rule("conditioned_sampling", 1.0, 3, 8))

    once(benchmark, run)
    table = format_table(
        "Figure 3 / Theorem 4.2 reproduction: CUT on line multigraphs "
        "(length 80)",
        [
            "rule", "eps", "alpha", "R", "good cuts", "|leftover|",
            "leftover alpha*", "ceil(eps alpha)", "fallback edges",
        ],
        rows,
    )
    emit("fig3_cut", table)
    for row in rows:
        good, total = row[4].split("/")
        assert good == total, f"cut not always good: {row}"
        assert row[6] <= row[7], f"leftover exceeds budget: {row}"
