"""Theorem 2.3 — ⌊(4+ε)α* − 1⌋-list-star-forest decomposition.

Claims: palettes of size ⌊(4+ε)α*−1⌋ always suffice, for multigraphs,
with rounds O(log³n/ε) in the network-decomposition variant.  The bench
validates the decomposition across graph families and shows the charged
round scaling with n.
"""

from repro.decomposition import (
    list_star_forest_decomposition,
    lsfd_palette_requirement,
)
from repro.graph.generators import (
    grid_graph,
    line_multigraph,
    random_palettes,
)
from repro.local import RoundCounter
from repro.nashwilliams import exact_pseudoarboricity
from repro.verify import (
    check_palettes_respected,
    check_star_forest_decomposition,
)

from harness import emit, forest_workload, format_table, once

SEED = 29
EPSILON = 0.5


def _run(name, graph):
    pseudo = max(1, exact_pseudoarboricity(graph))
    required = max(1, lsfd_palette_requirement(pseudo, EPSILON))
    palettes = random_palettes(graph, required, 3 * required, seed=SEED)
    rc = RoundCounter()
    coloring = list_star_forest_decomposition(
        graph, palettes, pseudo, EPSILON, rc
    )
    check_star_forest_decomposition(graph, coloring)
    check_palettes_respected(coloring, palettes)
    distinct = len(set(coloring.values()))
    return [name, graph.n, graph.m, pseudo, required, distinct, rc.total]


def bench_thm23(benchmark):
    rows = []

    def run():
        rows.append(_run("forest union a=3, n=50", forest_workload(50, 3, SEED)))
        rows.append(_run("forest union a=3, n=100", forest_workload(100, 3, SEED)))
        rows.append(_run("forest union a=3, n=200", forest_workload(200, 3, SEED)))
        rows.append(_run("line multigraph x4", line_multigraph(40, 4)))
        rows.append(_run("grid 8x8", grid_graph(8, 8)))

    once(benchmark, run)
    table = format_table(
        f"Theorem 2.3 reproduction: (4+{EPSILON})alpha*-LSFD "
        "(palette sizes = the theorem's requirement exactly)",
        [
            "graph", "n", "m", "alpha*", "palette size", "distinct colors",
            "charged rounds",
        ],
        rows,
    )
    emit("thm23_lsfd", table)
    # Shape: rounds grow polylogarithmically in n on the same family.
    r50 = rows[0][6]
    r200 = rows[2][6]
    assert r200 <= 4 * r50, "round growth faster than polylog shape"
