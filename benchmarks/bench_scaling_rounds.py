"""Scaling — charged LOCAL rounds vs n for the main algorithms.

The paper's round bounds are polylogarithmic in n (Table 1: O(log³n/ε)
to O(log⁴n/ε)).  This bench fixes ε and α and doubles n repeatedly,
reporting charged rounds for the H-partition baseline, Theorem 2.3
LSFD, and Algorithm 2 — the reproduction check is that round growth per
doubling is an additive/polylog increment, not multiplicative in n.

Algorithm 2 runs on its default radii R = R' = Θ(log n / ε), so its
network decomposition charges log² n · 2(R + R') and the total is
O(log³ n / ε): the last column, rounds / log³ n, stays in a narrow band.
The ladder reaches n = 3200, where G^{2(R+R')} is the complete graph:
the carve runs on G (``network_decomposition(..., power=k)``), so the
power graph is never built.
"""

import math

import repro
from repro.core import forest_decomposition_algorithm2
from repro.decomposition import (
    list_star_forest_decomposition,
    lsfd_palette_requirement,
)
from repro.graph.generators import uniform_palette
from repro.local import RoundCounter
from repro.nashwilliams import exact_pseudoarboricity

from harness import emit, forest_workload, format_table, once

SEED = 73
ALPHA = 3
EPSILON = 1.0
LADDER = (50, 100, 200, 400, 800, 1600, 3200)


def bench_scaling_rounds(benchmark):
    rows = []

    def run():
        for n in LADDER:
            graph = forest_workload(n, ALPHA, seed=SEED + n)

            rc_base = RoundCounter()
            repro.barenboim_elkin_forest_decomposition(
                graph, EPSILON, rounds=rc_base
            )

            rc_lsfd = RoundCounter()
            pseudo = exact_pseudoarboricity(graph)
            required = lsfd_palette_requirement(pseudo, EPSILON)
            palettes = uniform_palette(graph, range(required))
            list_star_forest_decomposition(
                graph, palettes, pseudo, EPSILON, rc_lsfd
            )

            rc_alg2 = RoundCounter()
            forest_decomposition_algorithm2(
                graph, EPSILON, alpha=ALPHA, seed=SEED, rounds=rc_alg2,
            )

            rows.append(
                [
                    n,
                    math.ceil(math.log2(n)),
                    rc_base.total,
                    rc_lsfd.total,
                    rc_alg2.total,
                    round(rc_alg2.total / math.log2(n) ** 3, 1),
                ]
            )

    once(benchmark, run)
    table = format_table(
        f"Scaling: charged rounds vs n (alpha={ALPHA}, eps={EPSILON}, "
        "default radii for Algorithm 2)",
        ["n", "log2 n", "[BE10] H-partition", "Thm 2.3 LSFD", "Algorithm 2",
         "Alg 2 / log^3 n"],
        rows,
    )
    emit("scaling_rounds", table)
    # Shape: every 8x larger n costs each algorithm well under 8x the
    # rounds (polylog growth, not linear).
    for column in (2, 3, 4):
        for small, large in zip(rows, rows[3:]):
            assert large[column] <= 6 * max(small[column], 1), (
                f"column {column} grew {large[column]}/{small[column]} "
                f"from n={small[0]} to n={large[0]}"
            )
    # Algorithm 2 is Θ(log³ n / ε) at fixed ε: rounds / log³ n stays
    # within a constant band over the whole 64x ladder.
    normalized = [row[5] for row in rows]
    assert max(normalized) <= 1.5 * min(normalized), normalized