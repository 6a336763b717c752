"""Running genuine LOCAL-model node programs under the simulator.

The heavy decompositions in this library run centrally with
locality-faithful round *charging* (see ``repro.decompose`` /
``repro.Session`` for that API); the primitive building blocks also
exist as real message-passing node programs.  This example runs both
and cross-checks them: the H-partition peeling (Theorem 2.1(1)) and
Cole-Vishkin tree 3-coloring, as genuinely distributed algorithms.

Run:  python examples/local_simulation.py
"""

from repro.decomposition import h_partition, three_color_rooted_forest
from repro.graph import RootedForest
from repro.graph.generators import union_of_random_forests
from repro.local import (
    RoundCounter,
    run_distributed_hpartition,
    run_distributed_tree_coloring,
)
from repro.nashwilliams import exact_pseudoarboricity
from repro.verify import check_hpartition


def main() -> None:
    graph = union_of_random_forests(150, 3, seed=31)
    pseudo = exact_pseudoarboricity(graph)
    threshold = 2 * pseudo + 1
    print(f"graph: n={graph.n}, m={graph.m}, alpha*={pseudo}, "
          f"peeling threshold t={threshold}\n")

    # 1. H-partition, twice: genuine message passing vs central+charged.
    distributed, rounds_used = run_distributed_hpartition(graph, threshold)
    counter = RoundCounter()
    central = h_partition(graph, threshold, counter)
    assert central.classes == distributed, "implementations disagree!"
    check_hpartition(graph, distributed, threshold)
    print("H-partition (Theorem 2.1(1)):")
    print(f"  classes: {max(distributed.values())}")
    print(f"  message-passing simulator rounds: {rounds_used}")
    print(f"  charged rounds (central run):     {counter.total}\n")

    # 2. Cole-Vishkin 3-coloring of a spanning forest of the graph.
    tree = union_of_random_forests(150, 1, seed=32)
    forest = RootedForest(tree, tree.edge_ids())
    parents = {v: forest.parent_edge[v] for v in tree.vertices()}
    colors, cv_rounds = run_distributed_tree_coloring(tree, parents)
    assert all(
        colors[u] != colors[v] for _e, u, v in tree.edges()
    ), "improper coloring!"
    central_colors = three_color_rooted_forest(forest.parent)
    print("Cole-Vishkin tree 3-coloring:")
    print(f"  distributed rounds: {cv_rounds} (O(log* n) + O(1))")
    print(f"  colors used (distributed): {sorted(set(colors.values()))}")
    print(f"  colors used (central):     "
          f"{sorted(set(central_colors.values()))}")


if __name__ == "__main__":
    main()
