"""Golden regression tests: frozen decomposition outputs.

Each case runs one seeded decomposition on a small fixed instance and
compares its observable result — color counts, charged LOCAL rounds,
and a hash of the full coloring — against ``tests/golden/*.json``.
Refactors of the graph substrate (e.g. the flat-array kernel) must not
change any of these; a test failing here means results silently moved.

To intentionally re-freeze after an algorithmic change:

    pytest tests/test_golden_regression.py --regen
"""

import hashlib
import json
import os
from collections.abc import Mapping

import pytest

from repro.core.api import (
    barenboim_elkin_forest_decomposition,
    forest_decomposition,
    low_outdegree_orientation,
    star_forest_decomposition,
)
from repro.decomposition import (
    default_threshold,
    degeneracy_ordering,
    degeneracy_orientation,
    h_partition,
)
from repro.graph.generators import (
    erdos_renyi,
    grid_graph,
    line_multigraph,
    union_of_random_forests,
)
from repro.local import RoundCounter
from repro.nashwilliams import exact_pseudoarboricity

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "decompositions.json")


def _sha(mapping):
    """Order-independent digest of a coloring / ordering object.  Any
    mapping (a dict or an array-backed ``EdgeArrayMap``) hashes its
    ``(key, value)`` pairs, so its values are checked too."""
    if isinstance(mapping, Mapping):
        canonical = sorted((int(k), str(v)) for k, v in mapping.items())
    else:
        canonical = [str(item) for item in mapping]
    blob = json.dumps(canonical, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ----------------------------------------------------------------------
# Corpus: every entry returns a JSON-serializable summary.
# ----------------------------------------------------------------------


def _case_fd_depth_residue():
    graph = union_of_random_forests(40, 3, seed=7)
    result = forest_decomposition(graph, epsilon=0.5, seed=11)
    return {
        "colors_used": result.colors_used,
        "leftover_size": result.leftover_size,
        "rounds": result.rounds.total,
        "coloring": _sha(result.coloring),
    }


def _case_fd_conditioned_sampling():
    graph = union_of_random_forests(40, 3, seed=7)
    result = forest_decomposition(
        graph, epsilon=0.5, cut_rule="conditioned_sampling", seed=11
    )
    return {
        "colors_used": result.colors_used,
        "leftover_size": result.leftover_size,
        "rounds": result.rounds.total,
        "coloring": _sha(result.coloring),
    }


def _case_fd_diameter_bounded():
    graph = grid_graph(6, 7)
    result = forest_decomposition(graph, epsilon=0.5, diameter_mode="auto", seed=3)
    return {
        "colors_used": result.colors_used,
        "rounds": result.rounds.total,
        "coloring": _sha(result.coloring),
    }


def _case_fd_line_multigraph():
    graph = line_multigraph(12, 4)
    result = forest_decomposition(graph, epsilon=0.5, seed=5)
    return {
        "colors_used": result.colors_used,
        "rounds": result.rounds.total,
        "coloring": _sha(result.coloring),
    }


def _case_star_forest_amr():
    graph = union_of_random_forests(36, 4, seed=2, simple=True)
    result = star_forest_decomposition(graph, epsilon=0.25, seed=9)
    return {
        "colors_used": result.colors_used,
        "rounds": result.rounds.total,
        "coloring": _sha(result.coloring),
    }


def _case_barenboim_elkin():
    graph = union_of_random_forests(30, 3, seed=4)
    coloring, forests = barenboim_elkin_forest_decomposition(graph, 0.5)
    return {"forests": forests, "coloring": _sha(coloring)}


def _case_degeneracy():
    graph = erdos_renyi(50, 0.15, seed=6)
    d, order = degeneracy_ordering(graph)
    d2, orientation = degeneracy_orientation(graph)
    return {
        "degeneracy": d,
        "order": _sha(order),
        "orientation_degeneracy": d2,
        "orientation": _sha(orientation),
    }


def _case_h_partition():
    graph = union_of_random_forests(40, 3, seed=8)
    threshold = default_threshold(exact_pseudoarboricity(graph), 0.5)
    counter = RoundCounter()
    partition = h_partition(graph, threshold, counter)
    return {
        "threshold": threshold,
        "num_classes": partition.num_classes,
        "rounds": counter.total,
        "classes": _sha(partition.classes),
    }


def _case_orientation_hpartition():
    graph = erdos_renyi(40, 0.2, seed=10)
    orientation, bound = low_outdegree_orientation(
        graph, 0.5, method="hpartition"
    )
    return {"bound": bound, "orientation": _sha(orientation)}


def _case_orientation_augmentation():
    graph = union_of_random_forests(30, 3, seed=12)
    counter = RoundCounter()
    orientation, bound = low_outdegree_orientation(
        graph, 0.5, method="augmentation", seed=13, rounds=counter
    )
    return {
        "bound": bound,
        "rounds": counter.total,
        "orientation": _sha(orientation),
    }


CASES = {
    "fd_depth_residue": _case_fd_depth_residue,
    "fd_conditioned_sampling": _case_fd_conditioned_sampling,
    "fd_diameter_bounded": _case_fd_diameter_bounded,
    "fd_line_multigraph": _case_fd_line_multigraph,
    "star_forest_amr": _case_star_forest_amr,
    "barenboim_elkin": _case_barenboim_elkin,
    "degeneracy": _case_degeneracy,
    "h_partition": _case_h_partition,
    "orientation_hpartition": _case_orientation_hpartition,
    "orientation_augmentation": _case_orientation_augmentation,
}


def _load():
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _save(golden):
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, regen):
    actual = CASES[name]()
    if regen:
        golden = _load()
        golden[name] = actual
        _save(golden)
        return
    golden = _load()
    assert name in golden, (
        f"no golden entry for {name!r}; generate with "
        f"pytest tests/test_golden_regression.py --regen"
    )
    assert actual == golden[name], (
        f"{name}: output drifted from frozen golden values — if the change "
        f"is intentional, re-freeze with --regen"
    )


def test_golden_has_no_orphan_entries():
    """Every frozen entry belongs to a case: an entry no case produces
    certifies nothing and would hide a deleted case."""
    orphans = sorted(set(_load()) - set(CASES))
    assert not orphans, f"golden entries without a case: {orphans}"
