"""Tests for the RNG helpers and the decomposition summary reporter."""

import random

import pytest

from repro.errors import ValidationError
from repro.graph.generators import cycle_graph, star_graph
from repro.nashwilliams import exact_forest_decomposition
from repro.rng import (
    child_rng,
    coin,
    make_rng,
    maybe_seeded,
    random_partition_index,
    sample_subset,
)
from repro.verify import summarize_decomposition


def test_make_rng_from_int_deterministic():
    a, b = make_rng(5), make_rng(5)
    assert [a.random() for _ in range(4)] == [b.random() for _ in range(4)]


def test_make_rng_passthrough():
    rng = random.Random(1)
    assert make_rng(rng) is rng


def test_child_rng_labels_diverge():
    parent_a, parent_b = make_rng(7), make_rng(7)
    child_x = child_rng(parent_a, "x")
    child_y = child_rng(parent_b, "y")
    # Different labels from identical parents give different streams.
    assert [child_x.random() for _ in range(4)] != [
        child_y.random() for _ in range(4)
    ]


def test_child_rng_reproducible():
    a = child_rng(make_rng(9), "cut")
    b = child_rng(make_rng(9), "cut")
    assert a.random() == b.random()


def test_coin_extremes():
    rng = make_rng(0)
    assert coin(rng, 0.0) is False
    assert coin(rng, 1.0) is True
    assert coin(rng, -1) is False
    assert coin(rng, 2.0) is True


def test_coin_distribution():
    rng = make_rng(3)
    hits = sum(coin(rng, 0.3) for _ in range(4000))
    assert 1000 < hits < 1450  # ~1200 expected


def test_sample_subset():
    rng = make_rng(4)
    items = list(range(10))
    sub = sample_subset(rng, items, 4)
    assert len(sub) == 4
    assert set(sub) <= set(items)
    assert sample_subset(rng, items, 99) == items


def test_random_partition_index():
    rng = make_rng(5)
    values = {random_partition_index(rng, 3) for _ in range(60)}
    assert values == {0, 1, 2}
    with pytest.raises(ValueError):
        random_partition_index(rng, 0)


def test_maybe_seeded():
    a = maybe_seeded(None, default_seed=11)
    b = maybe_seeded(None, default_seed=11)
    assert a.random() == b.random()
    c = maybe_seeded(7, default_seed=11)
    d = make_rng(7)
    assert c.random() == d.random()


# ----------------------------------------------------------------------
# summarize_decomposition
# ----------------------------------------------------------------------


def test_summary_forest():
    g = cycle_graph(6)
    coloring = exact_forest_decomposition(g)
    report = summarize_decomposition(g, coloring, "forest")
    assert "valid forest decomposition" in report
    assert "colors used: 2" in report
    assert "max tree diameter" in report


def test_summary_star():
    g = star_graph(5)
    coloring = {eid: 0 for eid in g.edge_ids()}
    report = summarize_decomposition(g, coloring, "star")
    assert "valid star decomposition" in report


def test_summary_pseudoforest():
    g = cycle_graph(5)
    coloring = {eid: 0 for eid in g.edge_ids()}
    report = summarize_decomposition(g, coloring, "pseudoforest")
    assert "valid pseudoforest decomposition" in report
    assert "colors used: 1" in report


def test_summary_rejects_invalid():
    g = cycle_graph(3)
    coloring = {eid: 0 for eid in g.edge_ids()}  # a cycle is no forest
    with pytest.raises(ValidationError):
        summarize_decomposition(g, coloring, "forest")
    with pytest.raises(ValidationError):
        summarize_decomposition(g, coloring, "bogus-kind")


def test_summary_cli_report_flag(tmp_path, capsys):
    from repro.__main__ import main as cli_main
    from repro.graph.generators import union_of_random_forests
    from repro.graph.io import write_edge_list

    g = union_of_random_forests(15, 2, seed=1)
    path = str(tmp_path / "g.txt")
    write_edge_list(g, path)
    assert cli_main(["fd", path, "--alpha", "2", "--report"]) == 0
    out = capsys.readouterr().out
    assert "valid forest decomposition" in out