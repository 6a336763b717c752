"""Tests for the Moser-Tardos LLL engine."""

import pytest

from repro.errors import ConvergenceError
from repro.local import RoundCounter

from reference.lll import LLLInstance, dependency_degree, moser_tardos


def hypergraph_two_coloring_instance(edges, n):
    """Classic LLL demo: 2-color vertices so no edge is monochromatic."""
    instance = LLLInstance()
    for v in range(n):
        instance.add_variable(v, lambda rng: rng.randrange(2))
    for index, edge in enumerate(edges):
        instance.add_event(
            f"mono-{index}",
            edge,
            lambda a, e=tuple(edge): len({a[v] for v in e}) == 1,
        )
    return instance


def test_two_coloring_small():
    # 3-uniform hypergraph, low overlap: LLL applies comfortably.
    edges = [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8), (8, 9, 0)]
    instance = hypergraph_two_coloring_instance(edges, 10)
    assignment = moser_tardos(instance, seed=1)
    for edge in edges:
        assert len({assignment[v] for v in edge}) > 1


def test_sequential_mode():
    edges = [(0, 1, 2), (1, 2, 3), (2, 3, 4)]
    instance = hypergraph_two_coloring_instance(edges, 5)
    assignment = moser_tardos(instance, seed=2, parallel=False)
    for edge in edges:
        assert len({assignment[v] for v in edge}) > 1


def test_rounds_charged():
    edges = [(0, 1, 2)]
    instance = hypergraph_two_coloring_instance(edges, 3)
    rc = RoundCounter()
    moser_tardos(instance, seed=3, rounds=rc)
    assert rc.total >= 1  # at least the initial sampling round


def test_unsatisfiable_raises_convergence_error():
    # Single-vertex 'edge' is monochromatic under any assignment.
    instance = LLLInstance()
    instance.add_variable(0, lambda rng: rng.randrange(2))
    instance.add_event("impossible", [0], lambda a: True)
    with pytest.raises(ConvergenceError):
        moser_tardos(instance, seed=0, max_iterations=50)


def test_duplicate_variable_rejected():
    instance = LLLInstance()
    instance.add_variable("x", lambda rng: 0)
    with pytest.raises(ValueError):
        instance.add_variable("x", lambda rng: 1)


def test_unknown_variable_rejected():
    instance = LLLInstance()
    with pytest.raises(ValueError):
        instance.add_event("bad", ["ghost"], lambda a: False)


def test_no_events_returns_sample():
    instance = LLLInstance()
    instance.add_variable("x", lambda rng: 7)
    assignment = moser_tardos(instance, seed=5)
    assert assignment == {"x": 7}


def test_dependency_degree():
    instance = LLLInstance()
    for v in range(4):
        instance.add_variable(v, lambda rng: 0)
    instance.add_event("a", [0, 1], lambda a: False)
    instance.add_event("b", [1, 2], lambda a: False)
    instance.add_event("c", [3], lambda a: False)
    assert dependency_degree(instance) == 1  # a-b share variable 1; c isolated


def test_deterministic_given_seed():
    edges = [(0, 1, 2), (2, 3, 4)]
    a = moser_tardos(hypergraph_two_coloring_instance(edges, 5), seed=42)
    b = moser_tardos(hypergraph_two_coloring_instance(edges, 5), seed=42)
    assert a == b


def test_string_variables_reproduce_across_hash_seeds():
    """Regression (PR 9 analyzer finding, det-set-order): the parallel
    resampling step iterated ``to_resample`` — a *set* — directly, so
    with string variable names the per-variable rng draws followed
    PYTHONHASHSEED-randomized set order and seeded runs diverged across
    processes (the PR 2 child_rng bug class).  The fix resamples in
    variable declaration order; here we pin the whole assignment across
    three different hash seeds in real subprocesses.
    """
    import os
    import subprocess
    import sys

    script = (
        "from reference.lll import LLLInstance, moser_tardos\n"
        "instance = LLLInstance()\n"
        "names = ['v%02d' % i for i in range(16)]\n"
        "for name in names:\n"
        "    instance.add_variable(name, lambda rng: rng.randrange(100))\n"
        "for i, name in enumerate(names):\n"
        "    instance.add_event('high-%d' % i, [name],\n"
        "                       lambda a, n=name: a[n] >= 60)\n"
        "assignment = moser_tardos(instance, seed=7)\n"
        "print(sorted(assignment.items()))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outputs = set()
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), os.path.join(root, "tests")]
        )
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs
