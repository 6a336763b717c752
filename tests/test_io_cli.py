"""Tests for edge-list IO and the command-line interface."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import GraphError
from repro.graph.generators import line_multigraph, union_of_random_forests
from repro.graph.io import (
    read_coloring,
    read_edge_list,
    read_palettes,
    write_coloring,
    write_edge_list,
    write_palettes,
)
from repro.__main__ import main as cli_main


def test_edge_list_roundtrip():
    g = union_of_random_forests(15, 2, seed=1)
    buffer = io.StringIO()
    write_edge_list(g, buffer)
    buffer.seek(0)
    back = read_edge_list(buffer)
    assert back == g  # ids assigned in file order == original ids


def test_edge_list_roundtrip_multigraph():
    g = line_multigraph(4, 3)
    buffer = io.StringIO()
    write_edge_list(g, buffer)
    buffer.seek(0)
    back = read_edge_list(buffer)
    assert back.m == g.m
    assert back.multiplicity(0, 1) == 3


def test_edge_list_file_roundtrip(tmp_path):
    g = union_of_random_forests(10, 2, seed=2)
    path = str(tmp_path / "g.txt")
    write_edge_list(g, path)
    assert read_edge_list(path) == g


def test_edge_list_headerless_is_snap():
    # A headerless pair stream is a SNAP-style file: vertices 0..max id,
    # edge ids in file order, optional third column (weight) ignored.
    g = read_edge_list(io.StringIO("# comment\n0 1\n2\t0\t7.5\n"))
    assert g.n == 3
    assert g.m == 2
    assert sorted((u, v) for _eid, u, v in g.edges()) == [(0, 1), (2, 0)]


def test_edge_list_empty_headerless_raises():
    with pytest.raises(GraphError):
        read_edge_list(io.StringIO("# nothing here\n"))


def test_edge_list_snap_negative_vertex_raises():
    with pytest.raises(GraphError):
        read_edge_list(io.StringIO("0 1\n-1 2\n"))


def test_edge_list_bad_line():
    with pytest.raises(GraphError):
        read_edge_list(io.StringIO("n 3\n0 1 2\n"))


def test_edge_list_comments_and_blanks():
    g = read_edge_list(io.StringIO("# hi\n\nn 3\n# edge next\n0 1\n"))
    assert g.n == 3
    assert g.m == 1


def test_coloring_roundtrip(tmp_path):
    path = str(tmp_path / "c.txt")
    write_coloring({0: 2, 1: 0, 5: 1}, path)
    back = read_coloring(path)
    assert back == {0: "2", 1: "0", 5: "1"}


def test_coloring_bad_line():
    with pytest.raises(GraphError):
        read_coloring(io.StringIO("justoneword\n"))


def test_palettes_roundtrip(tmp_path):
    path = str(tmp_path / "p.txt")
    write_palettes({0: [1, 2, 3], 7: [0]}, path)
    back = read_palettes(path)
    assert back == {0: [1, 2, 3], 7: [0]}


def test_palettes_bad_line():
    with pytest.raises(GraphError):
        read_palettes(io.StringIO("5\n"))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


@pytest.fixture()
def graph_file(tmp_path):
    g = union_of_random_forests(20, 2, seed=3)
    path = str(tmp_path / "graph.txt")
    write_edge_list(g, path)
    return path


def test_cli_stats(graph_file, capsys):
    assert cli_main(["stats", graph_file]) == 0
    out = capsys.readouterr().out
    assert "arboricity = 2" in out
    assert "n = 20" in out


def test_cli_fd(graph_file, tmp_path, capsys):
    out_path = str(tmp_path / "coloring.txt")
    code = cli_main([
        "fd", graph_file, "--epsilon", "0.5", "--alpha", "2",
        "--out", out_path,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "forests used:" in out
    assert os.path.exists(out_path)
    coloring = read_coloring(out_path)
    assert len(coloring) == 2 * 19


def test_cli_orient(graph_file, capsys):
    code = cli_main([
        "orient", graph_file, "--alpha", "2", "--method", "exact",
    ])
    assert code == 0
    assert "out-degree bound:" in capsys.readouterr().out


def test_cli_sfd(tmp_path, capsys):
    g = union_of_random_forests(25, 3, seed=5, simple=True)
    path = str(tmp_path / "simple.txt")
    write_edge_list(g, path)
    assert cli_main(["sfd", path, "--epsilon", "0.5", "--alpha", "3"]) == 0
    assert "star forests used:" in capsys.readouterr().out


def test_cli_generate(tmp_path, capsys):
    out_path = str(tmp_path / "generated.txt")
    code = cli_main([
        "generate", "forest-union", "--n", "15", "--alpha", "2",
        "--seed", "1", "--out", out_path,
    ])
    assert code == 0
    g = read_edge_list(out_path)
    assert g.n == 15
    assert g.m == 2 * 14


def test_cli_fd_json(graph_file, capsys):
    import json

    assert cli_main(["fd", graph_file, "--alpha", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "forest"
    assert payload["colors_used"] >= 2
    assert payload["config"]["alpha"] == 2
    assert isinstance(payload["coloring"], list)


def test_cli_fd_backend_dict_matches_csr(graph_file, capsys):
    """``fd --json`` prints exactly the library's forest decomposition
    (one substrate since ``--backend`` was removed; the library run is
    what the goldens and the kernel-vs-reference checks pin)."""
    import json

    import repro
    from repro.graph.io import read_edge_list

    assert cli_main(["fd", graph_file, "--alpha", "2", "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    library = repro.forest_decomposition(
        read_edge_list(graph_file), epsilon=0.5, alpha=2, seed=0
    ).to_json()
    assert printed["coloring"] == library["coloring"]
    assert printed["colors_used"] == library["colors_used"]


def test_cli_decompose_forest(graph_file, capsys):
    assert cli_main([
        "decompose", graph_file, "--task", "forest", "--alpha", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "task: forest" in out
    assert "colors used:" in out


def test_cli_decompose_profile(graph_file, capsys):
    """--profile prints the pass table: its header, a rule, then one
    row per executed stage in execution order."""
    from repro.core.api import TASK_STAGES

    assert cli_main([
        "decompose", graph_file, "--task", "forest", "--alpha", "2",
        "--profile",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("pass"))
    assert lines[start].split() == [
        "pass", "wall_ms", "rounds", "items", "reconcile", "touched",
    ]
    assert set(lines[start + 1]) == {"-"}
    rows = [line.split() for line in lines[start + 2:]]
    assert [row[0] for row in rows] == [
        name for name, _description, _citation in TASK_STAGES["forest"]
    ]
    assert all(len(row) == 6 for row in rows)


@pytest.mark.parametrize("argv", [
    ["describe", "forest"],
    ["generate", "grid", "--n", "4000"],
])
def test_cli_exits_quietly_when_stdout_closes(argv):
    """``repro describe forest | head -3``: once the reader has gone,
    the CLI exits nonzero without a traceback.  The pipe's read end is
    closed before the child starts, so every write hits EPIPE."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={"PYTHONPATH": src, "PATH": ""}, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


@pytest.mark.parametrize("command", ["fd", "decompose", "serve"])
def test_cli_rejects_unknown_backend(graph_file, capsys, command):
    """``--backend`` is gone: even a formerly valid value is a usage
    error (exit status 2), caught by the parser before any graph is
    read or any daemon started."""
    argv = [command] + ([] if command == "serve" else [graph_file])
    with pytest.raises(SystemExit) as exit_info:
        cli_main(argv + ["--backend", "csr"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro")
    assert "unrecognized arguments: --backend csr" in err


@pytest.mark.parametrize("command, flag, value", [
    ("decompose", "--carve-rule", "doubling"),
    ("serve", "--delta-mode", "auto"),
    ("serve", "--delta-threshold", "0.25"),
])
def test_cli_rejects_removed_knob_flags(graph_file, capsys, command, flag,
                                        value):
    """The carve and delta knobs left the config, and their flags with
    them: naming one is a usage error, even with its old default."""
    argv = [command] + ([] if command == "serve" else [graph_file])
    with pytest.raises(SystemExit) as exit_info:
        cli_main(argv + [flag, value])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in (
        capsys.readouterr().err
    )


def test_cli_decompose_orientation_json(graph_file, capsys):
    import json

    assert cli_main([
        "decompose", graph_file, "--task", "orientation",
        "--method", "exact", "--alpha", "2", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "orientation"
    assert payload["bound"] == 3  # ceil((1 + 0.5) * 2)


def test_cli_decompose_json_out_file(graph_file, tmp_path, capsys):
    import json

    out_path = str(tmp_path / "result.json")
    assert cli_main([
        "decompose", graph_file, "--task", "pseudoforest", "--alpha", "2",
        "--out", out_path,
    ]) == 0
    with open(out_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["kind"] == "pseudoforest"
    assert "k" in payload


def test_cli_decompose_list_forest_with_palettes(tmp_path, capsys):
    from repro.graph.generators import skewed_palettes
    from repro.graph.io import write_palettes

    g = union_of_random_forests(20, 2, seed=3)
    graph_path = str(tmp_path / "graph.txt")
    write_edge_list(g, graph_path)
    palettes = skewed_palettes(g, 9, color_space=27, hot_fraction=0.5, seed=3)
    palette_path = str(tmp_path / "palettes.txt")
    write_palettes(palettes, palette_path)
    assert cli_main([
        "decompose", graph_path, "--task", "list_forest",
        "--palettes", palette_path, "--epsilon", "1.0", "--alpha", "2",
    ]) == 0
    assert "task: list_forest" in capsys.readouterr().out


def test_cli_decompose_rejects_inapplicable_flags(graph_file, capsys):
    assert cli_main([
        "decompose", graph_file, "--task", "forest",
        "--method", "augmentation",
    ]) == 2
    assert "--method does not apply" in capsys.readouterr().err
    assert cli_main([
        "decompose", graph_file, "--task", "orientation",
        "--palettes", graph_file,
    ]) == 2
    assert "--palettes does not apply" in capsys.readouterr().err


def test_cli_decompose_unknown_task_clean_error(graph_file, capsys):
    assert cli_main([
        "decompose", graph_file, "--task", "bogus_task",
    ]) == 2
    err = capsys.readouterr().err
    assert "unknown task" in err and "forest" in err


def test_cli_decompose_epsilon_defaults_to_task_default(tmp_path, capsys):
    import json

    g = union_of_random_forests(25, 3, seed=5, simple=True)
    path = str(tmp_path / "simple.txt")
    write_edge_list(g, path)
    assert cli_main([
        "decompose", path, "--task", "star_forest", "--alpha", "3",
        "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["epsilon"] == 0.25  # star_forest's default


def test_cli_decompose_report(graph_file, capsys):
    assert cli_main([
        "decompose", graph_file, "--task", "forest", "--alpha", "2",
        "--report",
    ]) == 0
    assert "valid forest decomposition" in capsys.readouterr().out


def test_cli_orient_json_out(graph_file, tmp_path, capsys):
    import json

    out_path = str(tmp_path / "orient.json")
    assert cli_main([
        "orient", graph_file, "--alpha", "2", "--method", "exact",
        "--out", out_path,
    ]) == 0
    with open(out_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["kind"] == "orientation"
    assert payload["bound"] == 3


def test_cli_generate_line_multigraph(tmp_path):
    out_path = str(tmp_path / "line.txt")
    assert cli_main([
        "generate", "line-multigraph", "--n", "10", "--alpha", "3",
        "--out", out_path,
    ]) == 0
    g = read_edge_list(out_path)
    assert g.multiplicity(0, 1) == 3
