"""Edge-list serialization for graphs, palettes and colorings.

Formats (all plain text, comment lines start with ``#``):

* graph: first non-comment line ``n <vertices>``; then one ``u v`` pair
  per line (parallel edges = repeated lines; edge ids are assigned in
  file order, so colorings round-trip);
* SNAP-style graph: no header — just ``u v`` (or ``u v w``; weights
  are ignored) pairs, tabs or spaces, ``#`` comment lines skipped.
  Vertices are ``0..max id`` (gaps become isolated vertices);
* coloring: ``<edge id> <color>`` per line;
* palettes: ``<edge id> c1 c2 c3 ...`` per line.

:func:`read_edge_list` accepts both graph formats and returns a
:class:`MultiGraph`; :func:`iter_edge_chunks` streams either format as
``(k, 2)`` index arrays without ever holding the file in memory — the
front end of the out-of-core ``CSRGraph.from_edge_iter`` ingest.

Structured results additionally round-trip as JSON
(:func:`write_result_json` / :func:`read_result_json`), carrying the
full uniform-result payload — kind, coloring, stats, config — instead
of the lossy text coloring.

These back the ``python -m repro`` command-line tool and let users run
the decompositions on their own graphs.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, TextIO, Tuple, Union

from ..errors import GraphError
from .multigraph import MultiGraph

PathOrIO = Union[str, TextIO]


def _open_for(target: PathOrIO, mode: str):
    if isinstance(target, str):
        return open(target, mode, encoding="utf-8"), True
    return target, False


def write_edge_list(graph: MultiGraph, target: PathOrIO) -> None:
    """Serialize a multigraph as an edge list."""
    handle, owned = _open_for(target, "w")
    try:
        handle.write(f"# repro edge list: n={graph.n} m={graph.m}\n")
        handle.write(f"n {graph.n}\n")
        for _eid, u, v in graph.edges():
            handle.write(f"{u} {v}\n")
    finally:
        if owned:
            handle.close()


def _parse_edge(parts: List[str], line_number: int) -> Tuple[int, int]:
    """One SNAP-style edge line: ``u v`` or ``u v weight`` (weight
    ignored)."""
    if len(parts) not in (2, 3):
        raise GraphError(
            f"line {line_number}: expected 'u v [weight]', "
            f"got {' '.join(parts)!r}"
        )
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphError(
            f"line {line_number}: endpoints must be integers, "
            f"got {' '.join(parts)!r}"
        ) from None


def read_edge_list(source: PathOrIO) -> MultiGraph:
    """Parse a multigraph from an edge list (see module docstring).

    Both graph formats are accepted: the native one (``n <count>``
    header, then ``u v`` pairs) and headerless SNAP-style files (``u v``
    or ``u v weight`` per line, weights ignored, ``#`` comments
    skipped, vertex set ``0..max id``).  Edge ids are assigned in file
    order in both.
    """
    handle, owned = _open_for(source, "r")
    try:
        graph: MultiGraph = MultiGraph()
        saw_header = False
        saw_edges = False
        snap_edges: List[Tuple[int, int]] = []
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if not saw_header and not saw_edges:
                if parts[0] == "n":
                    if len(parts) != 2:
                        raise GraphError(
                            f"line {line_number}: expected 'n <count>' "
                            f"header, got {line!r}"
                        )
                    graph = MultiGraph.with_vertices(int(parts[1]))
                    saw_header = True
                    continue
                saw_edges = True  # headerless SNAP stream
            u, v = _parse_edge(parts, line_number)
            saw_edges = True
            if saw_header:
                if len(parts) != 2:
                    raise GraphError(
                        f"line {line_number}: expected 'u v', got {line!r}"
                    )
                graph.add_edge(u, v)
            else:
                snap_edges.append((u, v))
        if not saw_header:
            if not saw_edges:
                raise GraphError(
                    "edge list has no 'n <count>' header and no edges"
                )
            top = max(max(u, v) for u, v in snap_edges)
            if min(min(u, v) for u, v in snap_edges) < 0:
                raise GraphError("edge endpoints must be nonnegative")
            graph = MultiGraph.with_vertices(top + 1)
            for u, v in snap_edges:
                graph.add_edge(u, v)
        return graph
    finally:
        if owned:
            handle.close()


def iter_edge_chunks(source: PathOrIO, chunk_edges: int = 1 << 20):
    """Stream an edge-list / SNAP file as ``(k, 2)`` int64 arrays.

    Accepts the same two formats as :func:`read_edge_list` (an
    ``n <count>`` header line, when present, is skipped — the chunked
    CSR ingest infers or receives ``n`` itself) and never holds more
    than ``chunk_edges`` edges in memory, which is what lets
    ``CSRGraph.from_edge_iter(path, mmap_dir=...)`` ingest 10^7+-edge
    files out-of-core.
    """
    import numpy as np

    handle, owned = _open_for(source, "r")
    try:
        buffer: List[Tuple[int, int]] = []
        first = True
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if first:
                first = False
                if parts[0] == "n" and len(parts) == 2:
                    continue
            buffer.append(_parse_edge(parts, line_number))
            if len(buffer) >= chunk_edges:
                yield np.asarray(buffer, dtype=np.int64)
                buffer = []
        if buffer:
            yield np.asarray(buffer, dtype=np.int64)
    finally:
        if owned:
            handle.close()


def write_coloring(coloring: Dict[int, object], target: PathOrIO) -> None:
    """Serialize an edge coloring (colors stringified with str())."""
    handle, owned = _open_for(target, "w")
    try:
        handle.write("# repro coloring: <edge id> <color>\n")
        for eid in sorted(coloring):
            handle.write(f"{eid} {coloring[eid]}\n")
    finally:
        if owned:
            handle.close()


def read_coloring(source: PathOrIO) -> Dict[int, str]:
    """Parse a coloring; colors come back as strings."""
    handle, owned = _open_for(source, "r")
    try:
        coloring: Dict[int, str] = {}
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(maxsplit=1)
            if len(parts) != 2:
                raise GraphError(
                    f"line {line_number}: expected '<edge id> <color>'"
                )
            coloring[int(parts[0])] = parts[1]
        return coloring
    finally:
        if owned:
            handle.close()


def write_palettes(palettes: Dict[int, Sequence[int]], target: PathOrIO) -> None:
    """Serialize per-edge palettes."""
    handle, owned = _open_for(target, "w")
    try:
        handle.write("# repro palettes: <edge id> c1 c2 ...\n")
        for eid in sorted(palettes):
            colors = " ".join(str(c) for c in palettes[eid])
            handle.write(f"{eid} {colors}\n")
    finally:
        if owned:
            handle.close()


def write_result_json(result, target: PathOrIO) -> None:
    """Serialize a uniform-protocol decomposition result as JSON.

    ``result`` is any :class:`~repro.core.results.DecompositionResult`
    (whatever :func:`repro.decompose` returned); the payload is
    ``result.to_json()``, so colors, stats, round accounting and the
    producing config all survive.
    """
    handle, owned = _open_for(target, "w")
    try:
        json.dump(result.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    finally:
        if owned:
            handle.close()


def read_result_json(source: PathOrIO, graph: "MultiGraph" = None):
    """Rebuild a decomposition result written by
    :func:`write_result_json`; bind ``graph`` to re-enable
    ``validate()`` / ``coloring_array()``."""
    # imported lazily: core depends on the graph layer, not vice versa
    from ..core.results import DecompositionResult

    handle, owned = _open_for(source, "r")
    try:
        payload = json.load(handle)
    finally:
        if owned:
            handle.close()
    return DecompositionResult.from_json(payload, graph=graph)


def read_palettes(source: PathOrIO) -> Dict[int, List[int]]:
    """Parse per-edge palettes of integer colors."""
    handle, owned = _open_for(source, "r")
    try:
        palettes: Dict[int, List[int]] = {}
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphError(
                    f"line {line_number}: expected '<edge id> c1 [c2 ...]'"
                )
            palettes[int(parts[0])] = [int(c) for c in parts[1:]]
        return palettes
    finally:
        if owned:
            handle.close()
