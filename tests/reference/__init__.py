"""Dict-adjacency reference implementations of the graph kernels.

The library runs every algorithm on the flat-array CSR kernel.  These
modules keep the dict-of-sets implementations it was ported from,
unchanged in behaviour, so ``tests/test_kernel_equivalence.py`` (and
friends) and ``benchmarks/bench_kernel.py`` can check and time the
kernel against an independent implementation.  They never import the
kernel modules, and ``repro`` never imports them
(``tests/test_reference_guards.py``).

``lll.py`` (a Moser–Tardos engine) and ``list_forest_exact.py`` (the
backtracking list-forest solver behind the Seymour checks, with its
rollback union-find) are not kernel twins: no library path runs them,
and they are kept with their tests.
"""
