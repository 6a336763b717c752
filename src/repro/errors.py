"""Exception hierarchy for the :mod:`repro` library.

All library-specific failures derive from :class:`ReproError` so callers
can catch one base class.  Validation failures carry enough context to
debug which invariant broke (color, edge, vertex).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Structural problem with a graph (unknown vertex/edge, bad input)."""


class DecompositionError(ReproError):
    """A decomposition routine could not produce a valid result."""


class ValidationError(ReproError):
    """An output failed verification against its specification."""


class AugmentationError(DecompositionError):
    """No augmenting sequence could be found for an uncolored edge."""


class PaletteError(DecompositionError):
    """An edge palette is too small or a color is outside the palette."""


class ConvergenceError(DecompositionError):
    """A randomized procedure exhausted its retry budget."""


class ReservePaletteError(DecompositionError):
    """A leftover edge drew an empty reserve palette (the Theorem 4.9
    guarantee is only w.h.p.; callers convert it to Las Vegas by
    retrying with a fresh stream)."""


class RegistryError(ReproError):
    """Unknown or conflicting task name in the decomposition registry
    (see :mod:`repro.core.registry`)."""


class LocalModelError(ReproError):
    """Misuse of the LOCAL simulator (message after halt, bad neighbor)."""
