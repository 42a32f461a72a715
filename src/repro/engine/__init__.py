"""The columnar execution engine — winnow over contiguous score vectors.

A second execution representation next to the row engine: relations
materialize per-attribute column vectors (cached — relations are
immutable), preferences eligible for vector-skyline evaluation — Pareto
terms over chains and single-attribute weak orders — are compiled to
integer code matrices, and dominance runs block-wise vectorized
(NumPy when available, pure Python otherwise) instead of one
``pref._lt`` call per row pair.  A bare weak order over one column is one
argmax pass over its column instead (the ``sort`` algorithm; its score is
``repro.query.algorithms.weak_score``).

The planner (:func:`repro.query.optimizer.choose_algorithm`) picks this
engine for every such winnow, at any size and with or without NumPy;
``PreferenceQuery.using("vsfs")`` names it directly.  See
``docs/architecture.md`` for where the engine sits in the layer map.
"""

from repro.engine.backend import backend_label, get_numpy, numpy_available
from repro.engine.columns import ColumnStore, rank_codes
from repro.engine.columnar import (
    NotColumnarError,
    columnar_axes,
    columnar_profile,
    columnar_winnow,
)
from repro.engine.vectorized import KERNELS, skyline_sfs

__all__ = [
    "ColumnStore",
    "KERNELS",
    "NotColumnarError",
    "backend_label",
    "columnar_axes",
    "columnar_profile",
    "columnar_winnow",
    "get_numpy",
    "numpy_available",
    "rank_codes",
    "skyline_sfs",
]
