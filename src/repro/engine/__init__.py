"""The columnar execution engine — winnow over contiguous score vectors.

A second execution representation next to the row engine: relations
materialize per-attribute column vectors (cached — relations are
immutable), preferences eligible for vector-skyline evaluation — Pareto
terms over chains and single-attribute weak orders — are compiled to
integer code matrices, and dominance runs block-wise vectorized
(NumPy when available, pure Python otherwise) instead of one
``pref._lt`` call per row pair.

The planner (:mod:`repro.query.optimizer`) picks this backend automatically
for such winnows from a few dozen rows up; ``PreferenceQuery.backend("columnar")``
forces it and ``.using("vsfs")`` / ``.using("vbnl")`` name its kernels
directly.  See ``docs/architecture.md`` for where the engine sits in the
layer map.
"""

from repro.engine.backend import backend_label, get_numpy, numpy_available
from repro.engine.columns import ColumnStore, rank_codes
from repro.engine.columnar import (
    NotColumnarError,
    columnar_axes,
    columnar_bnl,
    columnar_profile,
    columnar_sfs,
    columnar_winnow,
)
from repro.engine.vectorized import KERNELS, skyline_bnl, skyline_sfs

__all__ = [
    "ColumnStore",
    "KERNELS",
    "NotColumnarError",
    "backend_label",
    "columnar_axes",
    "columnar_bnl",
    "columnar_profile",
    "columnar_sfs",
    "columnar_winnow",
    "get_numpy",
    "numpy_available",
    "rank_codes",
    "skyline_bnl",
    "skyline_sfs",
]
