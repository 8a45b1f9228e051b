"""Scattering and spectral-singularity analysis for a quaternionic point
interaction whose i-channel strength is complex.

The API is imported from the modules: qdelta.scatter, qdelta.singular,
qdelta.oracle, qdelta.qalg, qdelta.verify, qdelta.svgplot and qdelta.cli.
Imported before numpy, they execute numpy on first array use (qdelta._lazy):
the ss command, which computes on Python floats, runs without it.
"""

__version__ = "0.1.0"
