"""Scattering and spectral-singularity analysis for a quaternionic point
interaction whose i-channel strength is complex.

The API is imported from the modules: qdelta.scatter, qdelta.singular,
qdelta.oracle, qdelta.qalg, qdelta.verify, qdelta.svgplot and qdelta.cli.
"""

__version__ = "0.1.0"
