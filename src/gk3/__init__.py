"""Exact verification toolkit for a dual pair of elliptic K3 surfaces.

Submodules build on each other roughly in this order: ``scalar``
(exact Laurent/Gaussian-rational arithmetic), ``cohomology`` (the
six-dimensional even-cohomology lattice), ``harmonic`` (polyvector
classes and the transform maps), ``linalg`` (exact kernels and
eigenspaces), ``families`` (the two deformation families' lattice
directions), ``spinor`` and ``gcs`` (pointwise exterior algebra and
endomorphisms of ``T + T*`` on the flat model), ``mirror`` (the lattice
mirror map), and ``checks``/``cli`` (named verification suites and the
command-line front end).
"""

from .cohomology import CohClass
from .harmonic import HTClass
from .linalg import CMatrix, Subspace
from .scalar import GaussRational, Scalar
from .spinor import Spinor

__all__ = [
    "CohClass",
    "HTClass",
    "CMatrix",
    "Subspace",
    "GaussRational",
    "Scalar",
    "Spinor",
]

__version__ = "0.1.0"
