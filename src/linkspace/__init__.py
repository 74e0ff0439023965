"""Moduli spaces of planar polygonal linkages: cell complexes, permutohedron
surgery, surface classification and mesh export."""

from .cwcomplex import CWComplex, build_complex, euler_characteristic, facet_membership_table
from .geometry import SurfaceMesh, boundary_cycle, perform_surgery, permutohedron, project_to_3d
from .linkage import (
    DEFAULT_EPSILON,
    Linkage,
    Rational,
    is_admissible_part,
    is_admissible_partition,
    make_linkage,
)
from .partitions import (
    CyclicOrder,
    CyclicPartition,
    canonicalize,
    cell_vertices,
    enumerate_cyclic_partitions,
)
from .topology import TopologyReport, analyze, classify_linkage

__version__ = "0.1.0"

__all__ = [
    "CWComplex",
    "CyclicOrder",
    "CyclicPartition",
    "DEFAULT_EPSILON",
    "Linkage",
    "Rational",
    "SurfaceMesh",
    "TopologyReport",
    "analyze",
    "boundary_cycle",
    "build_complex",
    "canonicalize",
    "cell_vertices",
    "classify_linkage",
    "enumerate_cyclic_partitions",
    "euler_characteristic",
    "facet_membership_table",
    "is_admissible_part",
    "is_admissible_partition",
    "make_linkage",
    "perform_surgery",
    "permutohedron",
    "project_to_3d",
]
