"""Treewidth certificates on the diagonal 3D grid."""

__version__ = "0.1.0"
