"""Constructive horosphere-filling geometry at desk scale.

Modules, by machinery:

``coxeter``     finite reflection groups, chambers, slopes, wall gaps
``geometry``    spans, hulls, polytopes, nearest points, tolerance policy
``trace``       piecewise-linear convex Busemann traces on an apartment
``tube``        Euclidean tube geometry around convex polytopes
``partitions``  filling partitions (triangulated disks) and validation
``filling``     loop filling pipelines, exponent fits, the area oracle
``bootstrap``   exponent-improvement arithmetic
``meshes``      reference surfaces for the oracle
``scenarios``   deterministic loop generators for the experiments, and their fills
``cli``         experiment harness (CSV + SVG)
"""

from . import (
    bootstrap,
    coxeter,
    filling,
    geometry,
    meshes,
    partitions,
    scenarios,
    trace,
    tube,
)

__all__ = [
    "bootstrap",
    "coxeter",
    "filling",
    "geometry",
    "meshes",
    "partitions",
    "scenarios",
    "trace",
    "tube",
]
