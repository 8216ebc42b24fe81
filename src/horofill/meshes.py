"""Triangulated orientable reference surfaces for the area oracle.

Geodesic spheres are built from the octahedron (subdivision keeps the
equator on mesh edges, which the oracle's loop-on-mesh requirement
needs); segment tubes are capped cylinders with ring loops on the mesh;
planar grids validate the oracle against hand counts.
"""

import json

import numpy as np

from .geometry import DECISION_TOL, row_norms
from .partitions import subdivide


def octasphere(level=3):
    """Unit geodesic sphere from a subdivided octahedron (8 * 4^level faces)."""
    verts = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    tris = np.array(
        [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4], [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]]
    )
    for _ in range(level):
        verts, tris, _ = subdivide(verts, tris)
    return verts / row_norms(verts)[:, None], tris


def equator_cycle(vertices):
    """Vertex cycle of the z = 0 equator of an octasphere, in angle order."""
    idx = np.flatnonzero(np.abs(vertices[:, 2]) <= DECISION_TOL)
    angles = np.arctan2(vertices[idx, 1], vertices[idx, 0])
    return idx[np.argsort(angles, kind="stable")].tolist()


def capped_cylinder(n_around=16, n_along=6, n_cap=4):
    """Unit-radius tube of the unit segment [0, 1] e_x.

    Rings of n_around vertices along the cylinder, spherical caps with
    n_cap latitude rows closed at two pole vertices.  Ring m of the
    cylinder part is a loop on the mesh.
    """
    th = np.pi / 2 * np.arange(1, n_cap + 1) / n_cap  # bottom cap rows, pole to rim
    x = np.concatenate([-np.cos(th), np.arange(1, n_along) / n_along, 1.0 + np.cos(th[::-1])])
    rho = np.concatenate([np.sin(th), np.ones(n_along - 1), np.sin(th[::-1])])
    phi = 2 * np.pi * np.arange(n_around) / n_around
    ring_pts = np.stack(
        np.broadcast_arrays(x[:, None], rho[:, None] * np.cos(phi), rho[:, None] * np.sin(phi)),
        axis=-1,
    )
    verts = np.vstack([[-1.0, 0.0, 0.0], ring_pts.reshape(-1, 3), [2.0, 0.0, 0.0]])
    rings = 1 + np.arange(len(x) * n_around).reshape(len(x), n_around)
    nxt = np.roll(rings, -1, axis=1)  # the next vertex around each ring
    a, b, a2, b2 = rings[:-1], rings[1:], nxt[:-1], nxt[1:]
    tris = np.vstack([
        np.stack([np.zeros(n_around, dtype=int), rings[0], nxt[0]], axis=1),
        np.stack([a, b, b2, a, b2, a2], axis=-1).reshape(-1, 3),
        np.stack([np.full(n_around, len(verts) - 1), nxt[-1], rings[-1]], axis=1),
    ])
    return verts, tris, rings.tolist()


def grid_square(n=2):
    """n x n right-triangle grid of the unit square; boundary cycle included."""
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1))
    verts = np.stack([i.ravel() / n, j.ravel() / n, np.zeros(i.size)], axis=1)
    a = (i[:-1, :-1] + (n + 1) * j[:-1, :-1]).ravel()  # lower-left corner of each cell
    tris = np.stack([a, a + 1, a + n + 2, a, a + n + 2, a + n + 1], axis=1).reshape(-1, 3)
    k = np.arange(n)
    boundary = np.concatenate([k, n + k * (n + 1), (n + 1) ** 2 - 1 - k, n * (n + 1) - k * (n + 1)])
    return verts, tris, boundary.tolist()


def save_mesh(path, vertices, triangles):
    data = {
        "vertices": np.asarray(vertices, dtype=float).tolist(),  # repr round-trips exactly
        "triangles": np.asarray(triangles, dtype=int).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(data, fh)


def load_mesh(path):
    with open(path) as fh:
        data = json.load(fh)
    return np.array(data["vertices"], dtype=float), np.array(
        data["triangles"], dtype=int
    ).reshape(-1, 3)


def save_cycle(path, cycle):
    with open(path, "w") as fh:
        json.dump({"cycle": [int(i) for i in cycle]}, fh)


def load_cycle(path):
    with open(path) as fh:
        return [int(i) for i in json.load(fh)["cycle"]]
