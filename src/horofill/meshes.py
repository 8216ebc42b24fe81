"""Triangulated reference surfaces for the brute-force area oracle.

Geodesic spheres are built from the octahedron (subdivision keeps the
equator on mesh edges, which the oracle's loop-on-mesh requirement
needs); segment tubes are capped cylinders with ring loops on the mesh;
planar grids validate the oracle against hand counts.
"""

import json

import numpy as np

from .partitions import subdivide


def octasphere(level=3, radius=1.0, center=None):
    """Geodesic sphere from a subdivided octahedron (8 * 4^level faces)."""
    verts = [
        np.array([1.0, 0, 0]),
        np.array([-1.0, 0, 0]),
        np.array([0, 1.0, 0]),
        np.array([0, -1.0, 0]),
        np.array([0, 0, 1.0]),
        np.array([0, 0, -1.0]),
    ]
    tris = [
        (0, 2, 4),
        (2, 1, 4),
        (1, 3, 4),
        (3, 0, 4),
        (2, 0, 5),
        (1, 2, 5),
        (3, 1, 5),
        (0, 3, 5),
    ]
    for _ in range(level):
        verts, tris, _ = subdivide(verts, tris)
    verts = [radius * v / np.linalg.norm(v) for v in verts]
    if center is not None:
        verts = [v + np.asarray(center, dtype=float) for v in verts]
    return np.array(verts), np.array(tris, dtype=int)


def equator_cycle(vertices, tol=1e-9):
    """Vertex cycle of the z = 0 equator of an octasphere, in angle order."""
    idx = [i for i, v in enumerate(vertices) if abs(v[2]) <= tol]
    idx.sort(key=lambda i: np.arctan2(vertices[i][1], vertices[i][0]))
    return idx


def capped_cylinder(n_around=16, n_along=6, n_cap=4, radius=1.0, length=1.0):
    """Tube of the segment [0, length] e_x at the given radius.

    Rings of n_around vertices along the cylinder, spherical caps with
    n_cap latitude rows closed at two pole vertices.  Ring m of the
    cylinder part is a loop on the mesh.
    """
    verts = []
    rings = []

    def add_ring(x, rho):
        ring = []
        for k in range(n_around):
            phi = 2 * np.pi * k / n_around
            ring.append(len(verts))
            verts.append(np.array([x, rho * np.cos(phi), rho * np.sin(phi)]))
        return ring

    # bottom cap rows (from pole at -radius up to the cylinder rim)
    pole_bottom = len(verts)
    verts.append(np.array([-radius, 0.0, 0.0]))
    for r in range(1, n_cap + 1):
        th = np.pi / 2 * r / n_cap
        rings.append(add_ring(-radius * np.cos(th), radius * np.sin(th)))
    for m in range(1, n_along):
        rings.append(add_ring(length * m / n_along, radius))
    for r in range(n_cap, 0, -1):
        th = np.pi / 2 * r / n_cap
        rings.append(add_ring(length + radius * np.cos(th), radius * np.sin(th)))
    pole_top = len(verts)
    verts.append(np.array([length + radius, 0.0, 0.0]))

    tris = []
    first = rings[0]
    for k in range(n_around):
        tris.append((pole_bottom, first[k], first[(k + 1) % n_around]))
    for a, b in zip(rings[:-1], rings[1:]):
        for k in range(n_around):
            k2 = (k + 1) % n_around
            tris.append((a[k], b[k], b[k2]))
            tris.append((a[k], b[k2], a[k2]))
    last = rings[-1]
    for k in range(n_around):
        tris.append((pole_top, last[(k + 1) % n_around], last[k]))
    return np.array(verts), np.array(tris, dtype=int), rings


def grid_square(n=2, side=1.0):
    """n x n right-triangle grid of a square; boundary cycle included."""
    verts = []
    for j in range(n + 1):
        for i in range(n + 1):
            verts.append(np.array([side * i / n, side * j / n, 0.0]))
    tris = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            b = a + 1
            c = a + (n + 1)
            d = c + 1
            tris.append((a, b, d))
            tris.append((a, d, c))
    boundary = (
        [j for j in range(n)]
        + [n + j * (n + 1) for j in range(n)]
        + [(n + 1) * (n + 1) - 1 - j for j in range(n)]
        + [n * (n + 1) - j * (n + 1) for j in range(n)]
    )
    return np.array(verts), np.array(tris, dtype=int), boundary


def save_mesh(path, vertices, triangles):
    data = {
        "vertices": [[round(float(c), 12) for c in v] for v in vertices],
        "triangles": [[int(i) for i in t] for t in triangles],
    }
    with open(path, "w") as fh:
        json.dump(data, fh)


def load_mesh(path):
    with open(path) as fh:
        data = json.load(fh)
    return np.array(data["vertices"], dtype=float), np.array(
        data["triangles"], dtype=int
    )


def save_cycle(path, cycle):
    with open(path, "w") as fh:
        json.dump({"cycle": [int(i) for i in cycle]}, fh)


def load_cycle(path):
    with open(path) as fh:
        return [int(i) for i in json.load(fh)["cycle"]]
