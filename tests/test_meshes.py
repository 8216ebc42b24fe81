"""The array-built reference meshes against the loops they replaced, byte for byte."""

import numpy as np
import pytest

from horofill import meshes as ms
from horofill.geometry import DECISION_TOL
from horofill.partitions import subdivide


def reference_octasphere(level=3):
    """``octasphere`` as it was: vertex lists and one norm per vertex."""
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
    verts = [v / np.linalg.norm(v) for v in verts]
    return np.array(verts), np.array(tris, dtype=int)


def reference_equator_cycle(vertices):
    """``equator_cycle`` as it was: a filtered index list sorted by angle."""
    idx = [i for i, v in enumerate(vertices) if abs(v[2]) <= DECISION_TOL]
    idx.sort(key=lambda i: np.arctan2(vertices[i][1], vertices[i][0]))
    return idx


def reference_capped_cylinder(n_around=16, n_along=6, n_cap=4):
    """``capped_cylinder`` as it was: one point and one triangle at a time."""
    verts = []
    rings = []

    def add_ring(x, rho):
        ring = []
        for k in range(n_around):
            phi = 2 * np.pi * k / n_around
            ring.append(len(verts))
            verts.append(np.array([x, rho * np.cos(phi), rho * np.sin(phi)]))
        return ring

    pole_bottom = len(verts)
    verts.append(np.array([-1.0, 0.0, 0.0]))
    for r in range(1, n_cap + 1):
        th = np.pi / 2 * r / n_cap
        rings.append(add_ring(-np.cos(th), np.sin(th)))
    for m in range(1, n_along):
        rings.append(add_ring(m / n_along, 1.0))
    for r in range(n_cap, 0, -1):
        th = np.pi / 2 * r / n_cap
        rings.append(add_ring(1.0 + np.cos(th), np.sin(th)))
    pole_top = len(verts)
    verts.append(np.array([2.0, 0.0, 0.0]))

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


def reference_grid_square(n=2):
    """``grid_square`` as it was: nested loops over the grid."""
    verts = []
    for j in range(n + 1):
        for i in range(n + 1):
            verts.append(np.array([i / n, j / n, 0.0]))
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


def assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("level", range(5))
def test_octasphere_and_equator_match_the_loops(level):
    got, want = ms.octasphere(level), reference_octasphere(level)
    assert_same_arrays(got, want)
    cycle = ms.equator_cycle(got[0])
    assert type(cycle) is list and cycle == reference_equator_cycle(want[0])


@pytest.mark.parametrize("args", [(), (12, 4, 3), (5, 2, 1)])
def test_capped_cylinder_matches_the_loops(args):
    *got, rings = ms.capped_cylinder(*args)
    *want, want_rings = reference_capped_cylinder(*args)
    assert_same_arrays(got, want)
    assert type(rings) is list and rings == want_rings


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_grid_square_matches_the_loops(n):
    *got, boundary = ms.grid_square(n)
    *want, want_boundary = reference_grid_square(n)
    assert_same_arrays(got, want)
    assert type(boundary) is list and boundary == want_boundary
