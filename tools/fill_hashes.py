"""Print SHA-256 digests of a fixed set of fills, one line per fill.

Each line hashes a partition's points, triangles, boundary and boundary
anchor (as float64 / int64 bytes); the last line is the digest of all
lines.  Two checkouts that print the same last line build the same
disks bit for bit.  Run from the root of a checkout:

    PYTHONPATH=src python3 tools/fill_hashes.py
"""

import hashlib

import numpy as np

from horofill import filling as fl
from horofill import meshes as ms
from horofill import scenarios as sc
from horofill.partitions import Loop

SEEDS = (0, 1)
LENGTHS = {"trace-a3": (8, 16, 32)}
DEFAULT_LENGTHS = (8, 16, 32, 64)


def digest(points, triangles, boundary=(), anchor=None):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(points, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(triangles, dtype=np.int64).tobytes())
    h.update(np.asarray(list(boundary), dtype=np.int64).tobytes())
    if anchor is not None:
        h.update(np.asarray(list(anchor), dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def scenario_fill(gen, ell, seed):
    """(host, loop, partition): one scenario loop and its mesh-1 filling."""
    host, loop = sc.make_loop(gen, ell, 1.0, seed)
    return host, loop, sc.fill(host, loop, 1.0)[0]


def fill(gen, ell, seed):
    """The mesh-1 filling of one scenario loop, as the hashed fills make it."""
    return scenario_fill(gen, ell, seed)[2]


def fill_digest(fp):
    return digest(fp.points, fp.triangles, fp.boundary, fp.boundary_anchor)


def ellipse_loop():
    """A 40-point ellipse with semi-axes 3 and 2."""
    t = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    return Loop(np.stack([3 * np.cos(t), 2 * np.sin(t)], axis=1))


def ellipse_cone_fill():
    """The mesh-1 cone fill of ``ellipse_loop()``."""
    return fl.cone_fill(ellipse_loop(), 1.0)


def cases():
    """(name, host, loop, partition) of every hashed fill; the cone fills have no host."""
    for gen in sc.GENERATORS:
        for ell in LENGTHS.get(gen, DEFAULT_LENGTHS):
            for seed in SEEDS:
                yield f"{gen} l={ell} seed={seed}", *scenario_fill(gen, ell, seed)
    loop = ellipse_loop()
    cone = fl.cone_fill(loop, 1.0)
    yield "cone_fill", None, loop, cone
    yield "refine_partition", None, loop, fl.refine_partition(cone, cone.mesh / 3)


def fills():
    for name, _, _, fp in cases():
        yield name, fp


def digest_lines():
    """The printed lines, one per fill as it is made, then the digest of them all."""
    lines = []
    for name, fp in fills():
        lines.append(f"{name}: area={fp.area} {fill_digest(fp)}")
        yield lines[-1]
    verts, tris = ms.octasphere(3)
    lines.append(f"octasphere(3): {digest(verts, tris)}")
    yield lines[-1]
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    yield f"all: {total}"


def main():
    for line in digest_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
