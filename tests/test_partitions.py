import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horofill import scenarios as sc
from horofill import tube as tb
from horofill.filling import cone_fill, fill_flat_loop, refine_partition
from horofill.geometry import DECISION_TOL, SQUARED_LENGTH_FLOOR, SURFACE_TOL, straight_segments
from horofill.partitions import (
    MESH_ATTEMPTS,
    DiskBuilder,
    FillingPartition,
    Loop,
    PartitionError,
    _component_labels,
    compute_mesh,
    edge_keys,
    empty_partition,
    fill_to_mesh,
    validate_partition,
)


def square_loop():
    return Loop(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))


def fan_partition(loop):
    """Hand-built fan over a quad from vertex 0."""
    pts = loop.vertices
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return FillingPartition(pts, tris, [0, 1, 2, 3], [0, 1, 2, 3])


def test_loop_length_and_resample():
    loop = square_loop()
    assert abs(loop.length - 4.0) < 1e-12
    res, pos = loop.resampled(0.3)
    assert len(res.vertices) == 16
    assert pos.tolist() == [0, 4, 8, 12]
    assert abs(res.length - 4.0) < 1e-12


def test_constant_loop_and_empty_partition():
    c = Loop(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert c.is_constant
    fp = empty_partition(c)
    mesh, area = validate_partition(c, fp)
    assert mesh == 0.0 and area == 0
    with pytest.raises(PartitionError):
        empty_partition(square_loop())


def test_validate_simple_fan():
    loop = square_loop()
    fp = fan_partition(loop)
    mesh, area = validate_partition(loop, fp)
    assert area == 2
    assert abs(mesh - (1 + 1 + np.sqrt(2))) < 1e-12


def test_validate_triangle_single_brick():
    loop = Loop(np.array([[0.0, 0], [1, 0], [0, 1]]))
    fp = FillingPartition(loop.vertices, np.array([[0, 1, 2]]), [0, 1, 2], [0, 1, 2])
    mesh, area = validate_partition(loop, fp)
    assert area == 1
    assert abs(mesh - (2 + np.sqrt(2))) < 1e-12


def test_validate_rejects_extra_triangle():
    loop = square_loop()
    fp = fan_partition(loop)
    # flipping in a chord triangle breaks the boundary structure
    tris = np.vstack([fp.triangles, [[0, 1, 3]]])
    bad = FillingPartition(fp.points, tris, fp.boundary, fp.boundary_anchor)
    with pytest.raises(PartitionError):
        validate_partition(loop, bad)


def test_validate_rejects_duplicate_triangle():
    loop = square_loop()
    fp = fan_partition(loop)
    tris = np.vstack([fp.triangles, fp.triangles[:1]])
    bad = FillingPartition(fp.points, tris, fp.boundary, fp.boundary_anchor)
    with pytest.raises(PartitionError, match="manifold"):
        validate_partition(loop, bad)


def test_validate_rejects_annulus_euler():
    outer = square_loop().vertices
    inner = 0.5 * (outer - 0.5) + 0.5
    pts = np.vstack([outer, inner])
    tris = []
    for k in range(4):
        k2 = (k + 1) % 4
        tris.append([k, k2, 4 + k])
        tris.append([k2, 4 + k2, 4 + k])
    bad = FillingPartition(pts, np.array(tris), [0, 1, 2, 3], [0, 1, 2, 3])
    with pytest.raises(PartitionError, match="euler"):
        validate_partition(square_loop(), bad)


def test_validate_rejects_degenerate_triangle():
    loop = square_loop()
    fp = fan_partition(loop)
    tris = np.vstack([fp.triangles, [[1, 1, 2]]])
    bad = FillingPartition(fp.points, tris, fp.boundary, fp.boundary_anchor)
    with pytest.raises(PartitionError, match="degenerate"):
        validate_partition(loop, bad)


def test_validate_rejects_boundary_mismatch():
    loop = square_loop()
    other = Loop(np.array([[0.0, 0], [2, 0], [2, 2], [0, 2]]))
    fp = fan_partition(loop)
    with pytest.raises(PartitionError):
        validate_partition(other, fp)
    # the disk's boundary edges are 01, 12, 23, 30, not the declared cycle's
    bad = FillingPartition(fp.points, fp.triangles, [0, 2, 1, 3], [0, 1, 2, 3])
    with pytest.raises(PartitionError, match="declared boundary"):
        validate_partition(loop, bad)


def test_validate_rejects_disconnected():
    """A disjoint grid torus keeps V - E + F = 1 and the rim; only connectivity breaks."""
    loop = square_loop()
    pts = np.vstack([loop.vertices, 5.0 + np.arange(18.0).reshape(9, 2)])
    tris = np.vstack([[[0, 1, 2], [0, 2, 3]], torus_triangles(4)])
    bad = FillingPartition(pts, tris, [0, 1, 2, 3], [0, 1, 2, 3])
    with pytest.raises(PartitionError, match="disconnected"):
        validate_partition(loop, bad)


def test_validate_counts_only_the_vertices_of_bricks():
    """A point in no brick is not a vertex of the disk: V - E + F stays 1."""
    loop = square_loop()
    fp = fan_partition(loop)
    extra = FillingPartition(
        np.vstack([fp.points, [[7.0, 7.0]]]), fp.triangles, fp.boundary, fp.boundary_anchor
    )
    assert validate_partition(loop, extra) == validate_partition(loop, fp)


@pytest.mark.parametrize(
    "field, entries, message",
    [
        ("triangles", [[0, 1, 2], [0, 2, 3.2]], "triangle entries must be integers"),
        ("boundary", [0, 1.9, 2.2, 3], "boundary entries must be integers"),
    ],
)
def test_non_integer_indices_are_rejected(field, entries, message):
    """Read as ints they would truncate to the square fan, which validates."""
    data = fan_partition(square_loop()).to_dict()
    data[field] = entries
    with pytest.raises(PartitionError, match=message):
        FillingPartition.from_dict(data)


def test_empty_index_arrays_of_any_dtype_are_accepted():
    loop = Loop(np.zeros((3, 2)))
    for dtype in (float, bool, np.uint8, int):
        none = np.zeros(0, dtype=dtype)
        fp = FillingPartition(loop.vertices[:1], none, none, np.zeros(0, dtype=int))
        assert fp.triangles.shape == (0, 3) and fp.boundary.dtype == int
        assert validate_partition(loop, fp) == (0.0, 0)


def test_validate_rejects_wrong_order():
    loop = square_loop()
    pts = loop.vertices[[0, 2, 1, 3]]
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    bad = FillingPartition(pts, tris, [0, 1, 2, 3], [0, 1, 2, 3])
    with pytest.raises(PartitionError):
        validate_partition(loop, bad)


def test_validate_rejects_reversed_and_rotated():
    """The anchors fix the alignment: the same disk does not fill a shifted loop."""
    loop = square_loop()
    fp = fan_partition(loop)
    for other in (np.roll(loop.vertices, 2, axis=0), loop.vertices[::-1]):
        with pytest.raises(PartitionError, match="off its loop vertex"):
            validate_partition(Loop(other), fp)


@pytest.mark.parametrize(
    "anchor, message",
    [
        ([0, 1, 2, 99], r"outside \[0, 4\)"),
        ([0, 1, 2, -7], r"outside \[0, 4\)"),
        ([0, 1, 1, 3], "repeated"),
        ([0, 2, 1, 3], "does not increase"),
        ([0, 1, 2.5, 3], "integers"),
        ([0, 1, 2], r"anchor shape \(3,\)"),
        (3, r"anchor shape \(\)"),
        ([[0, 1, 2, 3]], r"anchor shape \(1, 4\)"),
    ],
)
def test_validate_rejects_bad_anchors(anchor, message):
    loop = square_loop()
    fp = fan_partition(loop)
    fp.boundary_anchor = anchor
    with pytest.raises(PartitionError, match=message):
        validate_partition(loop, fp)


def test_validate_accepts_a_rotated_anchor_cycle():
    """Anchors increase around the cycle, not within the list: one wrap is allowed."""
    loop = square_loop()
    fp = fan_partition(loop)
    shifted = FillingPartition(fp.points, fp.triangles, [1, 2, 3, 0], [3, 0, 1, 2])
    assert validate_partition(loop, shifted) == validate_partition(loop, fp)


def test_anchored_refinement_boundary():
    loop = square_loop()
    res, pos = loop.resampled(0.5)
    builder = DiskBuilder(2)
    bidx = builder.add_chain(res.vertices)
    hub = builder.add_point([0.5, 0.5])
    chains = [[hub, b] for b in bidx]
    for i in range(len(chains)):
        builder.add_ladder(chains[i], chains[(i + 1) % len(chains)])
    fp = builder.build(bidx, anchor=pos)
    mesh, area = validate_partition(loop, fp)
    assert area == len(res.vertices)


def test_anchor_off_loop_rejected():
    loop = square_loop()
    res, pos = loop.resampled(0.5)
    pts = res.vertices.copy()
    pts[1] = pts[1] + np.array([0.0, 0.3])  # push a refinement point off the edge
    builder = DiskBuilder(2)
    bidx = builder.add_chain(pts)
    hub = builder.add_point([0.5, 0.5])
    chains = [[hub, b] for b in bidx]
    for i in range(len(chains)):
        builder.add_ladder(chains[i], chains[(i + 1) % len(chains)])
    fp = builder.build(bidx, anchor=pos)
    with pytest.raises(PartitionError, match="off the loop"):
        validate_partition(loop, fp)


def test_ladder_shared_endpoints():
    builder = DiskBuilder(2)
    a = builder.add_chain([[0.0, 0], [0.5, 0.1], [1, 0]])
    b = builder.add_chain([[0.0, 0], [0.5, -0.1], [1, 0]])
    # identify shared endpoints by reusing indices
    builder.add_ladder([a[0], a[1], a[2]], [a[0], b[1], a[2]])
    fp = builder.build([a[0], a[1], a[2], b[1]], anchor=range(4))
    assert fp.area == 2


def add_straight_chains(builder, firsts, lasts, spacing):
    """Straight chains between placed vertices, placed in one call."""
    P = builder.points
    rows, counts = straight_segments(P[firsts], P[lasts], spacing)
    return builder.add_segments(rows, counts, firsts, lasts)


def test_add_segment_spacing():
    builder = DiskBuilder(2)
    i, j = builder.add_chain([[0.0, 0], [1.0, 0]])
    chain = add_straight_chains(builder, [i], [j], 0.3)
    assert chain[0] == i and chain[-1] == j
    assert len(chain) == 5  # ceil(1 / 0.3) + 1 points
    assert np.allclose(builder.points[chain][:, 0], np.linspace(0.0, 1.0, 5))
    assert add_straight_chains(builder, [i], [j], 2.0).tolist() == [i, j]


def reference_chain(builder, i, j, spacing):
    """The straight chain between placed vertices i and j, one np.linspace per pair."""
    pi, pj = builder.points[i], builder.points[j]
    n = max(2, int(np.ceil(float(np.linalg.norm(pj - pi)) / spacing)) + 1)
    interior = builder.add_chain(pi + np.linspace(0.0, 1.0, n)[1:-1, None] * (pj - pi))
    return [i, *interior.tolist(), j]


@st.composite
def straight_chain_cases(draw):
    """Placed points at one scale, chain ends among them and a spacing.

    The spacing may divide the first chain's length a whole number of
    times, so its point count turns on the last bit of that length.  A
    chain joins two placed vertices, one vertex to itself (first ==
    last), two vertices at one place (a loop vertex that is already on
    the level set) or two vertices a subnormal distance apart.
    """
    dim = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3, np.log10(50))
    pts = scale * rng.normal(size=(int(rng.integers(1, 10)), dim))
    m = int(rng.integers(1, 16))
    firsts = rng.integers(0, len(pts), m)
    lasts = rng.integers(0, len(pts), m)
    kind = rng.integers(0, 4, m)
    lasts[kind == 1] = firsts[kind == 1]
    for k in np.flatnonzero(kind == 2):
        lasts[k] = len(pts)
        pts = np.vstack([pts, pts[firsts[k]]])
    for k in np.flatnonzero(kind == 3):  # between points near the origin
        firsts[k], lasts[k] = len(pts), len(pts) + 1
        pts = np.vstack([pts, np.zeros(dim), rng.integers(-3, 4, dim) * 5e-324])
    spacing = scale * 10.0 ** rng.uniform(-1.5, 1.0)
    first_length = np.linalg.norm(pts[lasts[0]] - pts[firsts[0]])
    if draw(st.booleans()) and first_length > 0:
        # a whole number of spacings: the point count turns on the last bit
        spacing = first_length / int(rng.integers(1, 8))
    return pts, firsts.tolist(), lasts.tolist(), spacing


@given(straight_chain_cases())
@settings(max_examples=200)
def test_straight_chains_match_per_pair_linspace(case):
    pts, firsts, lasts, spacing = case
    builder, ref = DiskBuilder(pts.shape[1]), DiskBuilder(pts.shape[1])
    builder.add_chain(pts)
    ref.add_chain(pts)
    got = add_straight_chains(builder, firsts, lasts, spacing)
    want = [reference_chain(ref, i, j, spacing) for i, j in zip(firsts, lasts)]
    assert got.tolist() == [k for chain in want for k in chain]
    assert builder.points.tobytes() == ref.points.tobytes()


def recording_build(achieved):
    """A build whose partition has mesh achieved(knob), and its log of knobs."""
    knobs = []

    def build(knob):
        knobs.append(knob)
        fp = fan_partition(square_loop())
        fp.mesh = achieved(knob)
        return fp, "info"

    return build, knobs


def test_fill_to_mesh_shrinks_the_knob_then_gives_up():
    def achieved(knob):
        return 2.0 + knob  # never meets mesh 1

    build, knobs = recording_build(achieved)
    with pytest.raises(PartitionError, match="missed the mesh"):
        fill_to_mesh(build, 0.5, 1.0, "fill")
    assert len(knobs) == MESH_ATTEMPTS
    for prev, knob in zip(knobs, knobs[1:]):
        assert knob == prev * (0.9 * 1.0 / achieved(prev))


def test_fill_to_mesh_accepts_the_first_fit():
    build, knobs = recording_build(lambda knob: 1.0)
    fp, info, knob = fill_to_mesh(build, 0.5, 1.0, "fill")
    assert knobs == [0.5]
    assert knob == 0.5
    assert fp.mesh == 1.0 and info == "info"


def test_serialization_roundtrip(tmp_path):
    loop = square_loop()
    data = fan_partition(loop).to_dict()
    np.savez(tmp_path / "fan.npz", **data)
    with np.load(tmp_path / "fan.npz") as saved:
        back = FillingPartition.from_dict(saved)
    validate_partition(loop, back)
    assert back.boundary_anchor.tolist() == [0, 1, 2, 3]
    del data["boundary_anchor"]
    np.savez(tmp_path / "no-anchor.npz", **data)
    with np.load(tmp_path / "no-anchor.npz") as saved:
        with pytest.raises(PartitionError, match="no boundary_anchor"):
            FillingPartition.from_dict(saved)
    # a missing field is named, from a file as from a dict
    data = fan_partition(loop).to_dict()
    buf = io.BytesIO()
    np.savez(buf, **{k: v for k, v in data.items() if k != "points"})
    buf.seek(0)
    with np.load(buf) as saved:
        with pytest.raises(PartitionError, match="partition has no points"):
            FillingPartition.from_dict(saved)
    del data["triangles"]
    with pytest.raises(PartitionError, match="partition has no triangles"):
        FillingPartition.from_dict(data)


def test_empty_partition_mesh_is_zero():
    fp = empty_partition(Loop(np.zeros((3, 2))))
    back = FillingPartition.from_dict(fp.to_dict())
    assert fp.mesh == back.mesh == 0.0
    assert refine_partition(back, 0.5) is back


def reference_mesh(points, triangles):
    """``compute_mesh`` as it was: row norms over one gathered (T, 3, n) array."""
    if len(triangles) == 0:
        return 0.0
    P = points[np.asarray(triangles, dtype=int)]
    e0 = np.linalg.norm(P[:, 0] - P[:, 1], axis=1)
    e1 = np.linalg.norm(P[:, 1] - P[:, 2], axis=1)
    e2 = np.linalg.norm(P[:, 2] - P[:, 0], axis=1)
    return float(np.max(e0 + e1 + e2))


def test_mesh_matches_the_gathered_norms_on_random_complexes():
    rng = np.random.default_rng(41)
    for dim in range(2, 6):
        for scale in np.logspace(-3, 3, 7):
            for _ in range(40):
                pts = rng.standard_normal((int(rng.integers(3, 60)), dim)) * scale
                tris = rng.integers(0, len(pts), size=(int(rng.integers(1, 200)), 3))
                assert compute_mesh(pts, tris) == reference_mesh(pts, tris)


def test_mesh_matches_the_gathered_norms_on_the_hashed_fills(hashed_fills):
    assert len(hashed_fills) == 40
    for name, fp in hashed_fills.items():
        want = reference_mesh(fp.points, fp.triangles)
        assert compute_mesh(fp.points, fp.triangles) == want, name


# -- properties of the array path ------------------------------------------------


@st.composite
def spoke_fans(draw):
    """A fan from a hub over a star-shaped polygon.

    Each spoke carries its n points at fractions ``(k / (n - 1)) ** power``
    of its length: power 1 is the even spacing of cone_fill, other powers
    crowd the points towards the hub or towards the rim, so that one
    spoke's first points can lie far closer to the hub than its
    neighbours'.  Returns (loop, partition, bricks built).
    """
    s = draw(st.integers(8, 14))
    gaps = np.array(draw(st.lists(st.floats(0.8, 1.0), min_size=s, max_size=s)))
    angles = 2 * np.pi * np.cumsum(gaps) / np.sum(gaps)
    radii = np.array(draw(st.lists(st.floats(1.0, 3.0), min_size=s, max_size=s)))
    powers = draw(st.lists(st.floats(0.3, 3.0), min_size=s, max_size=s))
    spacing = draw(st.floats(0.1, 1.0))
    rim = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    builder = DiskBuilder(2)
    bidx = builder.add_chain(rim)
    hub = builder.add_point([0.0, 0.0])
    chains = []
    for i in range(s):
        n = max(2, int(np.ceil(radii[i] / spacing)) + 1)
        fractions = np.linspace(0.0, 1.0, n)[1:-1] ** powers[i]
        interior = builder.add_chain(fractions[:, None] * rim[i])
        chains.append([hub, *interior, bidx[i]])
    built = 0
    for i in range(s):
        a, b = chains[i], chains[(i + 1) % s]
        built += len(a) + len(b) - 3  # the step off the shared hub is degenerate
        builder.add_ladder(a, b)
    return Loop(rim), builder.build(bidx, anchor=range(s)), built


def test_hub_fan_with_uneven_spokes_validates():
    """Spoke 0 has two points near the hub; the others start at 1."""
    angles = np.pi / 3 * np.arange(6)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    builder = DiskBuilder(2)
    hub = builder.add_point([0.0, 0.0])
    chains = []
    for k in range(6):
        dists = [0.1, 0.2, 1.0, 2.0] if k == 0 else [1.0, 2.0]
        chains.append([hub, *builder.add_chain(np.outer(dists, dirs[k]))])
    for k in range(6):
        builder.add_ladder(chains[k], chains[(k + 1) % 6])
    fp = builder.build([c[-1] for c in chains], anchor=range(6))
    mesh, area = validate_partition(Loop(2.0 * dirs), fp)
    assert area == 22  # len(a) + len(b) - 3 per ladder: 5 + 3 + 3 + 3 + 3 + 5


@given(spoke_fans())
def test_random_fans_validate(fan):
    loop, fp, built = fan
    mesh, area = validate_partition(loop, fp)
    assert area == built == len(fp.triangles)
    assert mesh == fp.mesh


@given(spoke_fans(), st.randoms(use_true_random=False))
def test_triangle_order_is_irrelevant(fan, rnd):
    loop, fp, _ = fan
    perm = np.array(rnd.sample(range(fp.area), fp.area))
    shuffled = FillingPartition(fp.points, fp.triangles[perm], fp.boundary, fp.boundary_anchor)
    assert validate_partition(loop, shuffled) == validate_partition(loop, fp)


@given(spoke_fans(), st.integers(0, 10**6), st.booleans())
def test_one_triangle_more_or_less_is_rejected(fan, pick, duplicate):
    loop, fp, _ = fan
    k = pick % fp.area
    if duplicate:
        tris = np.vstack([fp.triangles, fp.triangles[k : k + 1]])
    else:
        tris = np.delete(fp.triangles, k, axis=0)
    bad = FillingPartition(fp.points, tris, fp.boundary, fp.boundary_anchor)
    with pytest.raises(PartitionError):
        validate_partition(loop, bad)


@st.composite
def cone_fills(draw):
    """A cone fill of a star-shaped polygon; returns (loop, partition, None)."""
    s = draw(st.integers(3, 9))
    gaps = np.array(draw(st.lists(st.floats(0.5, 1.0), min_size=s, max_size=s)))
    angles = 2 * np.pi * np.cumsum(gaps) / np.sum(gaps)
    radii = np.array(draw(st.lists(st.floats(1.0, 3.0), min_size=s, max_size=s)))
    loop = Loop(radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1))
    return loop, cone_fill(loop, draw(st.floats(0.5, 2.0))), None


@given(st.one_of(spoke_fans(), cone_fills()), st.integers(1, 2))
def test_refinement_keeps_the_anchored_boundary(disk, levels):
    loop, fp, _ = disk
    fine = refine_partition(fp, fp.mesh / 2**levels)
    validate_partition(loop, fine)
    assert fine.boundary_anchor.tolist() == [p * 2**levels for p in fp.boundary_anchor]
    assert fine.area == 4**levels * fp.area


# -- the greedy ladder against its numpy reference --------------------------------


def reference_ladder(self, chain_a, chain_b):
    """The greedy ladder with every step decided on numpy rows (``u @ u``)."""
    A, B = list(chain_a), list(chain_b)
    pa, pb = list(self._pts[A]), list(self._pts[B])
    shared = A[0] == B[0]
    tris = []
    i = j = 0
    while i < len(A) - 1 or j < len(B) - 1:
        adv_a = i < len(A) - 1
        adv_b = j < len(B) - 1
        if adv_a and adv_b and shared and (i == 0) != (j == 0):
            adv_a = i == 0
        elif adv_a and adv_b:
            da = pa[i + 1] - pb[j]
            db = pb[j + 1] - pa[i]
            adv_a = float(da @ da) <= float(db @ db)
        if adv_a:
            tris.append((A[i], A[i + 1], B[j]))
            i += 1
        else:
            tris.append((A[i], B[j], B[j + 1]))
            j += 1
    self.add_triangles(tris)


@st.composite
def ladder_chains(draw, dim=None):
    """Two chains (point arrays) and whether they share their first point.

    "random" chains are Gaussian; "lattice" chains are two evenly spaced
    parallel rows, whose two diagonals tie exactly whenever the greedy
    stands at equal positions; "rotated" lattices are the same rows
    turned by a random rotation, so those ties come out only up to
    rounding, where summation order decides.  The dimension is 2 or 3
    unless given.
    """
    if dim is None:
        dim = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["random", "lattice", "rotated"]))
    na, nb = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    shared = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "random":
        a, b = rng.normal(size=(na, dim)), rng.normal(size=(nb, dim))
    else:
        h, w = rng.uniform(0.05, 2.0, size=2)
        a = np.zeros((na, dim))
        b = np.zeros((nb, dim))
        a[:, 0] = h * np.arange(na)
        b[:, 0] = h * np.arange(nb)
        b[:, 1] = w
        if kind == "rotated":
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            shift = 3.0 * rng.normal(size=dim)
            a, b = a @ q + shift, b @ q + shift
    return a, b, shared


def ladder_triangles(ladder, a, b, shared):
    builder = DiskBuilder(a.shape[1])
    ia = builder.add_chain(a)
    ib = builder.add_chain(b)
    if shared:
        ib[0] = ia[0]
    ladder(builder, ia, ib)
    return builder.triangles


@given(ladder_chains())
def test_ladder_matches_numpy_reference(chains):
    a, b, shared = chains
    got = ladder_triangles(DiskBuilder.add_ladder, a, b, shared)
    want = ladder_triangles(reference_ladder, a, b, shared)
    assert np.array_equal(got, want)


@st.composite
def ladder_batches(draw):
    """A builder and 1-40 chain pairs of mixed lengths placed in it.

    Most pairs come from ``ladder_chains`` in one dimension, so they
    finish in different rounds; one-point chains beside long ones,
    shared starts and shared ends all occur.  A pair may also be two
    one-point chains, which take no step, a one-point chain beside a
    chain of up to 24 points, or new random chains with the lengths of
    the pair before it, so that step counts tie and such ladders share
    their prefix rounds to the last one.  Returns the builder and the ``add_ladders``
    arguments: the a-chains stacked, their lengths, and the b-chains
    likewise.
    """
    dim = draw(st.sampled_from([2, 3]))
    kinds = st.sampled_from(["chains", "chains", "points", "point beside chain", "tie"])
    specs = draw(st.lists(st.tuples(kinds, ladder_chains(dim), st.booleans()), min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    builder = DiskBuilder(dim)
    pairs = []
    for kind, (a, b, shared), shared_end in specs:
        if kind == "points":
            a, b = rng.normal(size=(1, dim)), rng.normal(size=(1, dim))
        elif kind == "point beside chain":
            a, b = (a[:1], b) if rng.random() < 0.5 else (a, b[:1])
        elif kind == "tie" and pairs:
            a, b = rng.normal(size=(len(pairs[-1][0]), dim)), rng.normal(size=(len(pairs[-1][1]), dim))
        ia, ib = builder.add_chain(a), builder.add_chain(b)
        if shared:
            ib[0] = ia[0]
        if shared_end:
            ib[-1] = ia[-1]
        pairs.append((ia, ib))
    a, b = zip(*pairs)
    return builder, (np.concatenate(a), list(map(len, a)), np.concatenate(b), list(map(len, b)))


def reference_ladders(self, a, len_a, b, len_b):
    chains_a = np.split(np.asarray(a), np.cumsum(len_a)[:-1])
    for chain_a, chain_b in zip(chains_a, np.split(np.asarray(b), np.cumsum(len_b)[:-1])):
        reference_ladder(self, chain_a, chain_b)


@given(ladder_batches())
@settings(max_examples=100)
def test_add_ladders_matches_per_pair_reference(batch):
    builder, stacks = batch
    ref = DiskBuilder(builder.dim)
    ref.add_chain(builder.points)
    reference_ladders(ref, *stacks)
    builder.add_ladders(*stacks)
    assert np.array_equal(builder.triangles, ref.triangles)


def test_add_ladders_of_no_pairs_lays_no_brick():
    for n in (0, 3):
        builder = DiskBuilder(2)
        builder.add_chain(np.zeros((n, 2)))
        builder.add_ladders([], [], [], [])
        assert builder.triangles.shape == (0, 3)


def test_flat_fill_matches_numpy_reference_ladder(monkeypatch):
    """A flat fill, whose ladders run down radial chains and along the rim arcs."""
    host, loop = sc.GENERATORS["trace-a2"](8, 1.0, 0)
    fast = fill_flat_loop(host, loop, mesh=1.0)[0]
    monkeypatch.setattr(DiskBuilder, "add_ladders", reference_ladders)
    ref = fill_flat_loop(host, loop, mesh=1.0)[0]
    assert fast.points.tobytes() == ref.points.tobytes()
    assert np.array_equal(fast.triangles, ref.triangles)


def test_tube_fill_matches_numpy_reference_ladder(monkeypatch):
    """A 3-D fill with near-tied diagonals, laid in lock step and pair by pair."""
    host, loop = sc.GENERATORS["tube-point"](8, 1.0, 0)
    fast = tb.fill_tube_loop(host, 1.0, loop, 1.0)[0]
    monkeypatch.setattr(DiskBuilder, "add_ladders", reference_ladders)
    ref = tb.fill_tube_loop(host, 1.0, loop, 1.0)[0]
    assert fast.area == 2126
    assert fast.points.tobytes() == ref.points.tobytes()
    assert np.array_equal(fast.triangles, ref.triangles)


# -- the one boundary check against the validator it replaced ------------------


def reference_validate(loop, fp):
    """``validate_partition`` as it was with a second boundary path.

    It checked the rim's vertex degrees and its cycle count before the
    declared-cycle equality, and the boundary length before the anchors.
    Its search over rotations and reversals of the loop ran only on
    partitions without anchors, which no longer exist, so it is left out.
    """
    tris = fp.triangles
    if len(tris) == 0:
        if not loop.is_constant:
            raise PartitionError("boundary mismatch: empty partition for a nonconstant loop")
        return 0.0, 0
    n = len(fp.points)
    if np.any(tris < 0) or np.any(tris >= n):
        raise PartitionError("triangle index out of range")
    a, b, c = tris.T
    if np.any((a == b) | (b == c) | (c == a)):
        raise PartitionError("degenerate triangle (repeated vertex)")
    keys, counts = np.unique(
        edge_keys(np.concatenate([a, b, c]), np.concatenate([b, c, a]), n),
        return_counts=True,
    )
    if np.any(counts > 2):
        raise PartitionError("edge manifoldness violated: an edge lies in >2 bricks")
    used = np.unique(tris)
    euler = len(used) - len(keys) + len(tris)
    if euler != 1:
        raise PartitionError(f"euler check failed: V-E+F = {euler} != 1")
    rim = keys[counts == 1]
    degree = np.bincount(np.concatenate([rim // n, rim % n]), minlength=n)
    if np.any((degree != 0) & (degree != 2)):
        raise PartitionError("boundary is not a simple cycle")
    if len(np.unique(_component_labels(rim, n)[degree == 2])) > 1:
        raise PartitionError("boundary has more than one cycle")
    boundary = np.asarray(fp.boundary, dtype=int)
    if len(np.unique(boundary)) != len(boundary):
        raise PartitionError("boundary is not a single cycle")
    declared = np.sort(edge_keys(boundary, np.roll(boundary, -1), n))
    if not np.array_equal(declared, rim):
        raise PartitionError("boundary cycle disagrees with the declared boundary")
    if len(np.unique(_component_labels(keys, n)[used])) != 1:
        raise PartitionError("complex is disconnected")
    got = fp.points[boundary]
    if len(got) < len(loop.vertices):
        raise PartitionError("boundary mismatch: too few boundary vertices")
    reference_anchored_boundary(loop, got, fp.boundary_anchor)
    return compute_mesh(fp.points, tris), int(len(tris))


def reference_anchored_boundary(loop, got, boundary_anchor):
    """The anchored boundary check as it was, without the checks of the anchor itself."""
    anchors = np.asarray(boundary_anchor, dtype=int)
    want = loop.vertices
    s = len(want)
    if len(anchors) != s:
        raise PartitionError("anchor count differs from loop vertex count")
    if np.any(np.linalg.norm(got[anchors] - want, axis=1) > SURFACE_TOL):
        raise PartitionError("an anchored boundary vertex is off its loop vertex")
    nb = len(got)
    run = (np.roll(anchors, -1) - anchors) % nb
    seg = np.repeat(np.arange(s), run)
    start = np.cumsum(run) - run
    p = got[(anchors[seg] + np.arange(len(seg)) - start[seg] + 1) % nb]
    w = want[seg]
    d = want[(seg + 1) % s] - w
    L2 = np.sum(d * d, axis=1)
    flat = L2 < SQUARED_LENGTH_FLOOR
    t = np.sum((p - w) * d, axis=1) / np.where(flat, 1.0, L2)
    q = w + np.clip(t, 0.0, 1.0)[:, None] * d
    t_prev = np.minimum(np.concatenate([[0.0], t]), 1.0)[:-1]
    t_prev[start[run > 0]] = 0.0
    off_flat = flat & (np.linalg.norm(p - w, axis=1) > SURFACE_TOL)
    off_loop = ~flat & (np.linalg.norm(p - q, axis=1) > SURFACE_TOL)
    backward = ~flat & (t < t_prev - DECISION_TOL)
    if np.any(off_flat | off_loop | backward):
        raise PartitionError("boundary does not traverse the loop")


def torus_triangles(first, m=3):
    """An m x m grid torus (V - E + F = 0) on the vertices first, first + 1, ..."""
    i, j = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    i, j = i.ravel(), j.ravel()

    def v(di, dj):
        return first + ((i + di) % m) * m + (j + dj) % m

    return np.vstack([
        np.stack([v(0, 0), v(1, 0), v(1, 1)], 1),
        np.stack([v(0, 0), v(1, 1), v(0, 1)], 1),
    ])


def corrupt(kind, fp, rng):
    """A copy of fp with one corruption of the named kind.

    "flip" turns a brick over one of its edges: over an inner edge the two
    bricks on it take the other diagonal of their quadrilateral, which
    keeps a disk; over a rim edge the brick folds out onto a new apex,
    which does not.  "rewire" moves one corner of a brick to another
    vertex; "torus" joins a disjoint grid torus, which keeps V - E + F
    and the rim and breaks only connectivity.
    """
    pts, tris = fp.points, fp.triangles.copy()
    boundary, n = list(fp.boundary), len(fp.points)
    k = int(rng.integers(len(tris)))
    far = pts.max(axis=0) + 10.0
    if kind == "drop":
        tris = np.delete(tris, k, axis=0)
    elif kind == "duplicate":
        tris = np.vstack([tris, tris[k : k + 1]])
    elif kind == "flip":
        i = int(rng.integers(3))
        u, v, x = tris[k, i], tris[k, (i + 1) % 3], tris[k, (i + 2) % 3]
        pair = np.flatnonzero(np.isin(tris, [u, v]).sum(axis=1) == 2)
        if len(pair) == 2:
            y = int(np.setdiff1d(tris[pair].ravel(), [u, v, x])[0])
            tris[pair] = [[u, x, y], [v, y, x]]
        else:
            pts = np.vstack([pts, pts[u] + pts[v] - pts[x]])
            tris[k] = [u, v, n]
    elif kind == "rewire":
        slot = int(rng.integers(3))
        tris[k, slot] = (tris[k, slot] + int(rng.integers(1, n))) % n
    elif kind == "swap boundary":
        i, j = rng.choice(len(boundary), 2, replace=False)
        boundary[i], boundary[j] = boundary[j], boundary[i]
    elif kind == "drop boundary":
        del boundary[int(rng.integers(len(boundary)))]
    elif kind == "disjoint brick":
        pts = np.vstack([pts, far + rng.normal(size=(3, pts.shape[1]))])
        tris = np.vstack([tris, [[n, n + 1, n + 2]]])
    elif kind == "torus":
        pts = np.vstack([pts, far + rng.normal(size=(9, pts.shape[1]))])
        tris = np.vstack([tris, torus_triangles(n)])
    return FillingPartition(pts, tris, boundary, list(fp.boundary_anchor))


# the outcomes each kind has on these fills: a dropped, duplicated or
# rewired brick, an edited boundary and an extra component always break
# the disk
CORRUPTIONS = {
    "none": {"accept"},
    "flip": {"accept", "reject"},
    "drop": {"reject"},
    "duplicate": {"reject"},
    "rewire": {"reject"},
    "swap boundary": {"reject"},
    "drop boundary": {"reject"},
    "disjoint brick": {"reject"},
    "torus": {"reject"},
}


def outcome(validate, loop, fp):
    try:
        return validate(loop, fp)
    except PartitionError:
        return "reject"


def corruption_bases():
    """Cone fills of random star-shaped polygons and tube chart fans, all small."""
    rng = np.random.default_rng(0)
    for s in (3, 4, 5, 7, 9):
        angles = 2 * np.pi * np.cumsum(rng.uniform(0.5, 1.0, s))
        angles *= 2 * np.pi / angles[-1]
        radii = rng.uniform(1.0, 3.0, s)[:, None]
        loop = Loop(radii * np.stack([np.cos(angles), np.sin(angles)], 1))
        yield loop, cone_fill(loop, rng.uniform(0.8, 2.0))
    for name, seed in (("tube-point", 0), ("tube-segment", 1), ("tube-square", 2)):
        host, loop = sc.GENERATORS[name](8, 1.0, seed)
        yield loop, tb.fill_tube_loop(host, sc.TUBE_RADIUS, loop, 3.0)[0]


def test_one_boundary_check_agrees_with_the_old_validator():
    rng = np.random.default_rng(1)
    seen = {kind: set() for kind in CORRUPTIONS}
    cases = 0
    for loop, fp in corruption_bases():
        for kind in CORRUPTIONS:
            for _ in range(30):
                bad = corrupt(kind, fp, rng)
                got = outcome(validate_partition, loop, bad)
                assert got == outcome(reference_validate, loop, bad), kind
                seen[kind].add("reject" if got == "reject" else "accept")
                cases += 1
    assert cases >= 2000
    assert seen == CORRUPTIONS
