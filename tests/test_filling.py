import numpy as np
import pytest

from horofill import coxeter as cx
from horofill import filling as fl
from horofill import meshes as ms
from horofill import trace as tr
from horofill import tube as tb
from horofill.partitions import Loop, PartitionError, validate_partition


@pytest.fixture(scope="module")
def a2():
    return cx.build_root_system("A", rank=2)


@pytest.fixture(scope="module")
def a3():
    return cx.build_root_system("A", rank=3)


@pytest.fixture(scope="module")
def tri_trace(a2):
    wall = cx.project_to_chamber(a2, a2.coweights[0])
    return tr.symmetric_trace(a2, wall).shifted(-1.0)


def circle_loop(radius, n, center=(0.0, 0.0)):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return Loop(
        np.stack(
            [center[0] + radius * np.cos(t), center[1] + radius * np.sin(t)], axis=1
        )
    )


# -- cone fill -----------------------------------------------------------------


def test_cone_fill_square(frozen):
    loop = Loop(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
    fp = fl.cone_fill(loop, 1.0)
    mesh, area = validate_partition(loop, fp)
    assert mesh <= 1.0
    assert area <= frozen["cone_area_constant"] * (loop.length / 1.0) ** 2
    assert fp.census.wild_bricks == 0


def test_cone_fill_circle(frozen):
    lam = np.pi / 2
    ell = 2 * np.pi
    loop = circle_loop(1.0, max(8, int(np.ceil(3 * ell / lam))))
    fp = fl.cone_fill(loop, lam)
    mesh, area = validate_partition(loop, fp)
    assert mesh <= lam
    assert area <= frozen["cone_area_constant"] * (loop.length / lam) ** 2


def test_cone_fill_constant():
    c = Loop(np.tile([[2.0, 3.0]], (3, 1)))
    fp = fl.cone_fill(c, 1.0)
    assert fp.area == 0


def test_cone_fill_basepoint():
    loop = Loop(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
    fp0 = fl.cone_fill(loop, 1.0, basepoint_index=0)
    fp2 = fl.cone_fill(loop, 1.0, basepoint_index=2)
    validate_partition(loop, fp2)
    assert fp0.area != 0 and fp2.area != 0


def test_convex_region_clear(tri_trace):
    far = circle_loop(1.0, 32, center=(8.0, 0.0))
    assert fl.convex_region_clear(tri_trace, far)
    around = circle_loop(4.0, 64)
    assert not fl.convex_region_clear(tri_trace, around)


# -- cylinder descent ------------------------------------------------------------


def test_cylinder_descend_contraction(a3):
    theta = cx.project_to_chamber(a3, a3.coweights.sum(axis=0))
    res = cx.find_good_slope(a3, theta, 0.05)
    sq = Loop(np.array([[0.0, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0]]))
    inner, strip = fl.cylinder_descend(sq, res.slope, a3, theta, 0.05, mesh=1.0)
    assert inner.length <= sq.length + 1e-6
    P = strip.points[strip.outer]
    N = strip.points[strip.inner]
    rng = np.random.default_rng(0)
    for _ in range(200):
        i, j = rng.integers(0, len(P), size=2)
        assert np.linalg.norm(N[i] - N[j]) <= np.linalg.norm(P[i] - P[j]) + 1e-9


def test_cylinder_descend_bad_slope_rejected(a3, a2):
    theta = cx.project_to_chamber(a3, a3.coweights.sum(axis=0))
    sq = Loop(np.array([[0.0, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0]]))
    with pytest.raises(fl.FillingError, match="good-slope"):
        fl.cylinder_descend(sq, theta, a3, theta, 0.05)


def test_cylinder_descend_already_at_height(a3):
    theta = cx.project_to_chamber(a3, a3.coweights.sum(axis=0))
    res = cx.find_good_slope(a3, theta, 0.05)
    u = res.slope.direction
    e1 = np.array([1.0, 0, 0]) - u[0] * u
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    sq = Loop(np.array([a * e1 + b * e2 for a, b in [(0, 0), (2, 0), (2, 2), (0, 2)]]))
    inner, strip = fl.cylinder_descend(sq, res.slope, a3, theta, 0.05, height=0.0)
    assert strip.area == 0
    assert np.allclose(inner.vertices[0], sq.vertices[0], atol=1e-9)


def test_close_cylinder_disk(a3):
    theta = cx.project_to_chamber(a3, a3.coweights.sum(axis=0))
    res = cx.find_good_slope(a3, theta, 0.05)
    sq = Loop(np.array([[0.0, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0]]))
    inner, strip = fl.cylinder_descend(sq, res.slope, a3, theta, 0.05, mesh=2.0)
    fp = fl.close_cylinder(strip, 2.0)
    mesh, area = validate_partition(sq, fp)
    assert mesh <= 2.0 + 1e-9


# -- flat loop pipeline ------------------------------------------------------------


def test_fill_flat_loop_cone_route(tri_trace):
    far = circle_loop(1.0, 48, center=(9.0, 0.0))
    fp, census, info = fl.fill_flat_loop(tri_trace, far, mesh=1.0)
    assert info["route"] == "cone"
    assert census.wild_bricks == 0
    validate_partition(far, fp)


def test_fill_flat_loop_rejects_inside(tri_trace):
    bad = circle_loop(0.2, 16)  # deep inside the horoball
    with pytest.raises(fl.FillingError, match="open horoball"):
        fl.fill_flat_loop(tri_trace, bad, mesh=1.0)


def test_fill_flat_loop_sandwich_route(a2):
    from horofill import scenarios as sc

    trace, loop = sc.trace_a2_serpentine(12, 1.0, seed=4)
    fp, census, info = fl.fill_flat_loop(trace, loop, mesh=1.0)
    assert info["route"] == "sandwich"
    mesh, area = validate_partition(loop, fp)
    assert mesh <= 1.0 + 1e-12
    assert census.flat_bricks + census.wild_bricks == area
    assert float(np.min(trace.values(fp.points))) >= -1e-6


def test_fill_flat_loop_census_tags_facet_bricks(a2):
    from horofill import scenarios as sc

    trace, loop = sc.trace_a2_serpentine(10, 1.0, seed=1)
    fp, census, info = fl.fill_flat_loop(trace, loop, mesh=1.0)
    assert census.flat_bricks > 0.8 * fp.area  # level-set bricks dominate


def test_fill_flat_loop_similarity_equivariance(a2):
    """Scaling trace, loop and mesh together preserves the brick count."""
    from horofill import scenarios as sc

    trace, loop = sc.trace_a2_serpentine(10, 1.0, seed=2)
    fp1, _, _ = fl.fill_flat_loop(trace, loop, mesh=1.0)
    lam = 2.0
    fp2, _, _ = fl.fill_flat_loop(
        trace.scaled(lam), Loop(lam * loop.vertices), mesh=lam
    )
    assert fp1.area == fp2.area


def test_fill_flat_loop_unbounded_min_rejected(a2):
    e1 = cx.project_to_chamber(a2, a2.coweights[0])
    opp = cx.opposition_image(a2, e1)
    orbit = cx.weyl_orbit(a2, opp.direction)
    grads = np.array([orbit[0], -orbit[0]])
    # build the slab via a product system so the orbit contains -g
    pp = cx.build_root_system("product", factors=[1, 1])
    th = cx.project_to_chamber(pp, np.array([1.0, 0.0]))
    slab = tr.BusemannTrace(
        pp, th, np.array([[1.0, 0], [-1.0, 0]]), np.array([-1.0, -1.0])
    )
    # wraps the slab, so the hull is not clear and the min set matters
    loop = Loop(np.array([[3.0, -3], [3, 3], [-3, 3], [-3, -3]]))
    with pytest.raises(fl.FillingError, match="unbounded|out of scope"):
        fl.fill_flat_loop(slab, loop, mesh=1.0)


# -- refinement ----------------------------------------------------------------------


def test_refine_partition_counts():
    loop = Loop(np.array([[0.0, 0], [1, 0], [0, 1]]))
    fp = fl.cone_fill(loop, 4.0)
    base_mesh = fp.mesh
    fp2 = fl.refine_partition(fp, base_mesh / 2)
    assert fp2.area == 4 * fp.area
    validate_partition(loop, fp2)
    fp3 = fl.refine_partition(fp, base_mesh / 4)
    assert fp3.area == 16 * fp.area
    validate_partition(loop, fp3)
    assert fp3.mesh <= base_mesh / 4 + 1e-12


def test_refine_partition_wild_rejected():
    loop = Loop(np.array([[0.0, 0], [1, 0], [0, 1]]))
    fp = fl.cone_fill(loop, 4.0)
    fp.census = fl.BrickCensus(flat_bricks=fp.area - 1, wild_bricks=1)
    with pytest.raises(fl.FillingError, match="1 wild brick"):
        fl.refine_partition(fp, 0.5)
    out = fl.refine_partition(fp, fp.mesh / 2, allow_wild=True)
    assert out.area == 4 * fp.area


def test_refine_noop_when_fine_enough():
    loop = Loop(np.array([[0.0, 0], [1, 0], [0, 1]]))
    fp = fl.cone_fill(loop, 1.0)
    assert fl.refine_partition(fp, 10.0) is fp


# -- exponent fitting -----------------------------------------------------------------


def test_dehn_exponent_exact_quadratic():
    for lengths in ([8, 16, 32, 64, 128], [4, 8, 16, 40]):
        areas = {l: [3.0 * l**2] for l in lengths}
        fit = fl.dehn_exponent(lengths, areas)
        assert abs(fit.slope - 2.0) < 1e-9
        assert not fit.degenerate


def test_dehn_exponent_uses_min_per_length():
    lengths = [8, 16, 32, 64, 128]
    areas = {l: [3 * l**2, 9 * l**2, 5 * l**2] for l in lengths}
    fit = fl.dehn_exponent(lengths, areas)
    assert abs(fit.slope - 2.0) < 1e-9


def test_dehn_exponent_degenerate_flag():
    lengths = [8, 16, 32, 64, 128]
    fit = fl.dehn_exponent(lengths, {l: [7.0] for l in lengths})
    assert fit.degenerate


def test_dehn_exponent_input_validation():
    with pytest.raises(fl.FillingError, match="4 lengths"):
        fl.dehn_exponent([8, 16, 32], {8: [1], 16: [1], 32: [1]})
    with pytest.raises(fl.FillingError, match="decade"):
        fl.dehn_exponent([8, 10, 12, 14], {l: [1] for l in (8, 10, 12, 14)})


# -- the oracle -----------------------------------------------------------------------


def test_oracle_grid(frozen):
    v, t, b = ms.grid_square(2)
    assert fl.brute_force_area(v, t, b) == frozen["oracle"]["grid2_boundary"]
    v3, t3, b3 = ms.grid_square(3)
    assert fl.brute_force_area(v3, t3, b3) == 18  # all cells of the 3x3 grid


def test_oracle_single_triangle():
    v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    t = np.array([[0, 1, 2]])
    assert fl.brute_force_area(v, t, [0, 1, 2]) == 1


def test_oracle_sphere_halves(frozen):
    v, t = ms.octasphere(3)
    eq = ms.equator_cycle(v)
    assert len(t) == frozen["oracle"]["octasphere_l3_faces"]
    assert fl.brute_force_area(v, t, eq) == frozen["oracle"]["octasphere_l3_equator"]


def test_oracle_cylinder_waist(frozen):
    v, t, rings = ms.capped_cylinder(n_around=12, n_along=4, n_cap=3)
    waist = rings[len(rings) // 2]
    assert len(t) == frozen["oracle"]["capped_cylinder_faces"]
    assert (
        fl.brute_force_area(v, t, waist) == frozen["oracle"]["capped_cylinder_waist"]
    )


def test_oracle_rejects_too_large():
    v, t = ms.octasphere(4)  # 2048 faces
    with pytest.raises(fl.FillingError, match="limited"):
        fl.brute_force_area(v, t, ms.equator_cycle(v))


def test_oracle_rejects_non_mesh_edge():
    v, t, b = ms.grid_square(2)
    with pytest.raises(fl.FillingError, match="not a mesh edge"):
        fl.brute_force_area(v, t, [0, 8])


def test_oracle_mesh_io_roundtrip(tmp_path):
    v, t, b = ms.grid_square(2)
    mp = tmp_path / "mesh.json"
    lp = tmp_path / "loop.json"
    ms.save_mesh(mp, v, t)
    ms.save_cycle(lp, b)
    v2, t2 = ms.load_mesh(mp)
    assert fl.brute_force_area(v2, t2, ms.load_cycle(lp)) == 8
