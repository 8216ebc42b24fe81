import itertools

import numpy as np
import pytest

from horofill import coxeter as cx
from horofill.geometry import DECISION_TOL, angle_between, unit


@pytest.fixture(scope="module")
def a2():
    return cx.build_root_system("A", rank=2)


@pytest.fixture(scope="module")
def a3():
    return cx.build_root_system("A", rank=3)


@pytest.fixture(scope="module")
def a1a1():
    return cx.build_root_system("product", factors=[1, 1])


def test_group_orders(a2, a3, a1a1):
    assert a2.order == 6
    assert a3.order == 24
    assert a1a1.order == 4
    assert cx.build_root_system("A", rank=4).order == 120
    assert cx.build_root_system("product", factors=[2, 1]).order == 12


def test_bad_families_rejected():
    with pytest.raises(cx.UnsupportedRootSystem):
        cx.build_root_system("A", rank=1)
    with pytest.raises(cx.UnsupportedRootSystem):
        cx.build_root_system("E", rank=8)
    with pytest.raises(cx.UnsupportedRootSystem):
        cx.build_root_system("product", factors=[0, 1])
    with pytest.raises(cx.UnsupportedRootSystem):
        cx.build_root_system("A", rank=7)


def test_a2_matches_hand_enumerated_group(a2):
    """The six elements must be exactly {e, s0, s1, s0s1, s1s0, s0s1s0}."""
    s0 = np.eye(2) - 2 * np.outer(*(2 * [unit(a2.simple_roots[0])]))
    s1 = np.eye(2) - 2 * np.outer(*(2 * [unit(a2.simple_roots[1])]))
    hand = [np.eye(2), s0, s1, s0 @ s1, s1 @ s0, s0 @ s1 @ s0]
    assert len(a2.weyl_elements) == 6
    for w in a2.weyl_elements:
        assert any(np.allclose(w, h, atol=1e-12) for h in hand)
    for h in hand:
        assert any(np.allclose(w, h, atol=1e-12) for w in a2.weyl_elements)


def test_orbit_sizes(a2):
    bary = cx.project_to_chamber(a2, a2.coweights.sum(axis=0))
    assert len(cx.weyl_orbit(a2, bary.direction)) == 6
    wall = cx.project_to_chamber(a2, a2.coweights[0])
    assert len(cx.weyl_orbit(a2, wall.direction)) == 3


def test_orbit_size_divides_group_order(a3):
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = unit(rng.normal(size=3))
        k = len(cx.weyl_orbit(a3, v))
        assert a3.order % k == 0


def test_exactly_one_orbit_member_in_chamber(a3):
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = unit(rng.normal(size=3))
        orbit = cx.weyl_orbit(a3, v)
        inside = [p for p in orbit if a3.in_chamber(p)]
        assert len(inside) == 1


def test_projection_is_orbit_invariant(a2, a3):
    rng = np.random.default_rng(3)
    for rs in (a2, a3):
        v = unit(rng.normal(size=rs.rank))
        images = [cx.project_to_chamber(rs, w @ v).direction for w in rs.weyl_elements]
        for im in images[1:]:
            assert np.allclose(im, images[0], atol=1e-9)


def test_projection_identity_on_chamber(a3):
    v = unit(a3.coweights.sum(axis=0))
    assert np.allclose(cx.project_to_chamber(a3, v).direction, v, atol=1e-12)


def test_opposition_involution_is_involutive(a3):
    rng = np.random.default_rng(5)
    theta = cx.project_to_chamber(a3, unit(rng.normal(size=3)))
    opp = cx.opposition_image(a3, theta)
    back = cx.opposition_image(a3, opp)
    assert np.allclose(back.direction, theta.direction, atol=1e-9)


def test_ort_distance_product_cases(a1a1):
    e1 = cx.project_to_chamber(a1a1, np.array([1.0, 0.0]))
    e2 = cx.project_to_chamber(a1a1, np.array([0.0, 1.0]))
    assert cx.ort_distance(a1a1, e1, e2) < 1e-12
    assert abs(cx.ort_distance(a1a1, e1, e1) - np.pi / 2) < 1e-12


def test_ort_distance_a2_brute_force(a2):
    theta = cx.project_to_chamber(a2, a2.coweights.sum(axis=0))
    expected = min(
        abs(np.pi / 2 - angle_between(theta.direction, w @ theta.direction))
        for w in a2.weyl_elements
    )
    assert abs(cx.ort_distance(a2, theta, theta) - expected) < 1e-12


def test_ort_distance_symmetry_and_opposition_invariance(a3):
    rng = np.random.default_rng(13)
    for _ in range(5):
        th = cx.project_to_chamber(a3, unit(rng.normal(size=3)))
        be = cx.project_to_chamber(a3, unit(rng.normal(size=3)))
        d1 = cx.ort_distance(a3, th, be)
        assert abs(d1 - cx.ort_distance(a3, be, th)) < 1e-12
        assert abs(d1 - cx.ort_distance(a3, cx.opposition_image(a3, th), be)) < 1e-9
        assert abs(d1 - cx.ort_distance(a3, th, cx.opposition_image(a3, be))) < 1e-9


def test_delta_zero_a2_values(a2):
    bary = cx.project_to_chamber(a2, a2.coweights.sum(axis=0))
    prof = cx.delta_zero(a2, bary)
    assert not prof.degenerate
    assert abs(prof.delta0 - np.pi / 3) < 1e-8
    assert abs(prof.delta0_prime - np.pi / 3) < 1e-8
    wall = cx.project_to_chamber(a2, a2.coweights[0])
    prof2 = cx.delta_zero(a2, wall)
    assert abs(prof2.delta0 - np.pi / 6) < 1e-8


def test_delta_zero_gap_is_empty(a2, a3):
    """No wall distance may fall strictly inside the reported gaps."""
    for rs in (a2, a3):
        theta = cx.project_to_chamber(rs, unit(rs.coweights.sum(axis=0)))
        prof = cx.delta_zero(rs, theta)
        for d in prof.distances:
            assert not (np.pi / 2 - prof.delta0 + 1e-9 < d < np.pi / 2 - 1e-9)
            assert not (np.pi / 2 + 1e-9 < d < np.pi / 2 + prof.delta0_prime - 1e-9)


def test_delta_zero_degenerate_factor_parallel(a1a1):
    e1 = cx.project_to_chamber(a1a1, np.array([1.0, 0.0]))
    prof = cx.delta_zero(a1a1, e1)
    assert prof.degenerate
    for d in prof.distances:
        assert min(abs(d - x) for x in (0.0, np.pi / 2, np.pi)) < 1e-9


def test_delta_zero_a3_positive(a3):
    theta = cx.project_to_chamber(a3, unit(a3.coweights.sum(axis=0)))
    prof = cx.delta_zero(a3, theta)
    assert prof.delta0 > 0 and prof.delta0_prime > 0


def test_find_good_slope_a3(a3):
    theta = cx.project_to_chamber(a3, unit(a3.coweights.sum(axis=0)))
    res = cx.find_good_slope(a3, theta, 0.05)
    assert res.found
    assert cx.ort_distance(a3, theta, res.slope) > 0.05
    assert cx.wall_margin(a3, res.slope) > 0.05


def test_find_good_slope_impossible(a2):
    theta = cx.project_to_chamber(a2, a2.coweights.sum(axis=0))
    res = cx.find_good_slope(a2, theta, np.pi)
    assert not res.found
    assert res.resolution > 0


def test_find_good_slope_a2(a2):
    theta = cx.project_to_chamber(a2, a2.coweights.sum(axis=0))
    res = cx.find_good_slope(a2, theta, 0.01)
    assert res.found


def test_descriptor_roundtrip(a3, a1a1):
    for rs in (a3, a1a1):
        rs2 = cx.root_system_from_descriptor(rs.to_descriptor())
        assert rs2.order == rs.order
        assert np.allclose(rs2.simple_roots, rs.simple_roots)


def spherical_distance_to_cone(u, generators):
    """Spherical distance from unit u to (cone of generators) cap sphere.

    The reference for the closed forms and the one projection: the
    largest cosine over the extreme rays and over every face projection
    (one lstsq per generator subset) that lands inside its face.
    """
    u = unit(u)
    gens = [unit(g) for g in generators]
    best_cos = -1.0
    for g in gens:
        best_cos = max(best_cos, float(np.dot(u, g)))
    m = len(gens)
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            G = np.array([gens[i] for i in subset]).T
            coef, *_ = np.linalg.lstsq(G, u, rcond=None)
            if np.any(coef < -DECISION_TOL):
                continue
            p = G @ coef
            n = np.linalg.norm(p)
            if n > DECISION_TOL:
                best_cos = max(best_cos, float(np.dot(u, p / n)))
    return float(np.arccos(np.clip(best_cos, -1.0, 1.0)))


def test_spherical_distance_against_sampling():
    """Cone distances agree with dense sampling of the spherical section."""
    rng = np.random.default_rng(23)
    gens = [unit(v) for v in rng.normal(size=(3, 3))]
    for _ in range(20):
        u = unit(rng.normal(size=3))
        d = spherical_distance_to_cone(u, gens)
        best = np.pi
        for w in rng.dirichlet(np.ones(3), size=4000):
            p = unit(w @ np.array(gens))
            best = min(best, angle_between(u, p))
        assert d <= best + 1e-9
        assert d >= best - 0.05  # sampling resolution


def test_rank_bound_and_messages():
    assert cx.build_root_system("A", rank=cx.MAX_RANK).order == 720
    for kwargs in ({"family": "A", "rank": 6}, {"family": "product", "factors": [3, 3]}):
        with pytest.raises(cx.UnsupportedRootSystem, match=r"rank 6 beyond .* \(rank <= 5\)"):
            cx.build_root_system(**kwargs)


# -- closed forms against the loops they replaced ----------------------------


def _wall_margin_loop(rs, beta):
    """Least cone distance from beta to the chamber's facet cones."""
    r = rs.rank
    return min(
        spherical_distance_to_cone(beta.direction, [rs.coweights[j] for j in range(r) if j != i])
        for i in range(r)
    )


def _wall_distances_loop(rs, theta):
    """D(theta) from one cone distance per orbit point and proper chamber face."""
    r = rs.rank
    raw = sorted(
        spherical_distance_to_cone(p, [rs.coweights[j] for j in range(r) if not (mask >> j) & 1])
        for p in cx.weyl_orbit(rs, theta.direction)
        for mask in range(1, 2**r - 1)
    )
    dists = []
    for d in raw:
        if not dists or d - dists[-1] > DECISION_TOL:
            dists.append(d)
    return dists


def _ort_distance_loop(rs, theta, beta):
    """min over the group of |pi/2 - angle(u_beta, w u_theta)|, one element at a time."""
    return min(
        abs(np.pi / 2 - angle_between(beta.direction, w @ theta.direction))
        for w in rs.weyl_elements
    )


SYSTEMS = [("A", 2, None), ("A", 3, None), ("A", 4, None), ("product", None, [2, 1])]


def _chamber_slopes(rs, rng, count):
    """Random closed-chamber slopes: interior, near a wall, and on walls (zero weights)."""
    out = []
    for k in range(count):
        w = rng.dirichlet(np.ones(rs.rank))
        if k % 3 == 1:
            w[rng.integers(rs.rank)] *= 10.0 ** -rng.uniform(2, 9)
        elif k % 3 == 2:
            w[rng.random(rs.rank) < 0.5] = 0.0
            if not w.any():
                w[0] = 1.0
        out.append(rs.slope(w @ rs.coweights))
    return out


@pytest.mark.parametrize("family, rank, factors", SYSTEMS)
def test_wall_margin_matches_cone_distances(family, rank, factors):
    rs = cx.build_root_system(family, rank=rank, factors=factors)
    rng = np.random.default_rng(41)
    for beta in _chamber_slopes(rs, rng, 150):
        new, old = cx.wall_margin(rs, beta), _wall_margin_loop(rs, beta)
        assert new >= 0.0
        assert abs(new - old) <= 2e-8
        if old > 1e-3:
            assert abs(new - old) <= 1e-10
    for k in range(rs.rank):
        beta = rs.slope(rs.coweights[k])
        assert cx.wall_margin(rs, beta) == 0.0 == _wall_margin_loop(rs, beta)


@pytest.mark.parametrize("family, rank, factors", SYSTEMS)
def test_ort_distance_matches_group_loop(family, rank, factors):
    rs = cx.build_root_system(family, rank=rank, factors=factors)
    rng = np.random.default_rng(43)
    slopes = _chamber_slopes(rs, rng, 60)
    for theta, beta in zip(slopes, slopes[::-1]):
        assert abs(cx.ort_distance(rs, theta, beta) - _ort_distance_loop(rs, theta, beta)) <= 1e-12


def _simplex_grid_recursive(dim, n):
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining])
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], n, dim)
    return np.array(out, dtype=float) / n


@pytest.mark.parametrize("dim, n", [(2, 9), (3, 9), (4, 9), (3, 4), (5, 4)])
def test_simplex_grid_keeps_recursive_order(dim, n):
    grid = cx._simplex_grid(dim, n)
    assert grid.tobytes() == _simplex_grid_recursive(dim, n).tobytes()


WALL_SYSTEMS = [
    ("A", 2, None),
    ("A", 3, None),
    ("A", 4, None),
    ("product", None, [1, 1]),
    ("product", None, [1, 2]),
    ("product", None, [2, 2]),
    ("product", None, [1, 1, 1]),
    ("product", None, [1, 3]),
]


@pytest.mark.parametrize("family, rank, factors", WALL_SYSTEMS)
def test_wall_distances_match_cone_distances(family, rank, factors, monkeypatch):
    rs = cx.build_root_system(family, rank=rank, factors=factors)
    rng = np.random.default_rng(47)
    slopes = [rs.slope(w) for w in rs.coweights] + [rs.slope(rs.coweights.sum(axis=0))]
    slopes += [rs.slope(rng.dirichlet(np.ones(rs.rank)) @ rs.coweights) for _ in range(10)]
    for theta in slopes:
        new, old = cx.wall_distances(rs, theta), _wall_distances_loop(rs, theta)
        assert len(new) == len(old)
        assert np.max(np.abs(np.subtract(new, old))) <= 1e-12
        prof = cx.delta_zero(rs, theta)
        with monkeypatch.context() as m:
            m.setattr(cx, "wall_distances", lambda rs, theta: old)
            ref = cx._ort_profile(rs, theta)
        assert prof.degenerate == ref.degenerate
        np.testing.assert_allclose(
            [prof.delta0, prof.delta0_prime], [ref.delta0, ref.delta0_prime], rtol=0, atol=1e-12
        )
    if family == "A":
        for w in rs.coweights:
            dists = cx.wall_distances(rs, rs.slope(w))
            assert dists[0] <= 1e-14
            assert abs(dists[-1] - np.pi) <= 1e-14
