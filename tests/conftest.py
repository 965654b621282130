import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import whitneylab as w


def random_convex_polygon(seed, n_points=7, normalized=True):
    """Random convex polygon; normalized so the inscribed ball is B_1(0).

    Vertex angles are jittered from equal spacing so the normalized body also
    stays inside B_2(0), the regime the planar chain construction documents.
    """
    rng = np.random.default_rng(seed)
    ang = np.sort(2.0 * math.pi * np.arange(n_points) / n_points
                  + rng.uniform(-0.3, 0.3, n_points))
    rad = rng.uniform(1.3, 1.9, n_points)
    pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    hull = ConvexHull(pts)
    dom = w.polytope(hull.equations[:, :2], -hull.equations[:, 2])
    if not normalized:
        return dom
    amap, _ = w.normalize(dom)
    return w.as_polytope(amap.apply_domain(dom))


def stadium_domain():
    """Convex hull of two unit disks with centers one apart."""
    return w.union([w.ball([0, 0], 1.0), w.ball([1, 0], 1.0),
                    w.box([0, -1], [1, 1])])


def thin_band_chain():
    """The unit square, then the band |x - y| <= 5e-8 over x in [5, 7]: far
    from the square, and too thin for any bounding-box proposal to land in."""
    band = w.polytope([[1, 0], [-1, 0], [1, -1], [-1, 1]], [7, -5, 5e-8, 5e-8])
    return w.DecompositionChain([w.box([0, 0], [1, 1]), band], np.array([[0.1, 0.0]]), 1,
                                w.direction_set([[1.0, 0.0], [0.0, 1.0]]), "test")


@pytest.fixture(scope="session")
def unit_square():
    return w.box([0.0, 0.0], [1.0, 1.0])


@pytest.fixture(scope="session")
def axes2():
    return w.direction_set([[1.0, 0.0], [0.0, 1.0]])


@pytest.fixture(scope="session")
def axis1():
    return w.direction_set([[1.0]])
