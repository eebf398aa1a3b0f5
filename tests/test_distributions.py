import numpy as np
import pytest

from binauralkit.distributions import lebedev50_directions, ring_grid_directions
from binauralkit.errors import InvalidArgumentError
from binauralkit.geometry import angular_distance, to_cartesian


def test_lebedev50_count_and_distinctness():
    dirs = lebedev50_directions()
    assert len(dirs) == 50
    carts = np.array([to_cartesian(d) for d in dirs])
    assert np.allclose(np.linalg.norm(carts, axis=1), 1.0, atol=1e-12)
    gram = carts @ carts.T
    np.fill_diagonal(gram, -1.0)
    assert gram.max() < np.cos(np.radians(0.01))


def test_lebedev50_contains_axis_points():
    dirs = lebedev50_directions()
    def has(az, el):
        return any(
            angular_distance(d, type(d)(az, el)) < 1e-9 for d in dirs
        )
    assert has(0, 0) and has(90, 0) and has(180, 0) and has(270, 0)
    assert has(0, 90) and has(0, -90)


def test_lebedev50_deterministic():
    assert lebedev50_directions() == lebedev50_directions()


def test_ring_grid_counts():
    dirs = ring_grid_directions(15.0, [-45, 0, 45])
    assert len(dirs) == 24 * 3
    dirs = ring_grid_directions(90.0, [0])
    assert [(d.azimuth_deg, d.elevation_deg) for d in dirs] == [
        (0.0, 0.0), (90.0, 0.0), (180.0, 0.0), (270.0, 0.0)
    ]


def test_ring_grid_pole_ring_is_one_point():
    dirs = ring_grid_directions(45.0, [90, 0])
    assert len(dirs) == 9
    assert (dirs[0].azimuth_deg, dirs[0].elevation_deg) == (0.0, 90.0)
    dirs = ring_grid_directions(30.0, [-90, 0, 90])
    assert [d.elevation_deg for d in dirs].count(-90.0) == 1
    assert [d.elevation_deg for d in dirs].count(90.0) == 1


def test_ring_grid_validation():
    with pytest.raises(InvalidArgumentError):
        ring_grid_directions(0.0, [0])
    with pytest.raises(InvalidArgumentError):
        ring_grid_directions(-5.0, [0])
    with pytest.raises(InvalidArgumentError):
        ring_grid_directions(15.0, [])
