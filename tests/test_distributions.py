import numpy as np
import pytest

from binauralkit.distributions import lebedev50_directions, ring_grid_directions
from binauralkit import distributions
from binauralkit.errors import InvalidArgumentError
from binauralkit.geometry import MERGE_TOLERANCE_DEG, angular_distance, to_cartesian
from binauralkit.ir_store import synthesize_ir_set


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


@pytest.mark.parametrize("step", [0.001, 1e-300, MERGE_TOLERANCE_DEG / 2])
def test_ring_step_below_the_merge_tolerance_is_refused_before_any_ring(monkeypatch, step):
    def arange(*args, **kwargs):
        raise AssertionError(f"a ring was built: np.arange{args}")

    monkeypatch.setattr(distributions.np, "arange", arange)
    message = (f"azimuth step {step} is below the {MERGE_TOLERANCE_DEG}-degree merge "
               "tolerance, so no two ring neighbours are distinct")
    with pytest.raises(InvalidArgumentError) as e:
        ring_grid_directions(step, [0])
    assert str(e.value) == message
    with pytest.raises(InvalidArgumentError) as e:
        synthesize_ir_set("ring_az_step", 48000, step_deg=step, elevations=[0, 45])
    assert str(e.value) == message


def test_ring_step_and_elevations_are_numbers():
    for step, elevations, message in [
        ("5", [0], None),
        ("x", [0], "azimuth step must be a number, got 'x'"),
        (True, [0], "azimuth step must be a number, got True"),
        (5.0, [0, "up"], "ring elevation must be a number, got 'up'"),
        (5.0, [None], "ring elevation must be a number, got None"),
    ]:
        if message is None:
            assert ring_grid_directions(step, elevations) == ring_grid_directions(5.0, [0])
            continue
        with pytest.raises(InvalidArgumentError) as e:
            ring_grid_directions(step, elevations)
        assert str(e.value) == message
    # the tolerance itself still builds its ring
    assert len(ring_grid_directions(MERGE_TOLERANCE_DEG * 1000, [0])) == 36
