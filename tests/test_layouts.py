import pytest

from binauralkit.errors import UnsupportedLayoutError
from binauralkit.layouts import LAYOUT_NAMES, get_layout

EXPECTED_COUNTS = {
    "5.1": 6, "5.1.2": 8, "5.1.4": 10,
    "7.1": 8, "7.1.2": 10, "7.1.4": 12,
    "9.1": 10, "9.1.2": 12, "9.1.4": 14,
}


def test_nine_layouts_supported():
    assert set(LAYOUT_NAMES) == set(EXPECTED_COUNTS)


def test_channel_counts_match_names():
    for name, count in EXPECTED_COUNTS.items():
        layout = get_layout(name)
        assert layout.channel_count == count
        bed, _, *height = name.split(".")
        heights = int(height[0]) if height else 0
        assert len(layout.speaker_directions()) == int(bed) + heights


def test_51_channel_order():
    labels = [c.label for c in get_layout("5.1").channels]
    assert labels == ["L", "R", "C", "LFE", "Ls", "Rs"]


def test_single_lfe_per_layout_at_index_3():
    for name in LAYOUT_NAMES:
        layout = get_layout(name)
        lfe = [i for i, c in enumerate(layout.channels) if c.is_lfe]
        assert lfe == [3]


def test_labels_unique():
    for name in LAYOUT_NAMES:
        labels = [c.label for c in get_layout(name).channels]
        assert len(labels) == len(set(labels))


def test_bed_at_zero_elevation_heights_at_45():
    for name in LAYOUT_NAMES:
        heights = int(name.split(".")[2]) if name.count(".") == 2 else 0
        layout = get_layout(name)
        speakers = [c for c in layout.channels if not c.is_lfe]
        bed, tops = speakers[: len(speakers) - heights], speakers[len(speakers) - heights:]
        assert all(c.direction.elevation_deg == 0.0 for c in bed)
        assert all(c.direction.elevation_deg == 45.0 for c in tops)


def test_left_right_mirror_symmetry():
    for name in LAYOUT_NAMES:
        for c in get_layout(name).channels:
            if c.is_lfe or c.direction.azimuth_deg == 0.0:
                continue
            az, el = c.direction.azimuth_deg, c.direction.elevation_deg
            partners = [
                o for o in get_layout(name).channels
                if not o.is_lfe
                and o.direction.elevation_deg == el
                and o.direction.azimuth_deg == 360.0 - az
            ]
            assert len(partners) == 1, (name, c.label)


def test_speaker_directions_excludes_lfe():
    assert len(get_layout("5.1").speaker_directions()) == 5
    assert all(d.elevation_deg == 0.0 for d in get_layout("9.1").speaker_directions())
    above = [d for d in get_layout("5.1.2").speaker_directions() if d.elevation_deg > 0]
    assert len(above) == 2


def test_unknown_layout_lists_names():
    with pytest.raises(UnsupportedLayoutError) as err:
        get_layout("stereo")
    for name in LAYOUT_NAMES:
        assert name in str(err.value)
    with pytest.raises(UnsupportedLayoutError):
        get_layout("6.1")
    # names that are not strings, hashable or not, are unknown layouts too
    for name in (5.1, None, ["5.1"], {"name": "5.1"}):
        with pytest.raises(UnsupportedLayoutError, match="unsupported layout"):
            get_layout(name)
