"""Surround speaker layouts and their canonical angles.

All angles live in one table so an in-house convention can be matched by
editing it. Left-side channels are at positive azimuth (counter-clockwise);
every non-center channel has a mirror partner at 360 - azimuth. Height
channels sit at 45 degrees elevation. LFE has no direction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedLayoutError
from .geometry import Direction, normalize_direction


@dataclass(frozen=True)
class Channel:
    """One channel of a layout; direction is None for LFE."""

    label: str
    direction: Direction | None

    @property
    def is_lfe(self) -> bool:
        return self.direction is None


@dataclass(frozen=True)
class SpeakerLayout:
    name: str
    channels: tuple[Channel, ...]

    @property
    def channel_count(self) -> int:
        return len(self.channels)

    def speaker_directions(self) -> list[Direction]:
        """Directions of all non-LFE channels, in channel order."""
        return [c.direction for c in self.channels if not c.is_lfe]


def _ch(label: str, az: float | None, el: float = 0.0) -> tuple[str, float | None, float]:
    return (label, az, el)


# label, azimuth, elevation per channel; None azimuth marks LFE.
# Channel order: L, R, C, LFE, surrounds front to back (left before right),
# then heights front to back (left before right).
_BED_51 = [_ch("L", 30), _ch("R", 330), _ch("C", 0), _ch("LFE", None),
           _ch("Ls", 110), _ch("Rs", 250)]
_BED_71 = [_ch("L", 30), _ch("R", 330), _ch("C", 0), _ch("LFE", None),
           _ch("Lss", 90), _ch("Rss", 270), _ch("Lsr", 135), _ch("Rsr", 225)]
_BED_91 = [_ch("L", 30), _ch("R", 330), _ch("C", 0), _ch("LFE", None),
           _ch("Lw", 60), _ch("Rw", 300),
           _ch("Lss", 90), _ch("Rss", 270), _ch("Lsr", 135), _ch("Rsr", 225)]
_TOP_2 = [_ch("Ltm", 90, 45), _ch("Rtm", 270, 45)]
_TOP_4 = [_ch("Ltf", 45, 45), _ch("Rtf", 315, 45),
          _ch("Ltr", 135, 45), _ch("Rtr", 225, 45)]

_LAYOUT_TABLE: dict[str, list[tuple[str, float | None, float]]] = {
    "5.1": _BED_51,
    "5.1.2": _BED_51 + _TOP_2,
    "5.1.4": _BED_51 + _TOP_4,
    "7.1": _BED_71,
    "7.1.2": _BED_71 + _TOP_2,
    "7.1.4": _BED_71 + _TOP_4,
    "9.1": _BED_91,
    "9.1.2": _BED_91 + _TOP_2,
    "9.1.4": _BED_91 + _TOP_4,
}

LAYOUT_NAMES = tuple(_LAYOUT_TABLE)


def get_layout(name: str) -> SpeakerLayout:
    """Layout by name; raises UnsupportedLayoutError listing valid names."""
    if not isinstance(name, str) or name not in _LAYOUT_TABLE:
        raise UnsupportedLayoutError(
            f"unsupported layout {name!r}; expected one of: "
            + ", ".join(LAYOUT_NAMES)
        )
    channels = tuple(
        Channel(label, None if az is None else normalize_direction(az, el))
        for label, az, el in _LAYOUT_TABLE[name]
    )
    return SpeakerLayout(name, channels)
