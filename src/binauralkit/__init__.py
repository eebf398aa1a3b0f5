"""Programmatic binaural mixing, IR interpolation, and dataset generation."""

from .dataset import DatasetGrid, DatasetReport, parse_grid, run_dataset
from .distributions import lebedev50_directions, ring_grid_directions
from .dsp import (
    AudioBuffer,
    RenderedSource,
    ReverbModel,
    apply_reverb,
    default_reverbs,
    fft_convolve,
    load_audio,
    load_reverbs,
    pan_constant_power,
    render_source_binaural,
)
from .errors import (
    BinauralKitError,
    EmptyImportError,
    FormatError,
    InsufficientPointsError,
    InvalidArgumentError,
    NoEnclosingTriangleError,
    NotFoundError,
    UnsupportedLayoutError,
)
from .geometry import (
    Direction,
    EnclosingTriangle,
    Triangulation,
    angular_distance,
    build_triangulation,
    find_enclosing_triangle,
    from_cartesian,
    normalize_direction,
    to_cartesian,
)
from .interpolation import (
    InterpolationMode,
    InterpolationPlan,
    blend,
    plan,
    plan_over_directions,
)
from .ir_store import (
    IRManifest,
    IRPoint,
    IRSet,
    IRType,
    import_sadie,
    load_ir_set,
    nearest_point,
    save_ir_set,
    synthesize_ir_set,
)
from .layouts import LAYOUT_NAMES, Channel, SpeakerLayout, get_layout
from .mixer import (
    MixConfig,
    MixResult,
    TrackObject,
    mix_tracks_binaural,
    mix_tracks_stereo,
    render_surround_to_binaural,
)
from .plot import triangulation_svg, write_triangulation_svg
from .wavio import read_wav, write_wav

__version__ = "0.1.0"
