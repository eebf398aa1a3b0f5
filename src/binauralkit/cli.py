"""Command-line interface: mixing, surround rendering, dataset generation,
triangulation inspection, IR import/synthesis, and layout tables.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .dataset import parse_grid, run_dataset
from .dsp import load_audio, load_reverbs
from .distributions import lebedev50_directions, ring_grid_directions
from .errors import BinauralKitError, FormatError, InvalidArgumentError, as_number
from .geometry import (
    Direction,
    apply_frame,
    build_triangulation,
    find_enclosing_triangle,
    normalize_direction,
    rotated_frame,
)
from .interpolation import InterpolationMode, plan_over_directions
from .ir_store import (
    DEFAULT_IMPORT_PATTERN,
    IRType,
    SAMPLE_RATES,
    import_sadie,
    load_ir_set,
    manifest_path,
    save_ir_set,
    synthesize_ir_set,
)
from .layouts import LAYOUT_NAMES, get_layout
from .mixer import (
    MixConfig,
    TrackObject,
    mix_tracks_binaural,
    render_surround_to_binaural,
)
from .plot import write_triangulation_svg
from .wavio import write_wav

SCENE_SCHEMA = 1

_CONFIG_KEYS = {
    "subject", "sample_rate", "ir_type", "layout", "mode",
    "reverb_type", "keep_tail", "normalize",
}
_TRACK_KEYS = {"name", "file", "level", "reverb", "azimuth", "elevation"}


def parse_scene(path) -> tuple[MixConfig, list[TrackObject]]:
    """Load a mix scene file: JSON with a config object and a track list.

    Track audio paths resolve against the scene file's directory.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(data, dict) or data.get("schema") != SCENE_SCHEMA:
        raise FormatError(f"{path}: expected an object with schema={SCENE_SCHEMA}")
    raw_cfg = data.get("config")
    if not isinstance(raw_cfg, dict):
        raise FormatError(f"{path}: missing config object")
    unknown = set(raw_cfg) - _CONFIG_KEYS
    if unknown:
        raise FormatError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    for req in ("subject", "sample_rate"):
        if req not in raw_cfg:
            raise FormatError(f"{path}: config is missing {req!r}")
    rate, reverb_type = (
        as_number(raw_cfg.get(key, 1), f"{path}: config {key}", int)
        for key in ("sample_rate", "reverb_type")
    )
    cfg = MixConfig(
        subject_id=str(raw_cfg["subject"]),
        sample_rate_hz=rate,
        ir_type=raw_cfg.get("ir_type", "HRIR"),
        speaker_layout=raw_cfg.get("layout"),
        interpolation_mode=raw_cfg.get("mode", "auto"),
        reverb_type=reverb_type,
        keep_tail=bool(raw_cfg.get("keep_tail", True)),
        normalize=raw_cfg.get("normalize", "off"),
    )
    raw_tracks = data.get("tracks")
    if not isinstance(raw_tracks, list) or not raw_tracks:
        raise FormatError(f"{path}: tracks must be a non-empty list")
    tracks = []
    for i, t in enumerate(raw_tracks):
        if not isinstance(t, dict):
            raise FormatError(f"{path}: track {i} must be an object")
        unknown = set(t) - _TRACK_KEYS
        if unknown:
            raise FormatError(
                f"{path}: track {i}: unknown keys: {', '.join(sorted(unknown))}"
            )
        for req in ("name", "file"):
            if req not in t:
                raise FormatError(f"{path}: track {i} is missing {req!r}")
        wav = Path(t["file"])
        if not wav.is_absolute():
            wav = path.parent / wav
        level, reverb, azimuth, elevation = (
            as_number(t.get(key, default), f"{path}: track {i} {key}")
            for key, default in (("level", 1.0), ("reverb", 0.0),
                                 ("azimuth", 0.0), ("elevation", 0.0))
        )
        tracks.append(
            TrackObject(
                name=str(t["name"]),
                audio=load_audio(wav),
                level=level,
                reverb=reverb,
                azimuth_deg=azimuth,
                elevation_deg=elevation,
            )
        )
    return cfg, tracks


def _print_plan(label: str, p, dirs, names=None):
    print(
        f"{label}: mode={p.mode_used.value} "
        f"achieved=({p.achieved_direction.azimuth_deg:.3f}, "
        f"{p.achieved_direction.elevation_deg:.3f}) "
        f"error={p.achieved_error_deg:.4f} deg"
    )
    for i, w in p.entries:
        d = dirs[i]
        tag = f" [{names[i]}]" if names else ""
        print(
            f"  point {i}{tag} az={d.azimuth_deg:.6g} el={d.elevation_deg:.6g} "
            f"weight={w:.6f}"
        )


def _encoding(args) -> str:
    return "float32" if getattr(args, "float32", False) else "pcm24"


def cmd_mix(args) -> int:
    cfg, tracks = parse_scene(args.scene)
    if args.normalize is not None:
        cfg.normalize = args.normalize
    ir_set = load_ir_set(args.data_root, cfg.subject_id, cfg.ir_type,
                         cfg.sample_rate_hz)
    reverbs = load_reverbs(args.data_root, cfg.sample_rate_hz)
    result = mix_tracks_binaural(tracks, cfg, ir_set, reverbs)
    if cfg.speaker_layout is not None:
        layout = get_layout(cfg.speaker_layout)
        dirs = layout.speaker_directions()
        names = [c.label for c in layout.channels if not c.is_lfe]
    else:
        dirs, names = ir_set.directions, None
    for name, p in result.track_plans:
        _print_plan(f"track {name!r}", p, dirs, names)
    write_wav(args.out, cfg.sample_rate_hz, result.audio.samples, _encoding(args))
    clip = ", CLIPPED" if result.clipped else ""
    print(
        f"wrote {args.out} ({result.audio.n_samples} samples, "
        f"peak {result.peak_level:.4f}{clip})"
    )
    return 0


def cmd_render_surround(args) -> int:
    program = load_audio(args.input)
    cfg = MixConfig(
        subject_id=args.subject,
        sample_rate_hz=args.rate,
        ir_type=args.ir_type,
        interpolation_mode=args.mode,
        normalize=args.normalize or "off",
    )
    ir_set = load_ir_set(args.data_root, cfg.subject_id, cfg.ir_type,
                         cfg.sample_rate_hz)
    result = render_surround_to_binaural(
        program, args.input_layout, args.output_layout, cfg, ir_set
    )
    out_layout = get_layout(args.output_layout)
    dirs = out_layout.speaker_directions()
    names = [c.label for c in out_layout.channels if not c.is_lfe]
    for label, p in result.track_plans:
        _print_plan(f"channel {label}", p, dirs, names)
    write_wav(args.out, cfg.sample_rate_hz, result.audio.samples, _encoding(args))
    clip = ", CLIPPED" if result.clipped else ""
    print(
        f"wrote {args.out} ({result.audio.n_samples} samples, "
        f"peak {result.peak_level:.4f}{clip})"
    )
    return 0


def cmd_dataset(args) -> int:
    grid = parse_grid(args.grid)
    print(f"grid expands to {grid.job_count} jobs (seed {grid.seed})")
    report = run_dataset(
        grid,
        args.data_root,
        args.out,
        jobs=args.jobs,
        force=args.force,
        encoding=_encoding(args),
    )
    for row in report.rows:
        if row["status"] != "ok":
            print(f"job {row['index']} failed: {row['error']}", file=sys.stderr)
    print(
        f"wrote {len(report.rows) - report.n_failed}/{len(report.rows)} files, "
        f"manifest {report.manifest_path}"
    )
    return 1 if report.n_failed else 0


def _triangulate_source(args):
    """Resolve the point source for cmd_triangulate: (name, dirs, labels)."""
    chosen = [
        bool(args.layout),
        bool(args.distribution),
        bool(args.subject),
    ]
    if sum(chosen) != 1:
        raise InvalidArgumentError(
            "choose exactly one point source: --layout, --distribution, "
            "or --subject with --data-root"
        )
    if args.layout:
        layout = get_layout(args.layout)
        return (
            f"layout {layout.name}",
            layout.speaker_directions(),
            [c.label for c in layout.channels if not c.is_lfe],
        )
    if args.distribution:
        if args.distribution == "lebedev50":
            return "lebedev50", lebedev50_directions(), None
        elevations = [float(v) for v in args.elevations.split(",")]
        return (
            f"ring grid step {args.step}",
            ring_grid_directions(args.step, elevations),
            None,
        )
    ir_set = load_ir_set(args.data_root, args.subject, args.ir_type, args.rate)
    return (
        f"{args.subject}/{IRType.parse(args.ir_type).value}/{args.rate}",
        list(ir_set.directions),
        None,
    )


def cmd_triangulate(args) -> int:
    name, dirs, labels = _triangulate_source(args)
    query = normalize_direction(args.az, args.el)
    tri = build_triangulation(dirs)
    # without merged near-duplicates, plan, printout and plot share indices
    dirs = list(tri.vertices)
    p = plan_over_directions(
        dirs, query, InterpolationMode.THREE_POINT, triangulation=tri
    )

    raz = rel = False
    if len(p.entries) == 3:
        enc = find_enclosing_triangle(tri, query)
        raz, rel = enc.rotated_azimuth, enc.rotated_elevation
    print(f"source: {name} ({len(dirs)} points, {len(tri.triangles)} triangles)")
    print(f"query: ({query.azimuth_deg:.6g}, {query.elevation_deg:.6g})")
    print(f"rotation: azimuth_180={raz} elevation_rotated={rel}")
    _print_plan("plan", p, dirs, labels)
    print(f"weight sum: {sum(w for _, w in p.entries):.9f}")

    if args.plot:
        plot_tri, plot_query = tri, query
        if raz or rel:
            plot_tri = rotated_frame(tri, raz, rel)
            plot_query = apply_frame(query, raz, rel)
        caption = (
            f"{name} | query ({query.azimuth_deg:.6g}, "
            f"{query.elevation_deg:.6g}) | frame az180={raz} elrot={rel}"
        )
        write_triangulation_svg(args.plot, plot_tri, plot_query, p, caption)
        print(f"wrote {args.plot}")
    return 0


def cmd_import_sadie(args) -> int:
    manifest = import_sadie(
        args.source,
        args.dest,
        args.subject,
        args.ir_type,
        args.rate,
        args.pattern,
        inclination=args.inclination,
        copy_files=not args.no_copy,
    )
    mpath = manifest_path(args.dest, args.subject, args.ir_type, args.rate)
    print(f"imported {len(manifest.entries)} IRs -> {mpath}")
    return 0


def cmd_synth_irs(args) -> int:
    elevations = None
    if args.elevations:
        elevations = [float(v) for v in args.elevations.split(",")]
    ir_set = synthesize_ir_set(
        args.distribution,
        args.rate,
        args.length,
        args.seed,
        step_deg=args.step,
        elevations=elevations,
        subject_id=args.subject,
        ir_type=args.ir_type,
    )
    mpath = save_ir_set(ir_set, args.dest)
    print(f"synthesized {len(ir_set.points)} IRs -> {mpath}")
    return 0


def cmd_layouts(args) -> int:
    names = [args.name] if args.name else list(LAYOUT_NAMES)
    for name in names:
        layout = get_layout(name)
        print(f"{layout.name} ({layout.channel_count} channels)")
        for i, c in enumerate(layout.channels):
            if c.is_lfe:
                print(f"  {i}\t{c.label}\t\t")
            else:
                print(
                    f"  {i}\t{c.label}\t{c.direction.azimuth_deg:g}"
                    f"\t{c.direction.elevation_deg:g}"
                )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binauralkit",
        description="Binaural mixing, surround rendering, and dataset tools.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mix", help="render a scene file to a stereo WAV")
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--data-root", required=True, help="IR data root directory")
    p.add_argument("-o", "--out", required=True, help="output WAV path")
    p.add_argument("--float32", action="store_true",
                   help="write 32-bit float instead of 24-bit PCM")
    p.add_argument("--normalize", choices=["off", "peak"], default=None,
                   help="override the scene's normalize setting")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser(
        "render-surround", help="render a channel-encoded WAV to binaural"
    )
    p.add_argument("input", help="multichannel WAV in input-layout channel order")
    p.add_argument("--input-layout", required=True)
    p.add_argument("--output-layout", required=True)
    p.add_argument("--data-root", required=True)
    p.add_argument("--subject", required=True)
    p.add_argument("--ir-type", default="HRIR")
    p.add_argument("--rate", type=int, required=True)
    p.add_argument("--mode", default="auto")
    p.add_argument("--normalize", choices=["off", "peak"], default=None)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--float32", action="store_true")
    p.set_defaults(func=cmd_render_surround)

    p = sub.add_parser("dataset", help="render a parameter grid to WAVs")
    p.add_argument("grid", help="grid JSON file")
    p.add_argument("--data-root", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--force", action="store_true",
                   help="run even past the job cap")
    p.add_argument("--float32", action="store_true")
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser(
        "triangulate", help="inspect the triangle enclosing a direction"
    )
    p.add_argument("--az", type=float, required=True)
    p.add_argument("--el", type=float, required=True)
    p.add_argument("--layout", help="use a speaker layout as the point set")
    p.add_argument("--distribution", choices=["lebedev50", "ring"],
                   help="use a synthetic distribution as the point set")
    p.add_argument("--step", type=float, default=15.0,
                   help="ring distribution azimuth step")
    p.add_argument("--elevations", default="-45,0,45",
                   help="ring distribution elevations, comma-separated")
    p.add_argument("--data-root")
    p.add_argument("--subject", help="use a stored IR set as the point set")
    p.add_argument("--ir-type", default="HRIR")
    p.add_argument("--rate", type=int, default=48000)
    p.add_argument("--plot", help="write an SVG plot here")
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("import-sadie", help="import measured IR WAVs")
    p.add_argument("--source", required=True, help="directory of IR WAVs")
    p.add_argument("--dest", required=True, help="IR data root to write into")
    p.add_argument("--subject", required=True)
    p.add_argument("--ir-type", default="HRIR")
    p.add_argument("--rate", type=int, required=True)
    p.add_argument("--pattern", default=DEFAULT_IMPORT_PATTERN,
                   help="filename regex with azimuth/elevation groups")
    p.add_argument("--inclination", action="store_true",
                   help="filenames carry inclination from zenith")
    p.add_argument("--no-copy", action="store_true",
                   help="reference source files instead of copying")
    p.set_defaults(func=cmd_import_sadie)

    p = sub.add_parser("synth-irs", help="generate a synthetic IR set")
    p.add_argument("--distribution", default="lebedev50",
                   choices=["lebedev50", "ring_az_step"])
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--elevations", default=None,
                   help="comma-separated elevations for ring_az_step")
    p.add_argument("--rate", type=int, default=48000,
                   choices=list(SAMPLE_RATES))
    p.add_argument("--length", type=int, default=256, help="IR length, samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--subject", default="SYN1")
    p.add_argument("--ir-type", default="HRIR")
    p.add_argument("--dest", required=True, help="IR data root to write into")
    p.set_defaults(func=cmd_synth_irs)

    p = sub.add_parser("layouts", help="print the speaker angle table")
    p.add_argument("name", nargs="?", help="layout name; omit for all")
    p.set_defaults(func=cmd_layouts)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BinauralKitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
