"""Outputs that must not move: digests of CLI ``dataset``, ``mix`` and
``render-surround`` files built from seeded inputs.

``golden_digests.json`` holds, for each output file, its sha256 and, for a
WAV, a probe of its samples as ``read_wav`` gives them: the values at 64
fixed indices of the flattened samples, their sum and sum of squares, the
peak and one step of the file's encoding. Where numpy's version and
``platform.machine()`` are those the file was recorded under, every sha256
must match. Elsewhere the FFT may round differently, so each probed value
must lie within 1e-9 of the peak, plus one encoding step, since a sample on
a rounding boundary may land one code away; the sum and sum of squares get
the same bound per sample.

The digests change only with a change log entry saying which outputs moved
and why. To record them afresh:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from binauralkit import wavio
from binauralkit.cli import main
from binauralkit.ir_store import save_ir_set, synthesize_ir_set

DIGESTS = Path(__file__).with_name("golden_digests.json")
PROBES = 64
# the runs whose outputs are recorded; both worker counts must give the
# digests recorded for their encoding
DATASET_RUNS = [(enc, jobs) for enc in ("pcm24", "float32") for jobs in (1, 2)]
RUNS = [f"dataset-{enc}-jobs{jobs}" for enc, jobs in DATASET_RUNS] + ["mix", "surround"]

pytestmark = pytest.mark.filterwarnings("ignore:mix peak")


def _noise(path, shape, seed, scale=0.2):
    wavio.write_wav(path, 48000, scale * np.random.default_rng(seed).standard_normal(shape),
                    "float32")


def _write_inputs(root: Path) -> None:
    """IR sets LEB (lebedev50) and RING (5-degree rings at 0 and 45 degrees,
    holding every 7.1.4 speaker), seeded tracks, a grid and mix scenes."""
    save_ir_set(synthesize_ir_set("lebedev50", 48000, 128, seed=11, subject_id="LEB"),
                root / "data")
    save_ir_set(synthesize_ir_set("ring_az_step", 48000, 96, seed=12, step_deg=5.0,
                                  elevations=[0.0, 45.0], subject_id="RING"),
                root / "data")
    _noise(root / "a.wav", 4800, 1)
    _noise(root / "b.wav", 3600, 2)
    _noise(root / "five.wav", (2400, 6), 3, 0.1)
    _noise(root / "seven.wav", (2400, 12), 4, 0.1)
    (root / "grid.json").write_text(json.dumps({"schema": 1, "seed": 5, "axes": {
        "subject": ["RING"], "ir_type": ["HRIR"], "sample_rate": [48000],
        "layout": [None, "7.1.4"],
        "mode": ["nearest", "two_point", "planar", "three_point", "auto"],
        "azimuth": [62.5], "elevation": [10.0], "reverb_amount": [0.0, 0.3],
        "source": ["a.wav"]}}))
    for layout in (None, "7.1.4"):
        for normalize in ("off", "peak"):
            for keep_tail in (True, False):
                config = {"subject": "LEB", "sample_rate": 48000, "layout": layout,
                          "normalize": normalize, "keep_tail": keep_tail, "reverb_type": 3}
                tracks = [
                    {"name": "a", "file": "a.wav", "azimuth": 30.0, "reverb": 0.3},
                    {"name": "b", "file": "b.wav", "azimuth": 250.0, "elevation": 20.0,
                     "level": 0.7},
                ]
                name = f"{layout or 'free'}-{normalize}-tail{int(keep_tail)}"
                (root / f"{name}.json").write_text(json.dumps(
                    {"schema": 1, "config": config, "tracks": tracks}))
    # three wet tracks of unequal lengths, each shorter than the 0.3 s
    # reverb, beside a longer dry track
    _noise(root / "c.wav", 2400, 6)
    _noise(root / "d.wav", 6000, 7)
    tracks = [
        {"name": "a", "file": "a.wav", "azimuth": 30.0, "level": 0.6, "reverb": 0.3},
        {"name": "b", "file": "b.wav", "azimuth": 250.0, "elevation": 20.0, "level": 0.5,
         "reverb": 0.5},
        {"name": "c", "file": "c.wav", "azimuth": 120.0, "elevation": -15.0, "level": 0.7,
         "reverb": 1.0},
        {"name": "d", "file": "d.wav", "azimuth": 200.0, "level": 0.6},
    ]
    for layout in (None, "7.1.4"):
        config = {"subject": "LEB", "sample_rate": 48000, "layout": layout, "reverb_type": 3}
        (root / f"wet3-{layout or 'free'}.json").write_text(json.dumps(
            {"schema": 1, "config": config, "tracks": tracks}))
    # 2 s wet tracks, whose 0.3 s reverb output is too long for one
    # transform: three share the send, and a lone one is reverbed by itself
    _noise(root / "e.wav", 96000, 8)
    _noise(root / "f.wav", 90000, 9)
    long_tracks = {
        "send": [
            {"name": "e", "file": "e.wav", "azimuth": 40.0, "level": 0.5, "reverb": 0.4},
            {"name": "f", "file": "f.wav", "azimuth": 160.0, "elevation": 30.0,
             "level": 0.5, "reverb": 0.7},
            {"name": "g", "file": "e.wav", "azimuth": 300.0, "level": 0.4, "reverb": 1.0},
        ],
        "track": [
            {"name": "e", "file": "e.wav", "azimuth": 40.0, "level": 0.6, "reverb": 0.4},
            {"name": "b", "file": "b.wav", "azimuth": 250.0, "level": 0.5},
        ],
    }
    for path, long in long_tracks.items():
        config = {"subject": "LEB", "sample_rate": 48000, "reverb_type": 3}
        (root / f"long-{path}.json").write_text(json.dumps(
            {"schema": 1, "config": config, "tracks": long}))


def _run(root: Path, run: str) -> Path:
    """Write ``run``'s outputs under root/out/<run>; returns that directory."""
    out = root / "out" / run
    data = str(root / "data")
    if run.startswith("dataset"):
        _, enc, jobs = run.split("-")
        argv = ["dataset", str(root / "grid.json"), "--data-root", data, "--out", str(out),
                "--jobs", jobs[4:]]
        assert main(argv + (["--float32"] if enc == "float32" else [])) == 0
    elif run == "mix":
        for scene in sorted(set(root.glob("*.json")) - {root / "grid.json"}):
            assert main(["mix", str(scene), "--data-root", data,
                         "-o", str(out / f"{scene.stem}.wav")]) == 0
    else:
        for src, layout in (("five.wav", "5.1"), ("seven.wav", "7.1.4")):
            assert main(["render-surround", str(root / src), "--input-layout", layout,
                         "--output-layout", "7.1.4", "--data-root", data,
                         "--subject", "RING", "--rate", "48000",
                         "-o", str(out / f"{layout}.wav")]) == 0
    return out


def _key(run: str, path: Path) -> str:
    # both worker counts share the digests of their encoding
    return f"{run.rsplit('-jobs', 1)[0]}/{path.name}"


def _digest(path: Path) -> dict:
    raw = path.read_bytes()
    digest = {"sha256": hashlib.sha256(raw).hexdigest()}
    if path.suffix == ".wav":
        head = wavio.parse_header(raw, str(path))
        x = wavio.read_wav(path)[1].reshape(-1)
        peak = float(np.abs(x).max())
        idx = np.linspace(0, x.size - 1, PROBES).astype(int)
        step = (float(np.spacing(np.float32(peak))) if head.bits == 32
                else 2.0 ** (1 - head.bits))
        digest.update(size=x.size, probe=x[idx].tolist(), sum=float(x.sum()),
                      sumsq=float(np.dot(x, x)), peak=peak, step=step)
    return digest


def _environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def _digests(root: Path, run: str) -> dict:
    out = _run(root, run)
    return {_key(run, p): _digest(p) for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    _write_inputs(root)
    return root


def _moved(want: dict, got: dict, same_environment: bool) -> bool:
    if same_environment:
        return want["sha256"] != got["sha256"]
    if "probe" not in want:
        return False  # a manifest's peaks are printed from FFT outputs
    n, peak = want["size"], want["peak"]
    tol = 1e-9 * peak + want["step"]
    return (got["size"] != n
            or any(abs(a - b) > tol for a, b in zip(want["probe"], got["probe"]))
            or abs(want["sum"] - got["sum"]) > n * tol
            or abs(want["sumsq"] - got["sumsq"]) > n * tol * (2 * peak + tol))


@pytest.mark.parametrize("run", RUNS)
def test_outputs_match_their_digests(inputs, recorded, run):
    got = _digests(inputs, run)
    prefix = _key(run, Path("x")).rsplit("/", 1)[0] + "/"
    want = {k: v for k, v in recorded["outputs"].items() if k.startswith(prefix)}
    assert sorted(got) == sorted(want)
    same = recorded["environment"] == _environment()
    moved = [k for k in want if _moved(want[k], got[k], same)]
    assert not moved, f"outputs moved: {moved}"


def test_the_probe_bound_catches_a_moved_sum(recorded):
    # off the recording environment, a sum moved by two encoding steps per
    # sample is a moved output
    want = next(v for v in recorded["outputs"].values() if "probe" in v)
    assert not _moved(want, want, False)
    assert _moved(want, dict(want, sum=want["sum"] + 2 * want["step"] * want["size"]), False)


def record(root: Path) -> None:
    """Record every run's digests into DIGESTS, with the environment."""
    _write_inputs(root)
    outputs = {}
    for run in RUNS:
        digests = _digests(root, run)
        assert all(outputs.setdefault(k, v) == v for k, v in digests.items()), run
    # one output a line, so a change shows which outputs moved
    lines = ",\n".join(f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                       for k, v in sorted(outputs.items()))
    DIGESTS.write_text(f'{{"environment": {json.dumps(_environment())},\n'
                       f'"outputs": {{\n{lines}\n}}}}\n')
    print(f"recorded {len(outputs)} outputs -> {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
