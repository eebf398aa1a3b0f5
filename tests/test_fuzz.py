"""A standing fuzz oracle over every input file the CLI reads.

Scene, grid, IR-manifest and reverb-manifest documents and WAV headers are
mutated and run through ``cli.main``. The CLI contract, not any output
value, is the oracle: no exception escapes; the exit code is 0 or 1; a
request that fails prints exactly one printable ``error:`` line naming a
file; and in ``dataset`` a bad row fails alone while the other rows render.
A scene or grid subject that would leave the data root fails, though a set
waits where it leads.
"""

import contextlib
import copy
import io
import json
import shutil
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from binauralkit.cli import main
from binauralkit.dataset import MANIFEST_COLUMNS
from binauralkit.ir_store import save_ir_set, synthesize_ir_set
from binauralkit.wavio import write_wav

_SCENE = {
    "schema": 1,
    "config": {"subject": "SYN1", "sample_rate": 48000, "ir_type": "HRIR",
               "layout": None, "mode": "auto", "reverb_type": 2,
               "keep_tail": True, "normalize": "off"},
    "tracks": [{"name": "a", "file": "src.wav", "level": 0.8, "reverb": 0.3,
                "azimuth": 30.0, "elevation": 10.0}],
}
# one job; a mutation that appends a value to one axis adds job 1 beside it
_GRID = {
    "schema": 1,
    "seed": 3,
    "axes": {"subject": ["SYN1"], "ir_type": ["HRIR"], "sample_rate": [48000],
             "layout": [None], "mode": ["auto"], "azimuth": [30.0],
             "elevation": [10.0], "level": [0.8], "reverb_amount": [0.3],
             "reverb_type": [2], "source": ["src.wav"]},
}

# stands for an absolute subject naming a set in the example's directory
_ABSOLUTE = "<example>/escaped/SYN1"
_TEXT = st.one_of(
    st.sampled_from(["src.wav", "missing.wav", "SYN1", "GHOST", "HRIR", "BRIR",
                     "7.1.4", "5.1", "auto", "three_point", "peak", "", "..", "/"]),
    st.text(st.sampled_from("ab.w/ \\é\x00\x1b\n\t\r\x7f\x85\u2028\udcff"), max_size=6),
)
_NUMBER = st.one_of(
    st.sampled_from([0, -1, 1, 2, 5, 48000, 44100, 10**30, -(10**30)]),
    st.integers(-(2**40), 2**40),
    st.floats(),
)
_VALUE = st.recursive(
    st.none() | st.booleans() | _NUMBER | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=2),
    max_leaves=4,
)
# bytes that end strings, numbers, lines and cells, or are not UTF-8
_BYTES = st.sampled_from(b'\x00\x1b\t\n\r\xff\x80"{}[],:-.0123456789eE a')


@st.composite
def _mutated_bytes(draw, data: bytes) -> bytes:
    b = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        pos = draw(st.integers(0, max(len(b) - 1, 0)))
        if how == "set" and b:
            b[pos] = draw(_BYTES)
        elif how == "insert":
            b.insert(pos, draw(_BYTES))
        elif how == "delete" and b:
            del b[pos]
        else:
            del b[pos:]
    return bytes(b)


def _paths(doc, prefix=()):
    """The key path of every value in a JSON document, the root first."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for k, v in items:
        yield from _paths(v, (*prefix, k))


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


@st.composite
def _mutated_json(draw, base) -> bytes:
    """A JSON document with values replaced, deleted or added, or its bytes
    mutated."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        how = draw(st.sampled_from(["replace", "delete", "add"]))
        if not path:
            doc = draw(_VALUE)
        elif how == "replace":
            _at(doc, path[:-1])[path[-1]] = draw(_VALUE)
        elif how == "delete":
            del _at(doc, path[:-1])[path[-1]]
        else:
            parent = _at(doc, path[:-1])
            if isinstance(parent, dict):
                parent[draw(_TEXT)] = draw(_VALUE)
            else:
                parent.append(draw(_VALUE))
        if not isinstance(doc, (dict, list)):
            break
    data = json.dumps(doc).encode("utf-8", "surrogatepass")
    return draw(_mutated_bytes(data)) if draw(st.integers(0, 3)) == 0 else data


@st.composite
def _mutated_tsv(draw, text: str) -> bytes:
    """A TSV manifest with a cell replaced, a line dropped or repeated, or
    its bytes mutated."""
    lines = text.split("\n")
    how = draw(st.sampled_from(["cell", "cell", "drop", "repeat", "bytes"]))
    i = draw(st.integers(0, len(lines) - 2))
    if how == "cell":
        cells = lines[i].split("\t")
        j = draw(st.integers(0, len(cells) - 1))
        cells[j] = draw(_TEXT | st.sampled_from(
            ["nan", "inf", "-1e400", "400", "-91", "2", "rate=44100", "schema=2",
             "ir_type=BRIR", "subject=GHOST", "rate=", "x"]))
        lines[i] = "\t".join(cells)
    elif how == "drop":
        del lines[i]
    elif how == "repeat":
        lines.insert(i, lines[i])
    data = "\n".join(lines).encode("utf-8", "surrogatepass")
    return draw(_mutated_bytes(data)) if how == "bytes" else data


@st.composite
def _mutated_wav(draw, data: bytes) -> bytes:
    """A WAV file with header bytes or fields overwritten, or cut or
    extended."""
    b = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["byte", "field", "truncate", "append"]))
        if how == "byte" and b:
            b[draw(st.integers(0, min(59, len(b) - 1)))] = draw(st.integers(0, 255))
        elif how == "field" and len(b) >= 44:
            # RIFF size; fmt size, tag, channels, rate, byte rate, block, bits;
            # and the chunk after fmt, its id and size
            pos, fmt = draw(st.sampled_from([(4, "<I"), (16, "<I"), (20, "<H"), (22, "<H"),
                                             (24, "<I"), (28, "<I"), (32, "<H"), (34, "<H"),
                                             (36, "<4s"), (40, "<I")]))
            value = draw(st.sampled_from([b"data", b"fact", b"fmt "]) if fmt == "<4s"
                         else st.sampled_from([0, 1, 2, 3, 12, 16, 24, 32, 0xFFFE, 0xFFFF,
                                               44100, 48000, 2**32 - 1]))
            struct.pack_into(fmt, b, pos, value & 0xFFFF if fmt == "<H" else value)
        elif how == "append":
            b += draw(st.binary(max_size=16))
        else:
            del b[draw(st.integers(0, len(b))):]
    return bytes(b)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A directory whose ``shared`` folder holds a 32-tap set, a reverb and
    a source WAV in pcm16 and float32, shared by every example, and IR- and
    reverb-manifest text naming them by absolute path, so that an example's
    data root holds only its two manifests."""
    root = tmp_path_factory.mktemp("fuzz")
    shared = root / "shared"
    mpath = save_ir_set(synthesize_ir_set("lebedev50", 48000, 32, seed=7), shared)
    head, *rows = mpath.read_text().splitlines()
    rows = [f"{az}\t{el}\t{mpath.parent / rel}" for az, el, rel in
            (row.split("\t") for row in rows)]
    (shared / "ir_manifest").write_text("\n".join([head, *rows]) + "\n")
    write_wav(shared / "reverb.wav", 48000, np.linspace(0.5, 0.0, 64), "float32")
    (shared / "reverb_manifest").write_text(f"2\t{shared / 'reverb.wav'}\n")
    source = 0.1 * np.random.default_rng(5).standard_normal(480)
    for encoding in ("pcm16", "float32"):
        write_wav(shared / f"{encoding}.wav", 48000, source, encoding)
    return root


@st.composite
def _cases(draw, wavs: list[bytes]):
    """(kind, files): the scene, grid and WAV files an example writes, one
    of them mutated unless ``kind`` names a manifest."""
    kind = draw(st.sampled_from(["scene", "grid", "row", "ir_manifest",
                                 "reverb_manifest", "wav", "subject"]))
    files = {"scene.json": json.dumps(_SCENE).encode(),
             "grid.json": json.dumps(_GRID).encode(),
             "src.wav": draw(st.sampled_from(wavs))}
    if kind == "scene":
        files["scene.json"] = draw(_mutated_json(_SCENE))
    elif kind == "grid":
        files["grid.json"] = draw(_mutated_json(_GRID))
    elif kind == "row":
        grid = copy.deepcopy(_GRID)
        grid["axes"][draw(st.sampled_from(sorted(grid["axes"])))].append(draw(_TEXT | _VALUE))
        files["grid.json"] = json.dumps(grid).encode("utf-8", "surrogatepass")
    elif kind == "subject":
        # a subject outside the data root, where a good set waits: the scene
        # and the grid's second row must fail rather than load it
        subject = draw(st.sampled_from(["../escaped/SYN1", _ABSOLUTE]))
        scene = copy.deepcopy(_SCENE)
        scene["config"]["subject"] = subject
        grid = copy.deepcopy(_GRID)
        grid["axes"]["subject"].append(subject)
        files.update({"scene.json": json.dumps(scene).encode(),
                      "grid.json": json.dumps(grid).encode()})
    elif kind == "wav":
        files["bad.wav"] = draw(_mutated_wav(files["src.wav"]))
        scene = copy.deepcopy(_SCENE)
        scene["tracks"][0]["file"] = "bad.wav"
        grid = copy.deepcopy(_GRID)
        grid["axes"]["source"].append("bad.wav")
        files.update({"scene.json": json.dumps(scene).encode(),
                      "grid.json": json.dumps(grid).encode()})
    return kind, files


def _with_example_dir(data: bytes, ex: Path) -> bytes:
    return data.replace(_ABSOLUTE.encode(), str(ex / "escaped" / "SYN1").encode())


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, err.getvalue()


def _check_error_line(rc, err, root):
    """Exit 1 and exactly one printable ``error:`` line naming a file."""
    assert rc == 1
    assert err.endswith("\n") and err.count("\n") == 1, err
    line = err[:-1]
    assert line.startswith("error: ") and line.isprintable(), line
    assert str(root) in line, line  # every input file lives under root


def _check_request(rc, err, root):
    assert rc in (0, 1)
    if rc == 0:
        assert err == ""
    else:
        _check_error_line(rc, err, root)


def _check_dataset(rc, err, root, out, must_render):
    """Either one error line and no manifest, or a manifest of printable
    cells with one row per job, a ``job N failed:`` line per failed row, a
    file per ok row, and every row in ``must_render`` ok."""
    assert rc in (0, 1)
    mpath = out / "manifest.tsv"
    if not mpath.exists():  # stopped before any row: one error line
        _check_error_line(rc, err, root)
        return
    text = mpath.read_text(encoding="utf-8")
    assert text.endswith("\n")
    _, columns, *rows = text[:-1].split("\n")
    assert columns.split("\t") == list(MANIFEST_COLUMNS)
    rows = [dict(zip(MANIFEST_COLUMNS, row.split("\t"))) for row in rows]
    assert all(len(row) == len(MANIFEST_COLUMNS) for row in rows)
    assert [row["index"] for row in rows] == [str(i) for i in range(len(rows))]
    assert all(cell.isprintable() for row in rows for cell in row.values())
    failed = [row for row in rows if row["status"] != "ok"]
    assert rc == (1 if failed else 0)
    assert err == "".join(f"job {row['index']} failed: {row['error']}\n" for row in failed)
    for row in rows:
        assert row["status"] in ("ok", "failed")
        assert (row["status"] == "ok") == (out / row["file"]).is_file(), row
    for i in must_render:
        assert rows[i]["status"] == "ok", rows[i]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_mutated_inputs_keep_the_cli_contract(root, data):
    shared = root / "shared"
    wavs = [(shared / f"{encoding}.wav").read_bytes() for encoding in ("pcm16", "float32")]
    kind, files = data.draw(_cases(wavs))
    for name, manifest in (("data/SYN1/HRIR/48000/manifest.tsv", "ir_manifest"),
                           ("data/reverb/manifest.tsv", "reverb_manifest")):
        text = (shared / manifest).read_text()
        files[name] = data.draw(_mutated_tsv(text)) if kind == manifest else text.encode()
    if kind == "subject":
        subject = json.loads(files["scene.json"])["config"]["subject"]
        text = (shared / "ir_manifest").read_text()
        files["escaped/SYN1/HRIR/48000/manifest.tsv"] = text.replace(
            "subject=SYN1", f"subject={subject}", 1).encode()
    ex = Path(tempfile.mkdtemp(dir=root))
    try:
        for name, content in files.items():
            (ex / name).parent.mkdir(parents=True, exist_ok=True)
            (ex / name).write_bytes(_with_example_dir(content, ex))
        data_root = ["--data-root", str(ex / "data")]
        if kind not in ("grid", "row"):
            rc, err = _run(["mix", str(ex / "scene.json"), *data_root,
                            "-o", str(ex / "out.wav")])
            _check_request(rc, err, root)
            if kind == "subject":
                assert rc == 1 and "must be a relative path with no '..' component" in err
        if kind == "ir_manifest":
            rc, err = _run(["triangulate", "--subject", "SYN1", "--az", "30", "--el", "10",
                            *data_root])
            _check_request(rc, err, root)
        if kind != "scene":
            rc, err = _run(["dataset", str(ex / "grid.json"), *data_root,
                            "--out", str(ex / "ds")])
            # job 0 takes only the base grid's values and a good source
            _check_dataset(rc, err, root, ex / "ds",
                           [0] if kind in ("row", "wav", "subject") else [])
            if kind == "subject":
                assert rc == 1 and err.startswith("job 1 failed: ")
    finally:
        shutil.rmtree(ex)
