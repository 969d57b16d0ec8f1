"""The file-level rules that graph caches and checkpoints share through ``errors.read_columns``, each tested once
over both formats: the magic line, the first line of the text version, a file whose columns do not fill it
exactly, and a header that claims 10^12 values."""

import math
import time
import tracemalloc
from typing import Callable, NamedTuple

import numpy as np
import pytest

from canids.checkpoint import MAGIC, load_checkpoint
from canids.errors import ParseError
from canids.graphs import CACHE_MAGIC, WindowGraph, load_graph_cache, save_graph_cache
from helpers import checkpoint_bytes, edited_cache


class Format(NamedTuple):
    load: Callable
    magic: bytes
    name: str  # what the error of a file with another first line says it is not
    text: str  # the first line of the format's text version
    text_error: str
    small: Callable  # (path) -> the bytes of a small file of the format, written there
    header: int  # the bytes of the small file before its columns
    fill_error: Callable  # (size) -> the error of the small file's header on a file of size bytes


def small_cache(path) -> bytes:
    save_graph_cache([WindowGraph([7, 9], np.full((2, 3), 0.5), np.array([0, 1]), np.array([1, 1]),
                                  np.array([1.0, 2.0]), 1, 0)], path)
    return path.read_bytes()


def small_checkpoint(path) -> bytes:
    path.write_bytes(checkpoint_bytes('demo {"a": 1}', [["w", [2, 2]], ["b", [3]]], [0.5, -1.0, 2.0, 0.25, 0.0, 1e-300,
                                                                                    -7.0]))
    return path.read_bytes()


CHECKPOINT_HEADER = len(MAGIC + b'model demo {"a": 1}\nparams [["w", [2, 2]], ["b", [3]]]\n')
FORMATS = {
    "cache": Format(
        load_graph_cache, CACHE_MAGIC, "graph cache", "canids-graph-cache v1",
        "a text graph cache (canids-graph-cache v1); rebuild it with build-graphs", small_cache,
        len(CACHE_MAGIC) + 24, lambda size: f"1 windows, 2 nodes and 2 edges do not fill the cache's {size} bytes",
    ),
    "checkpoint": Format(
        load_checkpoint, MAGIC, "canids checkpoint", "canids-checkpoint v1",
        "a text checkpoint (canids-checkpoint v1); retrain it", small_checkpoint, CHECKPOINT_HEADER,
        lambda size: f"2 params of 7 values do not fill the checkpoint's {size - CHECKPOINT_HEADER} bytes after "
                     "its header",
    ),
}


def error_of(fmt: Format, path) -> str:
    with pytest.raises(ParseError) as err:
        fmt.load(path)
    assert err.value.line is None  # file-level errors name no line
    return str(err.value)


@pytest.mark.parametrize(
    "text, shown",
    [
        (lambda fmt, rest: b"", lambda fmt: "''"),
        (lambda fmt, rest: fmt.magic.replace(b"v2", b"v3") + rest,
         lambda fmt: repr(fmt.magic.decode().replace("v2", "v3")[:-1])),
        (lambda fmt, rest: fmt.magic.replace(b" v2", b"\xe9 v2") + rest,
         lambda fmt: repr(fmt.magic.decode()[:-4] + "\\xe9 v2")),
        (lambda fmt, rest: b"\xff\xfe\x00\x01", lambda fmt: "'\\\\xff\\\\xfe\\x00\\x01'"),
        (lambda fmt, rest: b"h" * 5000, lambda fmt: f"{'h' * 64!r}... (5000 characters)"),
        (lambda fmt, rest: fmt.text.encode() + b"\ngraph 0 0 0 0\n", None),
        (lambda fmt, rest: fmt.text.encode() + b"\r\n", None),
    ],
    ids=["empty", "v3", "non-ascii", "binary", "long", "v1-text", "v1-text-crlf"],
)
@pytest.mark.parametrize("name", list(FORMATS))
def test_other_first_lines_are_refused(tmp_path, name, text, shown):
    """A file that does not start with the magic line is refused by what it is not, quoting its first line,
    or as the format's text version, whatever follows that line."""
    fmt, p = FORMATS[name], tmp_path / "file"
    p.write_bytes(text(fmt, fmt.small(p)[len(fmt.magic) :]))
    want = fmt.text_error if shown is None else f"not a {fmt.name} (header {shown(fmt)})"
    assert error_of(fmt, p) == f"{p}: {want}"


@pytest.mark.parametrize("name", list(FORMATS))
def test_the_columns_must_fill_the_file_exactly(tmp_path, name):
    """A byte or a value more or less than the header's columns need, or none of them, is refused before any
    column is made."""
    fmt, p = FORMATS[name], tmp_path / "file"
    data = fmt.small(p)
    for cut in (data[:-1], data + b"\0", data[:-8], data + bytes(8), data[: fmt.header]):
        p.write_bytes(cut)
        assert error_of(fmt, p) == f"{p}: {fmt.fill_error(len(cut))}"


def huge_cache(data):
    """The small cache with a header that claims 10^12 windows, and its error."""
    return (edited_cache(data, [("counts", 0, 10**12)]),
            f"{10**12} windows, 2 nodes and 2 edges do not fill the cache's {len(data)} bytes")


def huge_checkpoint(shape):
    """A checkpoint of 3 values whose header claims a param of ``shape`` too, and its error."""
    return lambda data: (checkpoint_bytes("demo {}", [["b", [3]], ["w", shape]], [1.0, 2.0, 3.0]),
                         f"2 params of {3 + math.prod(shape)} values do not fill the checkpoint's 24 bytes after its "
                         "header")


@pytest.mark.parametrize(
    "name, huge",
    [("cache", huge_cache), ("checkpoint", huge_checkpoint([10**6, 10**6])), ("checkpoint", huge_checkpoint([10**12]))],
    ids=["cache", "checkpoint-10^6-by-10^6", "checkpoint-10^12"],
)
def test_a_header_claiming_a_trillion_values_is_refused_at_once(tmp_path, name, huge):
    fmt, p = FORMATS[name], tmp_path / "file"
    data, want = huge(fmt.small(p))
    p.write_bytes(data)
    seconds = []
    for _ in range(3):
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            error = error_of(fmt, p)
            seconds.append(time.perf_counter() - t0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert error == f"{p}: {want}" and peak < 100_000, (error, peak)
    assert min(seconds) < 0.010, seconds
