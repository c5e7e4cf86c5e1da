"""Segment files: the one durable format under both stores.

The behaviour store (:mod:`repro.store.disk`) and the relational engine's
table storage (:mod:`repro.db.storage`) keep their arrays the same way and
commit them the same way, and this module is that way:

* a **segment** is a file of complete npy blobs, each on a 64-byte
  boundary (:func:`write_blob`), written once and never modified;
* a file becomes visible through :func:`published` and nowhere else —
  temp file, flush, fsync, rename — segments and manifests alike, so no
  name ever points at bytes that did not reach the disk;
* writers of one directory serialize on :func:`commit_lock`;
* readers take validated zero-copy views (:func:`blob`) out of one
  read-only map per segment (:func:`map_segment`); any disagreement
  between the bytes and what the manifest recorded is a
  :class:`CorruptEntryError`, never a wrong row.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import tokenize
from pathlib import Path

import numpy as np

try:  # POSIX: real inter-process advisory locking
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

#: every npy blob starts on this boundary of its segment (np.save pads its
#: own header to the same), so mapped rows sit aligned in memory
ALIGN = 64


class CorruptEntryError(Exception):
    """Bytes on disk disagree with their manifest record (truncation, torn
    write, flipped bit)."""


@contextlib.contextmanager
def published(path: Path):
    """A temp file to write; leaving the block fsyncs it, then renames it
    to ``path`` — the one way a durable file becomes visible."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, "wb") as f:
        yield f
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


@contextlib.contextmanager
def commit_lock(root: Path):
    """Inter-process advisory lock serializing the commits of one
    directory."""
    with open(root / ".lock", "a+b") as handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def write_blob(f, parts) -> list[int]:
    """Append the arrays ``parts``, stacked along axis 0, to the segment
    being written as one aligned npy blob; returns its ``[offset, nbytes]``
    span.

    One version-1.0 header for the stacked shape, then each part's bytes
    back to back: byte for byte what ``np.save`` of their concatenation
    writes, without building it.
    """
    first = parts[0]
    if any(part.dtype != first.dtype or part.shape[1:] != first.shape[1:]
           for part in parts):
        raise ValueError("parts of one blob must agree in dtype and in "
                         "every axis but the first")
    f.write(b"\0" * (-f.tell() % ALIGN))
    start = f.tell()
    np.lib.format.write_array_header_1_0(f, {
        "descr": np.lib.format.dtype_to_descr(first.dtype),
        "fortran_order": False,
        "shape": (sum(len(part) for part in parts), *first.shape[1:])})
    for part in parts:
        part.tofile(f)
    return [start, f.tell() - start]


def map_segment(path: Path, file_bytes: int) -> mmap.mmap:
    """A read-only map of one segment file of the recorded size."""
    try:
        with open(path, "rb") as f:
            segment = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:  # missing / empty file
        raise CorruptEntryError(f"segment {path.name}: {exc}") from exc
    if len(segment) != file_bytes:  # truncated or partial write
        raise CorruptEntryError(f"segment {path.name}: {len(segment)} bytes "
                                f"on disk, manifest recorded {file_bytes}")
    return segment


def blob(segment: mmap.mmap, span, shape: tuple, dtype: np.dtype,
         what: str) -> np.ndarray:
    """The array of one npy blob of a mapped segment, as a read-only view.

    Raises :class:`CorruptEntryError` unless the span lies inside the map,
    holds exactly one version-1.0 npy blob, and that blob's header says
    ``shape`` / ``dtype`` in C order.
    """
    offset, nbytes = span
    if offset < 0 or nbytes < 0 or offset + nbytes > len(segment):
        raise CorruptEntryError(f"{what}: span {offset}+{nbytes} runs past "
                                f"the segment's {len(segment)} bytes")
    segment.seek(offset)
    try:
        if np.lib.format.read_magic(segment) != (1, 0):
            raise ValueError("not a version-1.0 npy blob")
        found = np.lib.format.read_array_header_1_0(segment)
    except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:
        # no magic, or a cut-off or unparsable header: numpy reports most
        # as ValueError, its Python-2 header fallback lets the rest through
        raise CorruptEntryError(f"{what}: {exc}") from exc
    start = segment.tell()
    if (found != (shape, False, dtype)
            or start + math.prod(shape) * dtype.itemsize != offset + nbytes):
        raise CorruptEntryError(f"{what}: header {found} disagrees with "
                                f"the manifest's {shape}/{dtype}/{nbytes} B")
    return np.frombuffer(segment, dtype=dtype, count=math.prod(shape),
                         offset=start).reshape(shape)
