"""Segment directories: the one durable format and protocol of both stores.

The behaviour store (:mod:`repro.store.disk`) and the relational engine's
table storage (:mod:`repro.db.storage`) keep their arrays the same way and
commit them the same way, and this module is that way:

* a **segment** is a file of complete npy blobs, each on a 64-byte
  boundary (:func:`write_blob`), written once and never modified;
* a file becomes visible through :func:`published` and nowhere else —
  temp file, flush, fsync, rename — segments and manifests alike, so no
  name ever points at bytes that did not reach the disk;
* a commit (:meth:`SegmentDirectory.locked`) takes the directory's lock,
  re-reads the manifest there — so another handle's commits are never
  lost — publishes its segment, then the manifest: the single commit
  point, after which the segments the manifest stopped naming go.  A
  crash leaves the previous manifest and every byte it names, plus at
  most an orphan segment a later sweep removes;
* readers take validated zero-copy views (:func:`blob`) out of one
  read-only map per segment; any disagreement between the bytes and what
  the manifest recorded is a :class:`CorruptEntryError`, never a wrong row.

A store keeps its catalog and one policy: a manifest this build does not
read (:class:`ManifestError`, on every read and commit) is refused by the
table store and read as empty by the behaviour store, a cache.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import mmap
import os
import threading
import tokenize
import zlib
from pathlib import Path

import numpy as np

try:  # POSIX: real inter-process advisory locking
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

#: every npy blob starts on this boundary of its segment (np.save pads its
#: own header to the same), so mapped rows sit aligned in memory
ALIGN = 64

MANIFEST = "manifest.json"

#: numpy parses an npy header's dict with ``ast.literal_eval``, and
#: CPython 3.11's AST constructor is not thread-safe (concurrent parses
#: can raise a spurious ``SystemError``): readers parse one at a time
_HEADER_LOCK = threading.Lock()


class CorruptEntryError(Exception):
    """Bytes on disk disagree with their manifest record (truncation, torn
    write, flipped bit)."""


class ManifestError(ValueError):
    """A manifest this build does not read: one it cannot parse
    (``version`` None) or one of another ``version``."""

    def __init__(self, message: str, version=None):
        super().__init__(message)
        self.version = version


@contextlib.contextmanager
def published(path: Path):
    """A temp file to write; leaving the block fsyncs it, then renames it
    to ``path`` — the one way a durable file becomes visible.  A block or
    rename that raises unlinks the temp file: nothing is left to sweep."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:  # renamed away unless the block or the rename raised
        with contextlib.suppress(OSError):
            os.unlink(tmp)


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
    holds exactly one version-1.0 npy blob, that blob's header says
    ``shape`` / ``dtype`` in C order and, when the span carries a digest
    (``[offset, nbytes, crc32]``), the payload's crc32 is that digest.
    """
    offset, nbytes, *digest = span
    if offset < 0 or nbytes < 0 or offset + nbytes > len(segment):
        raise CorruptEntryError(f"{what}: span {offset}+{nbytes} runs past "
                                f"the segment's {len(segment)} bytes")
    # parse the header out of a copy of its bytes, never through the map's
    # file position: every thread reading this map shares that position.
    # A version-1.0 header is 8 bytes of magic, a 2-byte length, the dict
    size = 10 + int.from_bytes(segment[offset + 8:offset + 10], "little")
    head = io.BytesIO(segment[offset:offset + min(size, nbytes)])
    try:
        with _HEADER_LOCK:
            if np.lib.format.read_magic(head) != (1, 0):
                raise ValueError("not a version-1.0 npy blob")
            found = np.lib.format.read_array_header_1_0(head)
    except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:
        # no magic, or a cut-off or unparsable header: numpy reports most
        # as ValueError, its Python-2 header fallback lets the rest through
        raise CorruptEntryError(f"{what}: {exc}") from exc
    start = offset + head.tell()
    if (found != (shape, False, dtype)
            or start + math.prod(shape) * dtype.itemsize != offset + nbytes):
        raise CorruptEntryError(f"{what}: header {found} disagrees with "
                                f"the manifest's {shape}/{dtype}/{nbytes} B")
    array = np.frombuffer(segment, dtype=dtype, count=math.prod(shape),
                          offset=start).reshape(shape)
    if digest and zlib.crc32(array) != digest[0]:
        raise CorruptEntryError(f"{what}: checksum mismatch")
    return array


class SegmentDirectory:
    """``manifest.json`` (``version``, ``seq`` and a ``catalog``) beside
    ``<seq>-<pid>.seg`` segments in ``segments`` (a subdirectory of
    ``root``, or the root itself); ``live(manifest)`` names the segments a
    manifest holds.  Readers :meth:`refresh`; a commit is one
    :meth:`locked` block."""

    def __init__(self, root, version: int, catalog: str, live,
                 segments: str = ""):
        self.root = Path(root)
        self.segments = self.root / segments
        self.segments.mkdir(parents=True, exist_ok=True)
        self.version, self.catalog, self.live = version, catalog, live
        #: the manifest as this handle last read or published it
        self.manifest: dict | None = None
        # its stat signature, and the bytes load() last read
        self._sig = self._read = None
        self.commits = 0   # manifests this handle published
        # segment name -> the one read-only map its views come out of
        self._maps: dict[str, mmap.mmap] = {}

    def empty(self) -> dict:
        return {"version": self.version, "seq": 0, self.catalog: {}}

    def stat(self) -> tuple | None:
        """The manifest's ``(mtime, size, inode)``; None when absent."""
        try:
            st = os.stat(self.root / MANIFEST)
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size, st.st_ino)

    def load(self) -> dict:
        """The committed manifest, an empty one when there is none yet;
        :class:`ManifestError` when unparsable or of another version."""
        path = self.root / MANIFEST
        self._read = None
        try:
            self._read = path.read_bytes()
            manifest = json.loads(self._read)
            version = manifest["version"]
        except FileNotFoundError:
            return self.empty()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ManifestError(f"unreadable manifest at {path}: "
                                f"{exc}") from exc
        if version != self.version:
            raise ManifestError(
                f"unsupported manifest version {version!r} at {path}: this "
                f"build reads version {self.version} and does not migrate "
                f"other formats", version)
        return manifest

    def refresh(self) -> bool:
        """Re-read :attr:`manifest` if the file changed (one ``stat``);
        whether it did.  A manifest :meth:`load` refuses raises."""
        sig = self.stat()
        if self.manifest is not None and sig == self._sig:
            return False
        self.manifest, self._sig = self.load(), sig
        return True

    @contextlib.contextmanager
    def locked(self):
        """A commit: under the inter-process lock serializing commits,
        yield the manifest re-read there, the authority for all the commit
        does not change.  A clean exit publishes it if it changed, then
        unlinks the segments it stopped naming; a refused manifest raises
        first.  (Unlocked explicitly: a forked child may share the fd.)"""
        with open(self.root / ".lock", "a+b") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                sig, manifest = self.stat(), self.load()
                read = self._read or json.dumps(self.empty()).encode()
                named = set(self.live(manifest))
                # () matches no stat: if the commit raises, refresh re-reads
                self.manifest, self._sig = manifest, ()
                yield manifest
                data = json.dumps(manifest).encode()
                if data != read:
                    with published(self.root / MANIFEST) as f:
                        f.write(data)
                    sig = self.stat()
                    self.commits += 1
                    self.sweep(named)
                self._sig = sig
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    @contextlib.contextmanager
    def new_segment(self):
        """Yield the name and file of a new segment, published on a clean
        exit (lock held).  Named by the flock-serialized ``seq``: unique
        for the directory's whole history, where a pid alone recycles and
        publishing could clobber a committed segment."""
        self.manifest["seq"] += 1
        name = f"{self.manifest['seq']}-{os.getpid()}.seg"
        with published(self.segments / name) as f:
            yield name, f

    def mapped(self, name: str, file_bytes: int) -> mmap.mmap:
        """The one map of segment ``name`` of the recorded size."""
        segment = self._maps.get(name)
        if segment is None or len(segment) != file_bytes:
            segment = self._maps[name] = map_segment(self.segments / name,
                                                     file_bytes)
        return segment

    def prune(self, live) -> None:
        """Drop the maps of segments not in ``live`` — not close them:
        ``mmap.close()`` raises while a view is exported, and a view handed
        out earlier goes on serving until the OS reclaims its map."""
        for name in [name for name in self._maps if name not in live]:
            del self._maps[name]

    def sweep(self, names=None) -> int:
        """Unlink the segments among ``names`` the manifest does not name
        and drop their maps; how many went.  By default ``names`` is every
        file on disk (lock held: no commit's segment is in flight), crash
        orphans included — all of a subdirectory, ``*.seg*`` at the root."""
        live = self.live(self.manifest)
        if names is None:
            names = [path.name for path in self.segments.glob(
                "*" if self.segments != self.root else "*.seg*")]
        gone = 0
        for name in names:
            if name not in live:
                self._maps.pop(name, None)
                with contextlib.suppress(OSError):
                    os.unlink(self.segments / name)
                    gone += 1
        return gone
