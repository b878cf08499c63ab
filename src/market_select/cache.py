"""The content-addressed cache of values computed from files alone.

``pool.load_pool`` keeps each pool file's checked columns here, and
``signals.rarity_knn`` each pool's kNN rarity column, so that a later
command with the same inputs reads the value back. This is the only
module that knows the cache's directory, its cap, how an entry is named
and what an entry file holds. An entry is named by the sha256 of its
inputs (``entry``), with a suffix per kind. It is an uncompressed
``.npz`` archive, as ``np.savez`` writes it, whose members each carry a
CRC32. ``read`` and ``write`` are its one reader and one writer. A
missing, damaged or refused entry is a miss, and deleting the directory,
or any file in it, is always safe.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
import zipfile
from collections.abc import Callable
from pathlib import Path
from typing import TypeVar

import numpy as np

CACHE_CAP = 1 << 30  # bytes the cache directory may hold
POOL = ".npz"  # the suffix of a pool's entry
COLUMN = ".column"  # the suffix of a column derived from a pool

T = TypeVar("T")


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/market-select/pools``, or ``~/.cache/...`` when that variable is
    unset or relative (as the XDG spec says); OSError when there is no home directory."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        try:
            base = Path.home() / ".cache"
        except RuntimeError as exc:  # no home directory
            raise OSError("no home directory") from exc
    return Path(base) / "market-select" / "pools"


def entry(suffix: str, *parts: bytes | Path) -> Path | None:
    """The cache file of a value computed from ``parts`` alone: the sha256 of the parts,
    each followed by its length, and ``suffix``. A ``Path`` part stands for the file's
    bytes. None when a file cannot be read or there is no home directory."""
    import hashlib  # on first use: importing the CLI does not load it

    digest, chunk = hashlib.sha256(), bytearray(1 << 16)
    try:
        for part in parts:
            if isinstance(part, Path):
                size = 0
                with part.open("rb", buffering=0) as fh:
                    while got := fh.readinto(chunk):
                        digest.update(memoryview(chunk)[:got])
                        size += got
            else:
                size = len(part)
                digest.update(part)
            digest.update(size.to_bytes(8, "little"))
        return _cache_dir() / f"{digest.hexdigest()}{suffix}"
    except OSError:
        return None


def read(entry: Path, decode: Callable[[dict[str, np.ndarray]], T]) -> T | None:
    """``decode`` of the arrays in ``entry``, by name; None, a miss, when the
    entry is missing or damaged (its archive, a header or data), or ``decode`` raises."""
    try:
        with open(entry, "rb") as fh, zipfile.ZipFile(fh) as archive:
            arrays = {info.filename.removesuffix(".npy"): _member(archive, info)
                      for info in archive.infolist()}
        value = decode(arrays)
    except Exception:  # an entry is untrusted input: whatever fails in it is a miss
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)  # a hit keeps the entry from eviction longest
    return value


def _member(archive: zipfile.ZipFile, info: zipfile.ZipInfo) -> np.ndarray:
    """One ``.npy`` member's array, read once its header agrees with the member's
    size, so that a damaged header cannot make the read allocate what it claims;
    reading to the end checks the CRC32."""
    with archive.open(info) as member:
        if np.lib.format.read_magic(member) != (1, 0):  # np.savez's version
            raise ValueError("not a version 1.0 array")
        shape, _, dtype = np.lib.format.read_array_header_1_0(member)
        if math.prod(shape) * dtype.itemsize != info.file_size - member.tell():
            raise ValueError("the header does not match the member's size")
        member.seek(0)
        return np.lib.format.read_array(member, allow_pickle=False)


def write(entry: Path, arrays: dict[str, np.ndarray]) -> None:
    """Cache ``arrays`` in ``entry`` and evict the oldest files past ``CACHE_CAP``
    bytes. Nothing is stored when the arrays alone exceed the cap, or on an OSError."""
    if sum(a.nbytes for a in arrays.values()) > CACHE_CAP:
        return
    try:
        entry.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)
        try:
            with open(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, entry)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        _evict(entry.parent)
    except OSError:
        pass


def _evict(directory: Path) -> None:
    """Remove the files of ``directory``, oldest mtime first, until they hold ``CACHE_CAP``."""
    files = []
    with os.scandir(directory) as scan:
        for item in scan:
            if item.is_file(follow_symlinks=False):
                with contextlib.suppress(FileNotFoundError):  # another process removed it
                    st = item.stat(follow_symlinks=False)
                    files.append((st.st_mtime_ns, item.path, st.st_size))
    total = sum(size for _, _, size in files)
    for _, name, size in sorted(files):
        if total <= CACHE_CAP:
            break
        Path(name).unlink(missing_ok=True)  # another process may have removed it
        total -= size
