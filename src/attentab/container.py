"""Binary container files: a magic string, a JSON header, and float64 blobs.

Layout (all integers little-endian):

    bytes 0..4    magic, 5 ASCII bytes ("ATTB1" for models, "ATTD1" for
                  encoded datasets)
    bytes 5..12   uint64 header length in bytes
    header        UTF-8 JSON; carries an ``arrays`` manifest of
                  ``{"name": ..., "shape": [...]}`` entries plus any
                  format-specific fields
    blobs         one little-endian float64 buffer per manifest entry,
                  row-major, concatenated in manifest order

Writes are atomic (temp file in the target directory, then rename), so a
crashed run never leaves a parseable but truncated file behind.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from contextlib import contextmanager

import numpy as np

from .errors import AttentabError, PersistenceError

MODEL_MAGIC = b"ATTB1"
DATASET_MAGIC = b"ATTD1"

_LEN_FMT = "<Q"


def _umask() -> int:
    # the umask can only be read by setting it, so put it straight back
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write bytes to ``path`` via a temp file + rename in the same directory.

    The file gets the mode a plain ``open`` would give it (0666 less the
    umask), not the owner-only mode of the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def encode_container(magic: bytes, header: dict, arrays: list[tuple[str, np.ndarray]]) -> bytes:
    """Serialize header + named arrays into container bytes.

    The manifest is derived from ``arrays`` and stored under the header key
    ``arrays``; blob order follows the list order exactly.
    """
    if len(magic) != 5:
        raise PersistenceError(f"magic must be 5 bytes, got {magic!r}")
    manifest = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays]
    full_header = dict(header)
    full_header["arrays"] = manifest
    header_bytes = json.dumps(full_header, sort_keys=True).encode("utf-8")
    parts = [magic, struct.pack(_LEN_FMT, len(header_bytes)), header_bytes]
    for _, arr in arrays:
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(parts)


def write_container(path: str, magic: bytes, header: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    atomic_write_bytes(path, encode_container(magic, header, arrays))


def _manifest_entry(path: str, entry) -> tuple[str, tuple[int, ...]]:
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise PersistenceError(f"{path}: manifest entry {entry!r} has no string name")
    name, shape = entry["name"], entry.get("shape")
    if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
        raise PersistenceError(f"{path}: array {name!r} has a malformed shape {shape!r}")
    return name, tuple(shape)


@contextmanager
def decoding(path: str):
    """Report a missing or mistyped header field or array met while building
    objects from a container's contents as a PersistenceError naming ``path``."""
    try:
        yield
    except (AttentabError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(
            f"{path}: missing or mistyped header field or array: {type(exc).__name__}: {exc}"
        ) from exc


def read_container(path: str, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container, returning (header, arrays by name).

    Raises PersistenceError on a wrong magic string, truncation, a
    malformed manifest (an entry without a string name or a list of
    non-negative integer dims, or a repeated name), or a blob section whose
    size disagrees with the manifest.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise PersistenceError(f"cannot read container {path}: {exc}") from exc

    if len(blob) < 13:
        raise PersistenceError(f"{path}: truncated container (only {len(blob)} bytes)")
    if blob[:5] != magic:
        raise PersistenceError(
            f"{path}: bad magic {blob[:5]!r}, expected {magic.decode('ascii')!r}"
        )
    (header_len,) = struct.unpack(_LEN_FMT, blob[5:13])
    header_end = 13 + header_len
    if len(blob) < header_end:
        raise PersistenceError(f"{path}: truncated header")
    try:
        header = json.loads(blob[13:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"{path}: corrupt header: {exc}") from exc

    manifest = header.get("arrays", []) if isinstance(header, dict) else None
    if not isinstance(manifest, list):
        raise PersistenceError(f"{path}: corrupt header: no array manifest")

    arrays: dict[str, np.ndarray] = {}
    offset = header_end
    for entry in manifest:
        name, shape = _manifest_entry(path, entry)
        if name in arrays:
            raise PersistenceError(f"{path}: array {name!r} listed twice")
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise PersistenceError(f"{path}: truncated blob for array {name!r}")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape)
        arrays[name] = arr.astype(np.float64)
        offset += nbytes
    if offset != len(blob):
        raise PersistenceError(f"{path}: {len(blob) - offset} trailing bytes after blobs")
    return header, arrays
