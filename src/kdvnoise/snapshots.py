"""Binary ensemble persistence with an integrity-checked JSON header.

Layout: an 8-byte magic string, a little-endian uint32 header length, the
UTF-8 JSON header, then the raw complex128 payload (count x N, row-major,
little-endian). The header carries a SHA-256 of the payload so corruption
and truncation are detected on load; a NaN or infinite coefficient is refused
on save and on load. Serialization is canonical (sorted keys), so identical
ensembles produce identical files. Every output file of
the package is written through write_atomic, so a reader sees either the old
file or the complete new one.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import secrets
import struct
import sys

import numpy as np

from .invariance import Ensemble

__all__ = ["SnapshotError", "load_ensemble", "peek_header", "save_ensemble", "write_atomic"]

_MAGIC = b"KDVSNAP\x01"
_FORMAT_VERSION = 1
_ITEM = np.dtype("<c16")


class SnapshotError(Exception):
    """Raised when a snapshot file is malformed, corrupt, or unsupported."""


@contextlib.contextmanager
def write_atomic(path, mode="w", **kwargs):
    """Open a new temporary file beside path; on a clean exit it replaces path.

    A missing parent directory is created first. If the body raises, the
    temporary file is removed and path is untouched.
    """
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, mode.replace("w", "x"), **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_ensemble(ensemble, path):
    coeffs = np.ascontiguousarray(ensemble.coeffs, dtype=_ITEM)
    if not np.isfinite(coeffs).all():
        raise ValueError("ensemble coefficients must be finite")
    payload = coeffs.tobytes()
    header = {
        "format_version": _FORMAT_VERSION,
        "N": int(ensemble.N),
        "count": int(ensemble.count),
        "time": float(ensemble.time),
        "provenance": ensemble.provenance,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with write_atomic(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload)


def _read_header(fh):
    """Read and check the header of an open snapshot; fh is left at the payload."""
    start = len(_MAGIC) + 4
    prefix = fh.read(start)
    if len(prefix) < start:
        raise SnapshotError("file too short to be a snapshot")
    if prefix[: len(_MAGIC)] != _MAGIC:
        raise SnapshotError("bad magic bytes; not a snapshot file")
    (hlen,) = struct.unpack_from("<I", prefix, len(_MAGIC))
    # checked against the file size first, so a corrupt length allocates nothing
    if os.fstat(fh.fileno()).st_size < start + hlen:
        raise SnapshotError("truncated header")
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, over-long int, deep nesting
        raise SnapshotError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise SnapshotError(f"header is a JSON {type(header).__name__}, not an object")
    version = header.get("format_version")
    if type(version) is not int or version != _FORMAT_VERSION:  # true and 1.0 equal 1
        raise SnapshotError(f"unsupported format version {version!r}")
    for key, low in (("N", 1), ("count", 0)):
        value = header.get(key)
        if type(value) is not int or value < low:
            raise SnapshotError(f"header {key} must be an integer >= {low}, got {value!r}")
    if not isinstance(header.get("payload_sha256"), str):
        raise SnapshotError("header lacks the payload checksum")
    time = header.get("time")
    # an int beyond the float range compares exactly, so it is refused here too
    if type(time) not in (int, float) or not abs(time) <= sys.float_info.max:
        raise SnapshotError(f"header time must be a finite number, got {time!r}")
    if not isinstance(header.get("provenance"), dict):
        raise SnapshotError("header provenance must be a JSON object")
    return header


def peek_header(path):
    """Header dict only; the payload is neither read nor checked."""
    with open(path, "rb") as fh:
        return _read_header(fh)


def load_ensemble(path):
    with open(path, "rb") as fh:
        header = _read_header(fh)
        payload = fh.read()
    N, count = header["N"], header["count"]
    expected = N * count * _ITEM.itemsize
    if len(payload) != expected:
        raise SnapshotError(
            f"truncated payload: {len(payload)} bytes, expected {expected}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["payload_sha256"]:
        raise SnapshotError("payload checksum mismatch")
    coeffs = np.frombuffer(payload, dtype=_ITEM).reshape(count, N)
    if not np.isfinite(coeffs).all():
        raise SnapshotError("payload holds non-finite coefficients")
    return Ensemble(
        N=N,
        coeffs=coeffs.astype(np.complex128),
        time=header["time"],
        provenance=header["provenance"],
    )
