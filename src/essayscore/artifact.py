"""The one binary container of embedding (``.sswe``) and model (``.sats``) files.

A 4-byte magic, a u32 version, little-endian ``struct`` header fields,
then text (u32 byte count, UTF-8) and tensor (little-endian f64, C or
Fortran order) fields, and nothing after them. Every size is checked
against the bytes left before anything of that size is allocated; each
fault in a file is a :class:`ModelFormatError` (exit 2) naming its kind.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, ModelFormatError

_F8 = np.dtype("<f8")


class Reader:
    """Reads the fields of one container file, checking each one."""

    def __init__(self, fh, path, kind: str):
        self._fh, self.path, self.kind = fh, path, kind
        # a pipe or other non-regular file reports size 0: truncated
        self._left = os.fstat(fh.fileno()).st_size

    def error(self, what: str) -> ModelFormatError:
        return ModelFormatError(f"{self.kind} {self.path}: {what}")

    def require(self, nbytes: int):
        """Fail unless ``nbytes`` are left; call before allocating them."""
        if nbytes > self._left:
            raise self.error("truncated")

    def _take(self, nbytes: int) -> bytes:
        self.require(nbytes)
        raw = self._fh.read(nbytes)
        if len(raw) != nbytes:
            raise self.error("truncated")
        self._left -= nbytes
        return raw

    def header(self, fmt: str) -> tuple:
        """Unpack little-endian ``struct`` fields, e.g. ``header("4I")``."""
        return struct.unpack("<" + fmt, self._take(struct.calcsize("<" + fmt)))

    def text(self) -> str:
        (nbytes,) = self.header("I")
        try:
            return self._take(nbytes).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error("text field is not UTF-8") from exc

    def tensor(self, shape, order: str = "C") -> np.ndarray:
        """A new array read straight from the file, with no copy."""
        count = math.prod(shape)
        self.require(8 * count)
        flat = np.empty(count, dtype=_F8)
        if self._fh.readinto(flat) != flat.nbytes:
            raise self.error("truncated")
        self._left -= flat.nbytes
        return flat.reshape(shape, order=order)

    def validate(self, cfg):
        """Validate the settings a header describes, as a ``Config``."""
        try:
            cfg.validate()
        except ConfigError as exc:
            raise self.error(f"corrupt architecture descriptor: {exc}") from exc

    def finish(self):
        """Reject trailing bytes; :func:`reading` calls this at the end."""
        if self._fh.read(1):
            raise self.error("trailing bytes")


class Writer:
    """Writes the fields of one container file."""

    def __init__(self, fh):
        self._fh = fh

    def header(self, fmt: str, *values):
        self._fh.write(struct.pack("<" + fmt, *values))

    def text(self, value: str):
        self.texts((value,))

    def texts(self, values):
        """Text fields one after another, written in one call."""
        pack = struct.Struct("<I").pack
        raws = (value.encode("utf-8") for value in values)
        self._fh.write(b"".join(pack(len(raw)) + raw for raw in raws))

    def tensor(self, arr, order: str = "C"):
        # F order is arr.T in C order, written from its own memory
        arr = np.asarray(arr, dtype=_F8)
        self._fh.write(np.ascontiguousarray(arr.T if order == "F" else arr))


@contextmanager
def reading(path, magic: bytes, version: int, kind: str):
    """Open a container, check its magic and version, yield a :class:`Reader`."""
    with open(path, "rb") as fh:
        inp = Reader(fh, path, kind)
        found, found_version = inp.header("4sI")
        if found != magic:
            raise inp.error(f"wrong magic {found!r}")
        if found_version != version:
            raise inp.error(f"unsupported format version {found_version}")
        yield inp
        inp.finish()


@contextmanager
def writing(path, magic: bytes, version: int):
    """Create a container with its magic and version, yield a :class:`Writer`."""
    with open(path, "wb") as fh:
        out = Writer(fh)
        out.header("4sI", magic, version)
        yield out
