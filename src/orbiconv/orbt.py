"""ORBT tensor file format.

Layout: magic "ORBT", u8 dtype code, u8 rank, rank x u32 little-endian
extents, then the row-major payload in little-endian byte order.
"""

from __future__ import annotations

import math
import struct

import numpy as np

_MAGIC = b"ORBT"
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i8")}
_CODE_FOR = {np.dtype("float32"): 0, np.dtype("float64"): 1,
             np.dtype("int64"): 2}


class OrbtFormatError(ValueError):
    pass


def save_tensor(path: str, arr: np.ndarray) -> None:
    a = np.ascontiguousarray(arr)
    if a.dtype not in _CODE_FOR:
        raise OrbtFormatError(f"unsupported dtype {a.dtype}")
    code = _CODE_FOR[a.dtype]
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<BB", code, a.ndim))
        f.write(struct.pack(f"<{a.ndim}I", *a.shape))
        f.write(a.astype(a.dtype.newbyteorder("<")).tobytes())


def _read_exact(f, n: int, path: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise OrbtFormatError(f"{path}: truncated header")
    return data


def load_tensor(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise OrbtFormatError(f"{path}: bad magic {magic!r}")
        code, rank = struct.unpack("<BB", _read_exact(f, 2, path))
        if code not in _DTYPE_CODES:
            raise OrbtFormatError(f"{path}: unknown dtype code {code}")
        dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, path))
        dtype = _DTYPE_CODES[code]
        n = math.prod(dims)
        payload = f.read()
    if len(payload) != n * dtype.itemsize:
        raise OrbtFormatError(f"{path}: truncated payload")
    try:  # numpy caps the rank, and the extents of an empty array
        return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    except ValueError as e:
        raise OrbtFormatError(f"{path}: shape {dims}: {e}") from None
