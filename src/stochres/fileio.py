"""The one writer for every file stochres writes.

Each file goes to a dot-prefixed temp file next to its destination and is
renamed into place with ``os.replace``, so the destination never holds a
partial file. Text uses one float format and one JSON format; a raw array
is written as row-major bytes, then a JSON sidecar at ``<path>.json``.
This is a leaf module (it imports only ``errors`` from stochres), so
``reservoir`` and ``signals`` can use it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import IOFailure


def write_atomic(path, data) -> None:
    """Write ``data`` (text, or bytes or any C-contiguous buffer) to ``path``.

    On failure raises :class:`IOFailure`, and ``path`` keeps what it held;
    the temp file never outlives the call.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if isinstance(data, str):
            tmp.write_text(data)
        else:
            tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise IOFailure(str(exc)) from exc
    finally:
        tmp.unlink(missing_ok=True)


def format_float(x) -> str:
    """17 significant digits: enough to round-trip any float64 exactly."""
    return f"{float(x):.17g}"


def csv_text(header, rows) -> str:
    """Comma-separated lines, floats through :func:`format_float`, other
    cells through ``str``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            format_float(c) if isinstance(c, (float, np.floating)) else str(c) for c in row
        ))
    return "\n".join(lines) + "\n"


def json_default(obj):
    """Serialize numpy scalars and arrays as their Python equivalents."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1, default=json_default) + "\n"


def _sidecar_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".json")


def write_raw(path, array, dtype: str, sidecar: dict) -> None:
    """Write ``array`` as row-major ``dtype`` values, then its sidecar."""
    path = Path(path)
    write_atomic(path, np.ascontiguousarray(array, dtype=dtype))
    write_atomic(_sidecar_path(path), json_text(sidecar))


def read_raw(path, dtype: str, shape_keys) -> tuple:
    """Read a :func:`write_raw` file as ``(array, sidecar)``.

    The array's shape is the sidecar's values at ``shape_keys``; a data
    file of any other size raises :class:`IOFailure`.
    """
    path = Path(path)
    sidecar = json.loads(_sidecar_path(path).read_text())
    shape = tuple(int(sidecar[k]) for k in shape_keys)
    want = int(np.prod(shape)) * np.dtype(dtype).itemsize
    size = path.stat().st_size
    if size != want:
        raise IOFailure(f"{path} holds {size} bytes; its sidecar's shape {shape} "
                        f"of {dtype} needs {want}")
    return np.fromfile(path, dtype=dtype).reshape(shape), sidecar
