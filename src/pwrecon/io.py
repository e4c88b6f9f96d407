"""Container file format and optional PICMUS dataset ingestion.

Container layout (all integers little-endian):

    magic "USJD" | version u16 | kind_len u8 | kind ascii
    | meta_len u32 | metadata JSON (utf-8)
    | one section per payload array of the kind (see PAYLOADS):
      count u64 | count values of the array's dtype

The metadata JSON carries dims and the geometry dataclasses as dicts
(``dataclasses.asdict``), enough to rebuild the typed object; ``_KINDS``
describes each kind once. A system matrix is the "matrix" kind: its CSR
arrays plus its sample count and a geometry fingerprint that is re-derived
and checked on every read, and dims that must be the geometry's: samples
times elements rows, one column per pixel. A reader may name the kind it
expects and refuses any other. Writes are atomic (write to a temp file of
its own per writing process and thread, then rename).
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import threading
from dataclasses import asdict

import numpy as np
import scipy.sparse as sp

from .acquisition import (
    TARGET_KINDS,
    ChannelData,
    ImagingGrid,
    Phantom,
    PlaneWaveTx,
    ProbeGeometry,
)
from .beamform import RfImage
from .forward_model import ApodizationSpec, SparseSystemMatrix, geometry_fingerprint
from .psf import Psf

__all__ = [
    "ContainerError",
    "BadMagicError",
    "VersionMismatchError",
    "TruncatedFileError",
    "StructureError",
    "write_container",
    "read_container",
    "ingest_picmus",
    "CONTAINER_MAGIC",
    "CONTAINER_VERSION",
]

CONTAINER_MAGIC = b"USJD"
CONTAINER_VERSION = 1

# kind -> (class, payload attribute, payload dtypes in file order,
# {metadata attribute: rebuilder}); a rebuilder is a dataclass stored as a
# dict or a tag -> dataclass table for a list of tagged dataclasses. A reader
# ignores metadata its kind does not list. A float kind's one payload is the
# attribute's array; a matrix's three are its CSR row pointers, column
# indices and weights.
_KINDS = {
    "channel": (ChannelData, "samples", ("<f4",), {"probe": ProbeGeometry, "tx": PlaneWaveTx}),
    "rfimage": (RfImage, "data", ("<f4",), {"grid": ImagingGrid}),
    "psf": (Psf, "kernel", ("<f4",), {}),
    "phantom": (Phantom, "trf", ("<f4",), {"grid": ImagingGrid, "annotations": TARGET_KINDS}),
    "matrix": (SparseSystemMatrix, "matrix", ("<i8", "<i4", "<f8"), {
        "probe": ProbeGeometry, "grid": ImagingGrid, "tx": PlaneWaveTx,
        "apodization": ApodizationSpec,
    }),
}

# kind -> dtypes of its payload arrays, in file order
PAYLOADS = {kind: dtypes for kind, (_, _, dtypes, _) in _KINDS.items()}


class ContainerError(ValueError):
    """Base error for malformed container files."""


class BadMagicError(ContainerError):
    pass


class VersionMismatchError(ContainerError):
    pass


class TruncatedFileError(ContainerError):
    pass


class StructureError(ContainerError):
    pass


def _to_meta(value, rebuild):
    if isinstance(rebuild, dict):  # list of tagged dataclasses
        tags = {cls: tag for tag, cls in rebuild.items()}
        return [{"type": tags[type(v)], **asdict(v)} for v in value]
    return asdict(value)


def _from_meta(value, rebuild):
    if isinstance(rebuild, dict):  # list of tagged dataclasses
        return [_from_meta(d, rebuild[d.pop("type")]) for d in map(dict, value)]
    return rebuild(**value)


def _encode(obj):
    """Return (kind, metadata dict, payload arrays) for a supported object."""
    for kind, (cls, attr, _, fields) in _KINDS.items():
        if isinstance(obj, cls):
            data = getattr(obj, attr)
            meta = {k: _to_meta(getattr(obj, k), rb) for k, rb in fields.items()}
            meta["dims"] = list(data.shape)
            if kind == "matrix":
                meta.update(num_samples=obj.num_time_samples, fingerprint=obj.fingerprint)
                return kind, meta, (data.indptr, data.indices, data.data)
            return kind, meta, (data,)
    raise TypeError("cannot serialize object of type %r" % type(obj).__name__)


def _decode(kind, meta, arrays):
    """Rebuild the typed object; raises KeyError, TypeError or ValueError."""
    cls, attr, _, fields = _KINDS[kind]
    attrs = {k: _from_meta(meta[k], rb) for k, rb in fields.items()}
    if kind == "matrix":
        num_samples = meta["num_samples"]
        fingerprint = geometry_fingerprint(num_samples=num_samples, **attrs)
        if fingerprint != meta["fingerprint"]:
            raise ValueError("fingerprint mismatch")
        # rows are num_samples per element, columns one per pixel
        dims = [num_samples * attrs["probe"].num_elements, attrs["grid"].num_pixels]
        if meta["dims"] != dims:
            raise ValueError("dims %s, expected %s for the geometry" % (meta["dims"], dims))
        indptr, indices, weights = arrays
        matrix = sp.csr_matrix((weights, indices, indptr), shape=tuple(dims))
        # an index out of range would make every product read out of bounds
        matrix.check_format(full_check=True)
        return cls(**{attr: matrix}, **attrs)
    (payload,) = arrays
    dims = meta["dims"]
    if not dims or int(np.prod(dims)) != payload.size:
        raise ValueError(
            "payload length %d does not match dims %s" % (payload.size, dims)
        )
    return cls(**{attr: payload.astype(np.float64).reshape(dims)}, **attrs)


def write_container(obj, path):
    """Serialize a supported object to ``path`` atomically."""
    kind, meta, arrays = _encode(obj)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    kind_bytes = kind.encode("ascii")
    tmp = "%s.%d.%d.tmp" % (path, os.getpid(), threading.get_ident())
    try:
        with open(tmp, "wb") as f:
            f.write(CONTAINER_MAGIC)
            f.write(struct.pack("<HB", CONTAINER_VERSION, len(kind_bytes)))
            f.write(kind_bytes)
            f.write(struct.pack("<I", len(meta_bytes)))
            f.write(meta_bytes)
            for array, dtype in zip(arrays, PAYLOADS[kind]):
                array = np.ascontiguousarray(array, dtype=dtype)
                f.write(struct.pack("<Q", array.size))
                f.write(array)  # the array's own buffer, not a bytes copy
        os.replace(tmp, path)
    except BaseException:  # leave no temp file behind
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _read_exact(f, n, path, what):
    """Read n bytes into a writable buffer, refusing more than the file holds."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise TruncatedFileError(
            "%s: truncated while reading %s (%d bytes needed, %d left)"
            % (path, what, n, left)
        )
    buf = bytearray(n)
    if f.readinto(buf) != n:
        raise TruncatedFileError("%s: truncated while reading %s" % (path, what))
    return buf


def read_container(path, kind=None):
    """Read a container file back into its typed object; with ``kind``
    given, a file of another kind raises StructureError before its body."""
    with open(path, "rb") as f:
        magic = bytes(_read_exact(f, 4, path, "magic"))
        if magic != CONTAINER_MAGIC:
            raise BadMagicError("%s: bad magic %r" % (path, magic))
        version, kind_len = struct.unpack("<HB", _read_exact(f, 3, path, "header"))
        if version != CONTAINER_VERSION:
            raise VersionMismatchError(
                "%s: container version %d, expected %d"
                % (path, version, CONTAINER_VERSION)
            )
        stored = _read_exact(f, kind_len, path, "kind").decode("ascii", "replace")
        if stored not in PAYLOADS:
            raise StructureError("%s: unknown kind %r" % (path, stored))
        if kind is not None and stored != kind:
            raise StructureError(
                "%s holds a %s container, expected %s" % (path, stored, kind)
            )
        (meta_len,) = struct.unpack("<I", _read_exact(f, 4, path, "metadata length"))
        meta_bytes = _read_exact(f, meta_len, path, "metadata")
        try:
            meta = json.loads(meta_bytes)
        except ValueError as err:  # bad JSON or bad utf-8
            raise StructureError("%s: metadata does not parse: %s" % (path, err))
        arrays = []
        for dtype in map(np.dtype, PAYLOADS[stored]):
            (count,) = struct.unpack("<Q", _read_exact(f, 8, path, "payload length"))
            buf = _read_exact(f, count * dtype.itemsize, path, "payload")
            arrays.append(np.frombuffer(buf, dtype=dtype))
    try:
        return _decode(stored, meta, arrays)
    except (KeyError, TypeError, ValueError) as err:
        raise StructureError(
            "%s: malformed %s container: %s: %s"
            % (path, stored, type(err).__name__, err)
        )


PICMUS_HINT = (
    "expected a PICMUS HDF5 file; the datasets are distributed by the "
    "plane-wave imaging challenge (see the challenge website) and are not "
    "bundled with this package"
)


def ingest_picmus(path, angle_index=None):
    """Extract one steering angle's RF channel data from a PICMUS HDF5 file.

    Returns the ChannelData, its probe at ``.probe``. ``angle_index=None``
    picks the angle closest to normal incidence. Requires the optional h5py
    dependency; IQ-only files (nonzero modulation frequency) are rejected.

    The path is checked first: a path that does not exist raises
    FileNotFoundError with the PICMUS hint, whether or not h5py is
    installed. An existing path without h5py raises ImportError naming h5py.
    """
    if not os.path.exists(path):
        raise FileNotFoundError("dataset not found at %s; %s" % (path, PICMUS_HINT))
    try:
        import h5py
    except ImportError:
        raise ImportError("PICMUS ingestion requires the optional h5py dependency")
    with h5py.File(path, "r") as f:
        return _picmus_channel(f, path, angle_index)


def _picmus_channel(f, path, angle_index):
    """ChannelData of one steering angle of the PICMUS layout in ``f``: an
    open HDF5 file, or any nested mapping of arrays. ``path`` names the
    source in errors."""
    if "US" not in f:
        raise StructureError("%s: missing group 'US'; %s" % (path, PICMUS_HINT))
    groups = [k for k in f["US"].keys() if k.startswith("US_DATASET")]
    if not groups:
        raise StructureError("%s: no 'US/US_DATASET*' group; %s" % (path, PICMUS_HINT))
    g = f["US"][sorted(groups)[0]]
    for required in ("angles", "data", "sampling_frequency", "probe_geometry"):
        if required not in g:
            raise StructureError("%s: missing dataset group %r" % (path, required))
    if "real" not in g["data"]:
        raise StructureError("%s: missing dataset group 'data/real'" % path)
    mod_freq = float(np.asarray(g["modulation_frequency"])) if "modulation_frequency" in g else 0.0
    if mod_freq != 0.0:
        raise StructureError(
            "%s: file holds IQ data (modulation_frequency=%g); RF data is "
            "required" % (path, mod_freq)
        )
    angles = np.asarray(g["angles"], dtype=np.float64).reshape(-1)
    if angle_index is None:
        angle_index = int(np.argmin(np.abs(angles)))
    if not 0 <= angle_index < angles.size:
        raise ValueError(
            "angle index %d out of range (file has %d angles)"
            % (angle_index, angles.size)
        )
    data = np.asarray(g["data"]["real"], dtype=np.float64)
    if data.ndim == 2:
        data = data[None, ...]
    if len(data) != angles.size:
        raise StructureError(
            "%s: data/real holds %d angles, 'angles' lists %d" % (path, len(data), angles.size)
        )
    # stored layout is (angles, elements, samples)
    samples = data[angle_index].T.copy()
    geom = np.asarray(g["probe_geometry"], dtype=np.float64)
    if geom.shape[0] != 3 and geom.shape[-1] == 3:
        geom = geom.T
    xs = np.sort(geom[0].reshape(-1))
    pitch = float(np.mean(np.diff(xs)))
    fs = float(np.asarray(g["sampling_frequency"]))
    c = float(np.asarray(g["sound_speed"])) if "sound_speed" in g else 1540.0
    t0 = float(np.asarray(g["initial_time"])) if "initial_time" in g else 0.0
    probe = ProbeGeometry(
        num_elements=xs.size,
        pitch=pitch,
        sound_speed=c,
        sampling_freq=fs,
        center_freq=fs / 4.0,  # RF files carry no center frequency
        t0_offset=t0,
    )
    return ChannelData(
        samples=samples, tx=PlaneWaveTx(angle=float(angles[angle_index])), probe=probe
    )
