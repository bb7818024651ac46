"""CT volume data model, Hounsfield windowing, the on-disk volume format, and
per-slice truth.

A window is a lookup table over the 5,120 HU values in [HU_MIN, HU_MAX]:
``window_table`` builds it once per window with ``apply_window`` and keeps the
last few, and ``stack_channels`` gathers each channel of an integer HU array
from its window's table, so a windowed pixel is the same float that
``apply_window`` gives for its HU value.

A volume file is one JSON header line (scan_id, patient_id, height, width,
num_slices, slice_thickness_mm) terminated by a newline, followed by raw
little-endian signed 16-bit HU values in slice-major, row-major order.
Volumes carry pixels only. Scan-level flags travel in dataset manifests and
per-slice flags in the per-slice label CSV; ``slice_truth`` is the one place
that joins the two into the per-slice truth a model is fitted to.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ArityError, ConfigError, DataError, FormatError
from .fileio import (atomic_write_bytes, is_finite_number, parse_flags, read_scan_table,
                     read_slice_table, write_csv)

HU_MIN = -1024
HU_MAX = 4095

#: Canonical hemorrhage type order used for every 5-vector in the package.
HEMORRHAGE_TYPES = ("edh", "sdh", "sah", "ivh", "iph")
NUM_TYPES = len(HEMORRHAGE_TYPES)

_HEADER_KEYS = ("scan_id", "patient_id", "height", "width", "num_slices", "slice_thickness_mm")
_MANIFEST_COLUMNS = ("scan_id", "patient_id", "path") + HEMORRHAGE_TYPES
_SLICE_LABEL_COLUMNS = ("scan_id", "slice_index") + HEMORRHAGE_TYPES


@dataclass(frozen=True)
class WindowSpec:
    """An intensity window, (center, width) in HU."""

    center: float
    width: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and 0 < self.width < math.inf):
            raise ConfigError(f"window must have a finite center and a finite positive width, "
                              f"got ({self.center}, {self.width})")


#: Brain, subdural, and soft-tissue windows; the standard triple for blood /
#: parenchyma / CSF / soft-tissue contrast on non-contrast head CT.
DEFAULT_WINDOWS = (WindowSpec(40.0, 80.0), WindowSpec(80.0, 200.0), WindowSpec(40.0, 380.0))


def apply_window(slice_hu, spec: WindowSpec, out=None) -> np.ndarray:
    """Map HU linearly onto [0, 1] over [center - width/2, center + width/2].

    Values outside the window clamp to 0 or 1. Monotone non-decreasing in HU.
    The result is written into the float64 array ``out`` when one is given.
    """
    if out is None:
        out = np.empty(np.shape(slice_hu))
    lower = spec.center - spec.width / 2.0
    np.subtract(slice_hu, lower, out=out, dtype=np.float64)
    np.divide(out, spec.width, out=out)
    return np.clip(out, 0.0, 1.0, out=out)


@lru_cache(maxsize=8)
def window_table(spec: WindowSpec) -> np.ndarray:
    """The read-only float64 table of ``apply_window`` over every HU value in
    [HU_MIN, HU_MAX]; entry k is the window of HU value HU_MIN + k.

    Tables are cached by window, the last 8 windows used; a slice model reads 3.
    """
    table = apply_window(np.arange(HU_MIN, HU_MAX + 1), spec)
    table.flags.writeable = False
    return table


def stack_channels(hu, specs=DEFAULT_WINDOWS) -> np.ndarray:
    """Apply three windows to an integer HU array of any shape, such as one
    slice or a whole (slices, height, width) volume; returns a (3, *hu.shape)
    float64 image.

    Each channel is gathered from its window's ``window_table``, so it equals
    ``apply_window`` of ``hu`` bit for bit. The HU values must be integers in
    [HU_MIN, HU_MAX]; anything else, float arrays included, raises
    ``DataError``.
    """
    if len(specs) != 3:
        raise ArityError(f"stack_channels needs exactly 3 window specs, got {len(specs)}")
    hu = np.asarray(hu)
    if hu.dtype.kind not in "iu":
        raise DataError(f"expected integer HU values, got dtype {hu.dtype}")
    if hu.size and (hu.min() < HU_MIN or hu.max() > HU_MAX):
        raise DataError(f"HU values must lie in [{HU_MIN}, {HU_MAX}]")
    # The image is allocated before the level array, which is freed on
    # return; the other way round took more page faults per volume.
    image = np.empty((3,) + hu.shape)
    levels = np.subtract(hu, HU_MIN, dtype=np.intp)
    for channel, spec in zip(image, specs):
        # "clip" skips take's bounds pass; every level is in range already.
        np.take(window_table(spec), levels, out=channel, mode="clip")
    return image


@dataclass(frozen=True)
class ScanLabels:
    """Scan-level hemorrhage flags, one per type in ``HEMORRHAGE_TYPES`` order."""

    edh: bool
    sdh: bool
    sah: bool
    ivh: bool
    iph: bool

    def vector(self) -> np.ndarray:
        return np.array([self.edh, self.sdh, self.sah, self.ivh, self.iph], dtype=bool)

    @classmethod
    def from_vector(cls, vec) -> "ScanLabels":
        vec = [bool(v) for v in vec]
        if len(vec) != NUM_TYPES:
            raise ArityError(f"label vector must have {NUM_TYPES} entries, got {len(vec)}")
        return cls(*vec)


@dataclass(frozen=True, eq=False)
class CtVolume:
    """An ordered craniocaudal stack of HU slices with scan/patient identity."""

    scan_id: str
    patient_id: str
    slices: np.ndarray  # (num_slices, height, width) int16 HU
    slice_thickness_mm: float

    def __post_init__(self):
        arr = np.asarray(self.slices)
        if arr.ndim != 3:
            raise DataError(f"slices must be a (num_slices, height, width) array, got ndim={arr.ndim}")
        if arr.shape[0] < 1:
            raise DataError("a volume needs at least one slice")
        if arr.size and (arr.min() < HU_MIN or arr.max() > HU_MAX):
            raise DataError(f"HU values must lie in [{HU_MIN}, {HU_MAX}]")
        object.__setattr__(self, "slices", np.ascontiguousarray(arr, dtype=np.int16))
        if not self.slice_thickness_mm > 0:
            raise DataError(f"slice thickness must be positive, got {self.slice_thickness_mm}")

    @property
    def num_slices(self) -> int:
        return self.slices.shape[0]

    @property
    def height(self) -> int:
        return self.slices.shape[1]

    @property
    def width(self) -> int:
        return self.slices.shape[2]


def store_volume(volume: CtVolume, path) -> None:
    header = {
        "scan_id": volume.scan_id,
        "patient_id": volume.patient_id,
        "height": volume.height,
        "width": volume.width,
        "num_slices": volume.num_slices,
        "slice_thickness_mm": volume.slice_thickness_mm,
    }
    payload = volume.slices.astype("<i2").tobytes()
    atomic_write_bytes(path, json.dumps(header).encode("utf-8") + b"\n" + payload)


def load_volume(path) -> CtVolume:
    """Read a volume file."""
    data = Path(path).read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise FormatError(f"{path}: missing header line")
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict) or set(header) != set(_HEADER_KEYS):
        raise FormatError(f"{path}: header must contain exactly the keys {_HEADER_KEYS}")
    num_slices, height, width = (header[key] for key in ("num_slices", "height", "width"))
    if not all(type(size) is int for size in (num_slices, height, width)):
        raise FormatError(f"{path}: num_slices, height and width must be integers, got "
                          f"{num_slices!r}, {height!r}, {width!r}")
    if not (isinstance(header["scan_id"], str) and isinstance(header["patient_id"], str)):
        raise FormatError(f"{path}: scan_id and patient_id must be strings")
    thickness = header["slice_thickness_mm"]
    if not is_finite_number(thickness) or thickness <= 0:
        raise FormatError(f"{path}: slice_thickness_mm must be a finite positive number, "
                          f"got {thickness!r}")
    if num_slices < 1:
        raise FormatError(f"{path}: empty volume (num_slices={num_slices})")
    if height < 1 or width < 1:
        raise FormatError(f"{path}: non-positive slice dimensions")
    expected = num_slices * height * width * 2
    payload = data[newline + 1:]
    if len(payload) < expected:
        raise FormatError(f"{path}: truncated payload ({len(payload)} bytes, need {expected})")
    if len(payload) > expected:
        raise FormatError(f"{path}: {len(payload) - expected} trailing bytes after payload")
    hu = np.frombuffer(payload, dtype="<i2").reshape(num_slices, height, width)
    try:  # CtVolume checks the HU range
        return CtVolume(
            scan_id=header["scan_id"],
            patient_id=header["patient_id"],
            slices=hu.astype(np.int16),
            slice_thickness_mm=float(thickness),
        )
    except DataError as exc:
        raise FormatError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class ManifestRow:
    """One dataset entry: identity, volume path, and scan-level labels."""

    scan_id: str
    patient_id: str
    path: str
    labels: ScanLabels


def _flag_rows(matrix) -> list[list[int]]:
    """A flag matrix as rows of Python 0/1 ints: csv formats those several
    times faster than numpy scalars."""
    return np.asarray(matrix, dtype=bool).astype(np.uint8).tolist()


def save_manifest(rows, path) -> None:
    rows = list(rows)
    flags = _flag_rows([row.labels.vector() for row in rows])
    write_csv(path, _MANIFEST_COLUMNS,
              ([row.scan_id, row.patient_id, row.path] + row_flags
               for row, row_flags in zip(rows, flags)))


def load_manifest(path) -> list[ManifestRow]:
    scan_ids, (patient_ids, paths), flags = read_scan_table(
        path, _MANIFEST_COLUMNS, parse_flags, "manifest", text=2)
    if not scan_ids:
        raise FormatError(f"{path}: manifest has no rows")
    return [ManifestRow(scan_id, patient_id, volume_path, ScanLabels.from_vector(vector))
            for scan_id, patient_id, volume_path, vector
            in zip(scan_ids, patient_ids, paths, flags.tolist())]


def check_manifest_coverage(path, what: str, scan_ids, rows, complete: bool = True) -> None:
    """A scan-keyed table read beside a manifest may name only manifest scans;
    when ``complete``, it must also name every one of them."""
    in_table, in_manifest = set(scan_ids), {row.scan_id for row in rows}
    missing = [row.scan_id for row in rows if row.scan_id not in in_table] if complete else []
    if missing:
        raise ConfigError(f"{path}: {what} lacks {len(missing)} manifest scans: {missing[:5]}")
    extra = [scan_id for scan_id in scan_ids if scan_id not in in_manifest]
    if extra:
        raise ConfigError(f"{path}: {what} has {len(extra)} scans not in the manifest: {extra[:5]}")


def save_slice_labels(matrices: dict[str, np.ndarray], path) -> None:
    """Write the per-slice label CSV: scan_id, slice_index, five 0/1 columns."""
    write_csv(path, _SLICE_LABEL_COLUMNS,
              ([scan_id, index] + row
               for scan_id, matrix in matrices.items()
               for index, row in enumerate(_flag_rows(matrix))))


def load_slice_labels(path) -> dict[str, np.ndarray]:
    """Read the per-slice label CSV into scan_id -> (num_slices, 5) bool."""
    return read_slice_table(path, _SLICE_LABEL_COLUMNS, parse_flags, "slice label CSV")


def load_manifest_volumes(manifest_path,
                          volumes_root=None) -> tuple[list[ManifestRow], list[CtVolume]]:
    """The manifest's rows and, in row order, every volume they reference.

    Volume paths are resolved relative to ``volumes_root`` (default: the
    manifest's directory), and each file's scan_id and patient_id must equal
    its row's.
    """
    manifest_path = Path(manifest_path)
    root = Path(volumes_root) if volumes_root is not None else manifest_path.parent
    rows = load_manifest(manifest_path)
    volumes = []
    for row in rows:
        volume = load_volume(root / row.path)
        if volume.scan_id != row.scan_id:
            raise FormatError(
                f"{row.path}: file scan_id {volume.scan_id!r} disagrees with manifest {row.scan_id!r}")
        if volume.patient_id != row.patient_id:
            raise FormatError(f"{row.path}: file patient_id {volume.patient_id!r} disagrees "
                              f"with manifest {row.patient_id!r}")
        volumes.append(volume)
    return rows, volumes


def slice_truth(rows, num_slices, labels_path=None) -> dict[str, np.ndarray]:
    """The (slices, 5) bool truth matrix of every manifest row, by scan_id in row order.

    This is the only place per-slice truth is built. ``num_slices`` maps each
    row's scan_id to its slice count. The per-slice label CSV at
    ``labels_path`` may name only manifest scans; each matrix it holds must
    have that many rows and OR to the row's flags. A scan it does not name,
    or every scan when there is no CSV, gets its flags on every slice, with a
    warning, since that is a coarser truth.
    """
    matrices = load_slice_labels(labels_path) if labels_path else {}
    check_manifest_coverage(labels_path, "slice label CSV", matrices, rows, complete=False)
    truth = {}
    for row in rows:
        flags, count = row.labels.vector(), num_slices[row.scan_id]
        matrix = matrices.get(row.scan_id)
        if matrix is None:
            warnings.warn(f"{row.scan_id}: no per-slice labels; broadcasting scan labels")
            matrix = np.tile(flags, (count, 1))
        elif matrix.shape[0] != count:
            raise FormatError(f"{labels_path}: scan {row.scan_id}: "
                              "slice label matrix length must match the slice count")
        elif not np.array_equal(matrix.any(axis=0), flags):
            raise FormatError(f"{labels_path}: scan {row.scan_id}: "
                              "scan-level labels must equal the OR over slice labels")
        truth[row.scan_id] = matrix
    return truth
