"""CT volume data model, Hounsfield windowing, and the on-disk volume format.

A volume file is one JSON header line (scan_id, patient_id, height, width,
num_slices, slice_thickness_mm) terminated by a newline, followed by raw
little-endian signed 16-bit HU values in slice-major, row-major order.
Labels are not part of the file; they travel in dataset manifests and in the
per-slice label CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArityError, ConfigError, DataError, FormatError
from .fileio import (atomic_write_bytes, parse_flags, read_scan_table, read_slice_table,
                     write_csv)

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


def apply_window(slice_hu, spec: WindowSpec) -> np.ndarray:
    """Map HU linearly onto [0, 1] over [center - width/2, center + width/2].

    Values outside the window clamp to 0 or 1. Monotone non-decreasing in HU.
    """
    hu = np.asarray(slice_hu, dtype=np.float64)
    lower = spec.center - spec.width / 2.0
    return np.clip((hu - lower) / spec.width, 0.0, 1.0)


def stack_channels(slice_hu, specs=DEFAULT_WINDOWS) -> np.ndarray:
    """Apply three windows to one slice; returns a (3, height, width) image."""
    if len(specs) != 3:
        raise ArityError(f"stack_channels needs exactly 3 window specs, got {len(specs)}")
    return np.stack([apply_window(slice_hu, spec) for spec in specs])


@dataclass(frozen=True, eq=False)
class ScanLabels:
    """Scan-level hemorrhage labels, optionally backed by a per-slice matrix.

    When ``slice_labels`` (shape num_slices x 5, bool) is present, each
    scan-level flag must equal the OR over its slice column.
    """

    edh: bool
    sdh: bool
    sah: bool
    ivh: bool
    iph: bool
    slice_labels: np.ndarray | None = None

    def __post_init__(self):
        if self.slice_labels is not None:
            m = np.asarray(self.slice_labels, dtype=bool)
            if m.ndim != 2 or m.shape[1] != NUM_TYPES:
                raise DataError(f"slice label matrix must be (num_slices, {NUM_TYPES}), "
                                f"got {m.shape}")
            object.__setattr__(self, "slice_labels", m)
            if not np.array_equal(m.any(axis=0), self.vector()):
                raise DataError("scan-level labels must equal the OR over slice labels")

    def vector(self) -> np.ndarray:
        return np.array([self.edh, self.sdh, self.sah, self.ivh, self.iph], dtype=bool)

    @property
    def any(self) -> bool:
        return bool(self.edh or self.sdh or self.sah or self.ivh or self.iph)

    @classmethod
    def from_vector(cls, vec, slice_labels=None) -> "ScanLabels":
        vec = [bool(v) for v in vec]
        if len(vec) != NUM_TYPES:
            raise ArityError(f"label vector must have {NUM_TYPES} entries, got {len(vec)}")
        return cls(*vec, slice_labels=slice_labels)

    @classmethod
    def from_slice_matrix(cls, matrix) -> "ScanLabels":
        matrix = np.asarray(matrix, dtype=bool)
        return cls.from_vector(matrix.any(axis=0), slice_labels=matrix)


@dataclass(frozen=True, eq=False)
class CtVolume:
    """An ordered craniocaudal stack of HU slices with scan/patient identity."""

    scan_id: str
    patient_id: str
    slices: np.ndarray  # (num_slices, height, width) int16 HU
    slice_thickness_mm: float
    labels: ScanLabels | None = None

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
        if self.labels is not None and self.labels.slice_labels is not None:
            if self.labels.slice_labels.shape[0] != arr.shape[0]:
                raise DataError("slice label matrix length must match the slice count")

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
    """Read a volume file. The loaded volume carries no labels."""
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
    try:
        height = int(header["height"])
        width = int(header["width"])
        num_slices = int(header["num_slices"])
        thickness = float(header["slice_thickness_mm"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed header field: {exc}") from exc
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
    if hu.min() < HU_MIN or hu.max() > HU_MAX:
        raise FormatError(f"{path}: HU values outside [{HU_MIN}, {HU_MAX}]")
    try:
        return CtVolume(
            scan_id=str(header["scan_id"]),
            patient_id=str(header["patient_id"]),
            slices=hu.astype(np.int16),
            slice_thickness_mm=thickness,
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


def save_manifest(rows, path) -> None:
    write_csv(path, _MANIFEST_COLUMNS,
              ([row.scan_id, row.patient_id, row.path] + [int(v) for v in row.labels.vector()]
               for row in rows))


def load_manifest(path) -> list[ManifestRow]:
    table = read_scan_table(path, _MANIFEST_COLUMNS,
                            lambda cells: (cells[0], cells[1], parse_flags(cells[2:])), "manifest")
    if not table:
        raise FormatError(f"{path}: manifest has no rows")
    return [ManifestRow(scan_id, patient_id, volume_path, ScanLabels.from_vector(flags))
            for scan_id, (patient_id, volume_path, flags) in table.items()]


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
              ([scan_id, index] + [int(v) for v in row]
               for scan_id, matrix in matrices.items()
               for index, row in enumerate(np.asarray(matrix, dtype=bool))))


def load_slice_labels(path) -> dict[str, np.ndarray]:
    """Read the per-slice label CSV into scan_id -> (num_slices, 5) bool."""
    return read_slice_table(path, _SLICE_LABEL_COLUMNS, parse_flags, "slice label CSV")


def load_manifest_volumes(manifest_path, slice_labels_path=None, volumes_root=None) -> list[CtVolume]:
    """Load every volume a manifest references, attaching its labels.

    Volume paths are resolved relative to ``volumes_root`` (default: the
    manifest's directory). When a per-slice label CSV is given, it may name
    only manifest scans, and those it names get their slice matrix attached;
    scan-level labels always come from the manifest.
    """
    manifest_path = Path(manifest_path)
    root = Path(volumes_root) if volumes_root is not None else manifest_path.parent
    rows = load_manifest(manifest_path)
    slice_labels = load_slice_labels(slice_labels_path) if slice_labels_path else {}
    check_manifest_coverage(slice_labels_path, "slice label CSV", slice_labels, rows,
                            complete=False)
    volumes = []
    for row in rows:
        vol = load_volume(root / row.path)
        if vol.scan_id != row.scan_id:
            raise FormatError(
                f"{row.path}: file scan_id {vol.scan_id!r} disagrees with manifest {row.scan_id!r}")
        try:
            labels = ScanLabels.from_vector(row.labels.vector(),
                                            slice_labels=slice_labels.get(row.scan_id))
            volumes.append(CtVolume(vol.scan_id, row.patient_id, vol.slices,
                                    vol.slice_thickness_mm, labels=labels))
        except DataError as exc:  # the slice labels disagree with the manifest or the volume
            raise FormatError(f"{slice_labels_path}: scan {row.scan_id}: {exc}") from exc
    return volumes
