"""Deterministic synthetic head-CT phantoms with labeled hemorrhages.

Each scan is a 2.5D phantom: an air background, a circular skull ring, brain
parenchyma, and a central CSF ventricle, with per-type lesion geometry swept
across a contiguous slice span:

* EDH -- biconvex lens pressed against the inner skull,
* SDH -- thin crescent hugging the inner skull,
* SAH -- a few thin curvilinear bands at mid radii,
* IVH -- the ventricle filled with blood,
* IPH -- an ellipse inside the parenchyma.

Tissue HU values are drawn per pixel from the fixed tissue ranges below, plus
truncated Gaussian noise. Lesion pixels are kept inside the blood HU band and
non-lesion brain pixels below it, so a clean scan has zero blood-band pixels
inside the brain mask and every positive slice carries at least
``MIN_LESION_PIXELS`` blood-band pixels. An optional "distractor" places a
blood-like blob on exactly one slice of a scan without labeling it, which
gives the inter-slice stacker single-slice noise to learn away; it is off by
default.

Per-scan randomness is derived from (seed, scan index), so generation order
never changes the output. A dataset keeps its volumes (pixels only) apart from
their per-slice truth; the manifest's scan flags are the OR of that truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, InfeasibleError
from .volume import (HU_MAX, HU_MIN, HEMORRHAGE_TYPES, NUM_TYPES, CtVolume, ManifestRow,
                     ScanLabels, save_manifest, save_slice_labels, store_volume)

#: A lesion covers this many consecutive slices, inclusive bounds.
LESION_SPAN_MIN, LESION_SPAN_MAX = 3, 6
MIN_LESION_PIXELS = 30
#: Tissue HU ranges. The blood band sits above the brain range, so clean brain
#: pixels can be clipped below it.
BRAIN_HU = (20, 40)
CSF_HU = (0, 15)
BLOOD_HU = (55, 90)
SKULL_HU = (700, 1500)
AIR_HU = -1000
SLICE_THICKNESS_MM = 5.0


@dataclass(frozen=True)
class SynthConfig:
    num_scans: int = 100
    positive_fraction: tuple[float, float, float, float, float] = (0.06, 0.06, 0.06, 0.06, 0.06)
    slices_min: int = 10
    slices_max: int = 18
    height: int = 48
    width: int = 48
    noise_sigma: float = 4.0
    distractor_fraction: float = 0.0
    paired_scan_fraction: float = 0.3  # fraction of scans sharing a patient pairwise
    seed: int = 0

    def __post_init__(self):
        if self.num_scans < 1:
            raise ConfigError("num_scans must be positive")
        if len(self.positive_fraction) != NUM_TYPES:
            raise ConfigError("positive_fraction needs one entry per hemorrhage type")
        if any(not 0.0 <= f <= 1.0 for f in self.positive_fraction):
            raise ConfigError("positive fractions must lie in [0, 1]")
        if sum(self.positive_fraction) > 1.0 + 1e-9:
            raise ConfigError("per-type positive fractions must sum to at most 1")
        if sum(self.type_counts) > self.num_scans:  # rounding up can pass the total
            raise ConfigError(f"per-type positive counts {self.type_counts} (num_scans x "
                              f"fraction, rounded) sum past num_scans={self.num_scans}")
        if not 1 <= self.slices_min <= self.slices_max:
            raise ConfigError("need 1 <= slices_min <= slices_max")
        if self.slices_min < LESION_SPAN_MIN:
            raise ConfigError(f"slices_min cannot be below the shortest lesion span, "
                              f"{LESION_SPAN_MIN}")
        if self.noise_sigma < 0.0:
            raise ConfigError("noise_sigma must be non-negative")
        if not 0.0 <= self.distractor_fraction <= 1.0:
            raise ConfigError("distractor_fraction must lie in [0, 1]")
        if not 0.0 <= self.paired_scan_fraction <= 1.0:
            raise ConfigError("paired_scan_fraction must lie in [0, 1]")

    @property
    def type_counts(self) -> list[int]:
        """Positive scans of each type: round(num_scans * fraction)."""
        return [int(round(self.num_scans * fraction)) for fraction in self.positive_fraction]


@dataclass(frozen=True, eq=False)
class SynthDataset:
    volumes: list[CtVolume]
    scan_paths: dict[str, str]  # scan_id -> relative volume path
    slice_labels: dict[str, np.ndarray]  # scan_id -> (num_slices, 5) bool truth


def _disc(yy, xx, cy, cx, radius):
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2


def _ellipse(yy, xx, cy, cx, ry, rx):
    return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0


def _grow_until(make_mask, scale: float = 1.0, tries: int = 24):
    """Enlarge a parametric mask until it carries MIN_LESION_PIXELS pixels."""
    for _ in range(tries):
        mask = make_mask(scale)
        if int(mask.sum()) >= MIN_LESION_PIXELS:
            return mask
        scale *= 1.2
    raise InfeasibleError("lesion cannot reach the required pixel count inside the head")


class _ScanGeometry:
    """Per-scan head layout: skull ring, brain disc, and ventricle ellipse."""

    def __init__(self, config: SynthConfig, rng: np.random.Generator):
        h, w = config.height, config.width
        self.yy, self.xx = np.ogrid[:h, :w]
        self.cy = h / 2.0 + rng.uniform(-1.5, 1.5)
        self.cx = w / 2.0 + rng.uniform(-1.5, 1.5)
        outer = 0.42 * min(h, w) * rng.uniform(0.92, 1.0)
        self.skull_outer = outer
        self.brain_radius = outer - max(2.0, 0.08 * outer)
        self.head = _disc(self.yy, self.xx, self.cy, self.cx, outer)
        self.brain = _disc(self.yy, self.xx, self.cy, self.cx, self.brain_radius)
        self.skull = self.head & ~self.brain
        self.ventricle = _ellipse(self.yy, self.xx,
                                  self.cy + rng.uniform(-1.0, 1.0),
                                  self.cx + rng.uniform(-1.0, 1.0),
                                  0.30 * self.brain_radius, 0.17 * self.brain_radius)
        self.ventricle &= self.brain

    def lesion_mask(self, hem_type: str, rng: np.random.Generator) -> np.ndarray:
        yy, xx, cy, cx = self.yy, self.xx, self.cy, self.cx
        radius = self.brain_radius
        angle = rng.uniform(0.0, 2.0 * np.pi)
        if hem_type == "edh":
            rho0 = rng.uniform(0.45, 0.65) * radius
            reach = radius * rng.uniform(1.02, 1.12)

            def make(scale):
                rho = rho0 * scale
                oy = cy + reach * np.sin(angle)
                ox = cx + reach * np.cos(angle)
                return self.brain & _disc(yy, xx, oy, ox, rho)
            return _grow_until(make)
        if hem_type == "sdh":
            thickness0 = rng.uniform(2.5, 4.0)
            half_arc0 = rng.uniform(0.5, 0.9)

            def make(scale):
                thickness = thickness0 * scale
                half_arc = min(np.pi, half_arc0 * scale)
                rr = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
                band = (rr <= radius) & (rr >= radius - thickness)
                theta = np.arctan2(yy - cy, xx - cx)
                delta = np.abs((theta - angle + np.pi) % (2.0 * np.pi) - np.pi)
                return self.brain & band & (delta <= half_arc)
            return _grow_until(make)
        if hem_type == "sah":
            num_bands = int(rng.integers(2, 5))
            params = [(rng.uniform(0.45, 0.85) * radius,
                       rng.uniform(0.0, 2.0 * np.pi),
                       rng.uniform(0.4, 0.8)) for _ in range(num_bands)]

            def make(scale):
                rr = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
                theta = np.arctan2(yy - cy, xx - cx)
                mask = np.zeros(self.brain.shape, dtype=bool)
                for band_radius, band_angle, half_arc in params:
                    ring = np.abs(rr - band_radius) <= 1.0 * scale
                    delta = np.abs((theta - band_angle + np.pi) % (2.0 * np.pi) - np.pi)
                    mask |= ring & (delta <= min(np.pi, half_arc * scale))
                return self.brain & mask
            return _grow_until(make)
        if hem_type == "ivh":
            def make(scale):
                if scale == 1.0:
                    return self.ventricle
                return self.brain & _ellipse(yy, xx, cy, cx,
                                             0.30 * radius * scale, 0.17 * radius * scale)
            return _grow_until(make)
        if hem_type == "iph":
            offset = rng.uniform(0.2, 0.5) * radius
            oy = cy + offset * np.sin(angle)
            ox = cx + offset * np.cos(angle)
            ry0 = rng.uniform(3.5, 6.0)
            rx0 = rng.uniform(3.5, 6.0)

            def make(scale):
                return self.brain & _ellipse(yy, xx, oy, ox, ry0 * scale, rx0 * scale)
            return _grow_until(make)
        raise ConfigError(f"unknown hemorrhage type {hem_type!r}")


def _scan_rng(config: SynthConfig, scan_index: int) -> np.random.Generator:
    return np.random.default_rng((config.seed, 1, scan_index))


def _build_scan(config: SynthConfig, scan_index: int, lesion_types: tuple[str, ...],
                with_distractor: bool) -> tuple[np.ndarray, np.ndarray]:
    rng = _scan_rng(config, scan_index)
    geometry = _ScanGeometry(config, rng)
    num_slices = int(rng.integers(config.slices_min, config.slices_max + 1))
    shape = (num_slices, config.height, config.width)

    hu = np.full(shape, float(AIR_HU))
    skull = np.broadcast_to(geometry.skull, shape)
    brain = np.broadcast_to(geometry.brain, shape)
    ventricle = np.broadcast_to(geometry.ventricle, shape)
    hu[skull] = rng.uniform(*SKULL_HU, size=shape)[skull]
    hu[brain] = rng.uniform(*BRAIN_HU, size=shape)[brain]
    hu[ventricle] = rng.uniform(*CSF_HU, size=shape)[ventricle]

    slice_labels = np.zeros((num_slices, NUM_TYPES), dtype=bool)
    lesion_3d = np.zeros(shape, dtype=bool)
    for hem_type in lesion_types:
        span = int(rng.integers(LESION_SPAN_MIN, min(LESION_SPAN_MAX, num_slices) + 1))
        start = int(rng.integers(0, num_slices - span + 1))
        mask = geometry.lesion_mask(hem_type, rng)
        lesion_3d[start:start + span] |= mask
        slice_labels[start:start + span, HEMORRHAGE_TYPES.index(hem_type)] = True

    distractor_3d = np.zeros(shape, dtype=bool)
    if with_distractor:
        z = int(rng.integers(0, num_slices))
        offset = rng.uniform(0.0, 0.55) * geometry.brain_radius
        angle = rng.uniform(0.0, 2.0 * np.pi)
        blob = geometry.brain & _disc(geometry.yy, geometry.xx,
                                      geometry.cy + offset * np.sin(angle),
                                      geometry.cx + offset * np.cos(angle),
                                      rng.uniform(3.0, 4.5))
        distractor_3d[z] = blob

    blood_like = lesion_3d | distractor_3d
    hu[blood_like] = rng.uniform(*BLOOD_HU, size=shape)[blood_like]

    if config.noise_sigma > 0:
        hu += rng.normal(0.0, config.noise_sigma, size=shape)

    # Keep blood pixels inside the blood band and clean brain tissue below it,
    # so blood-band pixel counts inside the brain mask are exact by construction.
    band_low, band_high = BLOOD_HU
    hu[blood_like] = np.clip(hu[blood_like], band_low + 2, band_high - 2)
    clean_brain = brain & ~blood_like
    hu[clean_brain] = np.clip(hu[clean_brain], HU_MIN, band_low - 1)
    hu = np.clip(np.rint(hu), HU_MIN, HU_MAX).astype(np.int16)
    return hu, slice_labels


def _type_assignment(config: SynthConfig) -> list[tuple[str, ...]]:
    """Disjoint per-type scan sets with exact counts ``config.type_counts``."""
    rng = np.random.default_rng((config.seed, 0))
    order = rng.permutation(config.num_scans)
    assignment: list[tuple[str, ...]] = [() for _ in range(config.num_scans)]
    cursor = 0
    for t, count in enumerate(config.type_counts):
        for scan in order[cursor:cursor + count]:
            assignment[scan] = (HEMORRHAGE_TYPES[t],)
        cursor += count
    return assignment


def _patient_assignment(config: SynthConfig) -> list[str]:
    rng = np.random.default_rng((config.seed, 2))
    order = rng.permutation(config.num_scans)
    pairs = int(config.num_scans * config.paired_scan_fraction / 2.0)
    patient_of = [""] * config.num_scans
    patient = 0
    for pair in range(pairs):
        patient_of[order[2 * pair]] = f"p{patient:04d}"
        patient_of[order[2 * pair + 1]] = f"p{patient:04d}"
        patient += 1
    for scan in order[2 * pairs:]:
        patient_of[scan] = f"p{patient:04d}"
        patient += 1
    return patient_of


def _distractor_flags(config: SynthConfig) -> np.ndarray:
    rng = np.random.default_rng((config.seed, 3))
    count = int(round(config.num_scans * config.distractor_fraction))
    flags = np.zeros(config.num_scans, dtype=bool)
    flags[rng.permutation(config.num_scans)[:count]] = True
    return flags


def generate(config: SynthConfig) -> SynthDataset:
    """Build the labeled phantom dataset; byte-identical for a fixed config."""
    if min(config.height, config.width) < 24:
        raise InfeasibleError("head geometry needs at least 24x24 slices")

    lesion_types = _type_assignment(config)
    patient_of = _patient_assignment(config)
    distractors = _distractor_flags(config)
    volumes = []
    scan_paths = {}
    slice_labels = {}
    for index in range(config.num_scans):
        scan_id = f"s{index:04d}"
        hu, slice_labels[scan_id] = _build_scan(config, index, lesion_types[index],
                                                bool(distractors[index]))
        volumes.append(CtVolume(scan_id=scan_id, patient_id=patient_of[index], slices=hu,
                                slice_thickness_mm=SLICE_THICKNESS_MM))
        scan_paths[scan_id] = f"volumes/{scan_id}.ctv"
    return SynthDataset(volumes=volumes, scan_paths=scan_paths, slice_labels=slice_labels)


def write_dataset(dataset: SynthDataset, out_dir) -> dict[str, Path]:
    """Emit volume files, the manifest CSV (scan flags: the OR of each scan's
    slice labels), and the per-slice label CSV."""
    out_dir = Path(out_dir)
    manifest_rows = []
    for volume in dataset.volumes:
        rel_path = dataset.scan_paths[volume.scan_id]
        store_volume(volume, out_dir / rel_path)
        flags = dataset.slice_labels[volume.scan_id].any(axis=0)
        manifest_rows.append(ManifestRow(volume.scan_id, volume.patient_id, rel_path,
                                         ScanLabels.from_vector(flags)))
    paths = {
        "manifest": out_dir / "manifest.csv",
        "slice_labels": out_dir / "slice_labels.csv",
    }
    save_manifest(manifest_rows, paths["manifest"])
    save_slice_labels(dataset.slice_labels, paths["slice_labels"])
    return paths
