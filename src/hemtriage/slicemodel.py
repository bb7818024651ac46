"""The reference slice model and the slice-probability exchange files.

A slice model maps each slice of a volume to a 5-vector of independent
per-type probabilities. External models (for instance trained deep networks)
plug in through the slice-probability CSV (``save_slice_probs`` /
``load_slice_probs``); weighing, stacking and thresholding read only that.
The reference model ships in-repo: a one-group ``gbdt.GbdtEnsemble``, one
booster per type over handcrafted windowed-intensity features. Its file is a
``gbdt.save_ensemble`` record of kind ``slice-model``, version 4, whose own
fields are the model ``identity``, its three ``windows`` and the
``slice_shape`` it was trained on, because the histogram features are raw
pixel counts that only compare across one slice size.

Volumes go to probabilities on one path: ``volume_features`` featurizes every
slice of a volume once, and ``predict_by_scan`` runs one predict call over
the feature rows of many scans. Slice position enters the features as the
fraction n/N (1-based slice index over slice count).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import gbdt
from .errors import DataError, FormatError, PipelineError
from .fileio import read_slice_table, write_csv
from .volume import (DEFAULT_WINDOWS, HEMORRHAGE_TYPES, NUM_TYPES, CtVolume, WindowSpec,
                     stack_channels)

HISTOGRAM_BINS = 16
BLOOD_BAND = (0.55, 0.95)
CHANNEL_FEATURES = HISTOGRAM_BINS + 6  # hist, mean, std, p5, p50, p95, band fraction
FEATURE_LENGTH = 3 * CHANNEL_FEATURES + 1  # plus slice position fraction

_PROB_COLUMNS = ("scan_id", "slice_index") + tuple(f"p_{t}" for t in HEMORRHAGE_TYPES)
_SLICE_MODEL_KIND = "slice-model"
_SLICE_MODEL_VERSION = 4

#: Reference model training setup; small trees keep per-fold training cheap.
DEFAULT_REFERENCE_CONFIG = gbdt.GbdtConfig(
    rounds=60, learning_rate=0.1, max_leaves=8, max_depth=3,
    min_samples_leaf=5, growth="depthwise", l2_reg=1.0)


def extract_features(image, position: float = 0.0) -> np.ndarray:
    """Handcrafted features of one 3-channel normalized slice.

    Per channel: a 16-bin intensity histogram over [0, 1] (raw counts, so the
    bins sum to the pixel count), mean, standard deviation, the 5th/50th/95th
    percentiles, and the fraction of pixels in the blood-like band
    [0.55, 0.95]; the slice position fraction is appended last.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3:
        raise DataError(f"expected a (3, height, width) image, got shape {img.shape}")
    if not np.isfinite(img).all():
        raise DataError("image pixels must be finite")
    out = np.empty(FEATURE_LENGTH)
    cursor = 0
    for channel in range(3):
        pixels = img[channel].ravel()
        hist, _ = np.histogram(pixels, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
        out[cursor:cursor + HISTOGRAM_BINS] = hist
        cursor += HISTOGRAM_BINS
        out[cursor] = pixels.mean()
        out[cursor + 1] = pixels.std()
        out[cursor + 2:cursor + 5] = np.percentile(pixels, (5, 50, 95))
        out[cursor + 5] = float(np.mean((pixels >= BLOOD_BAND[0]) & (pixels <= BLOOD_BAND[1])))
        cursor += 6
    out[cursor] = position
    return out


def slice_positions(num_slices: int) -> np.ndarray:
    """Position fraction n/N for 1-based slice index n."""
    return (np.arange(num_slices) + 1.0) / num_slices


def volume_features(volume: CtVolume, specs=DEFAULT_WINDOWS) -> np.ndarray:
    """Feature rows of every slice of a volume, in craniocaudal slice order."""
    positions = slice_positions(volume.num_slices)
    return np.array([extract_features(stack_channels(hu, specs), position)
                     for hu, position in zip(volume.slices, positions)])


def predict_by_scan(predict, matrices_by_scan) -> dict[str, np.ndarray]:
    """``predict`` called once on the row-concatenation of per-scan matrices;
    its rows are split back by scan, in input order."""
    scan_ids = list(matrices_by_scan)
    if not scan_ids:
        return {}
    matrices = [matrices_by_scan[scan_id] for scan_id in scan_ids]
    rows = predict(np.concatenate(matrices))
    bounds = np.cumsum([len(matrix) for matrix in matrices])[:-1]
    return dict(zip(scan_ids, np.split(rows, bounds)))


def save_slice_probs(probs_by_scan: dict[str, np.ndarray], path) -> None:
    """Slice-probability exchange CSV, the boundary for external deep models."""
    write_csv(path, _PROB_COLUMNS,
              ([scan_id, index] + [repr(float(v)) for v in row]
               for scan_id, rows in probs_by_scan.items()
               for index, row in enumerate(np.asarray(rows, dtype=np.float64))))


def load_slice_probs(path) -> dict[str, np.ndarray]:
    result = read_slice_table(path, _PROB_COLUMNS, lambda cells: [float(c) for c in cells],
                              "probability CSV")
    for scan_id, rows in result.items():
        if rows.min() < 0.0 or rows.max() > 1.0 or not np.isfinite(rows).all():
            raise FormatError(f"{path}: probabilities for scan {scan_id} outside [0, 1]")
    return result


class SliceInput(NamedTuple):
    """What a slice model assumes of the volumes it scores."""

    windows: tuple[WindowSpec, ...]
    shape: tuple[int, int]  # (height, width) of every slice


def save_slice_model(ensemble: gbdt.GbdtEnsemble, identity: str, expected: SliceInput,
                     path) -> None:
    gbdt.save_ensemble(ensemble, _SLICE_MODEL_KIND, _SLICE_MODEL_VERSION,
                       {"identity": identity,
                        "windows": [[spec.center, spec.width] for spec in expected.windows],
                        "slice_shape": list(expected.shape)}, path)


def load_slice_model(path) -> tuple[gbdt.GbdtEnsemble, SliceInput]:
    ensemble, record = gbdt.load_ensemble(path, _SLICE_MODEL_KIND, _SLICE_MODEL_VERSION,
                                          NUM_TYPES)
    if (len(ensemble.groups), ensemble.num_features) != (1, FEATURE_LENGTH):
        raise FormatError(f"{path}: a slice model needs one group of {FEATURE_LENGTH}-feature "
                          f"models, got {len(ensemble.groups)} groups of "
                          f"{ensemble.num_features}-feature models")
    if not isinstance(record.get("identity"), str):
        raise FormatError(f"{path}: slice model identity must be a string")
    try:
        windows = tuple(WindowSpec(float(c), float(w)) for c, w in record["windows"])
    except (KeyError, TypeError, ValueError, OverflowError, PipelineError) as exc:
        raise FormatError(f"{path}: malformed slice model windows: {exc}") from exc
    if len(windows) != 3:
        raise FormatError(f"{path}: slice model must carry 3 windows")
    shape = record.get("slice_shape")
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(side) is int and side >= 1 for side in shape)):
        raise FormatError(f"{path}: slice_shape must be two positive integers, got {shape!r}")
    return ensemble, SliceInput(windows, tuple(shape))
