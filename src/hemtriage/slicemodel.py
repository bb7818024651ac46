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

Volumes go to probabilities on one path: ``volume_features`` featurizes a
whole volume in one ``extract_features`` call, and ``predict_by_scan`` runs
one predict call over the feature rows of many scans. ``extract_features``
works in the HU domain. Each window is a table over the HU range
(``volume.window_table``), built once per window and kept with the HU levels
that bound its histogram bins and blood band. The windowed channels are
gathered from those tables (``stack_channels``) for the mean and std;
histogram bins, blood band and percentiles are read from the tables and from
order statistics of the int16 HU values, one sort per slice shared by all
three windows. Slice position enters the features as the fraction n/N
(1-based slice index over slice count).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import gbdt
from .errors import DataError, FormatError, PipelineError
from .fileio import is_finite_number, parse_floats, read_slice_table, write_csv
from .volume import (DEFAULT_WINDOWS, HEMORRHAGE_TYPES, HU_MAX, HU_MIN, NUM_TYPES, CtVolume,
                     WindowSpec, stack_channels, window_table)

HISTOGRAM_BINS = 16
BLOOD_BAND = (0.55, 0.95)
CHANNEL_FEATURES = HISTOGRAM_BINS + 6  # hist, mean, std, p5, p50, p95, band fraction
FEATURE_LENGTH = 3 * CHANNEL_FEATURES + 1  # plus slice position fraction
_PERCENTILES = (5, 50, 95)
_NUM_LEVELS = HU_MAX - HU_MIN + 1  # HU levels, HU - HU_MIN, run over [0, _NUM_LEVELS)

_PROB_COLUMNS = ("scan_id", "slice_index") + tuple(f"p_{t}" for t in HEMORRHAGE_TYPES)
_SLICE_MODEL_KIND = "slice-model"
_SLICE_MODEL_VERSION = 4

#: Reference model training setup; small trees keep per-fold training cheap.
DEFAULT_REFERENCE_CONFIG = gbdt.GbdtConfig(
    rounds=60, learning_rate=0.1, max_leaves=8, max_depth=3,
    min_samples_leaf=5, growth="depthwise", l2_reg=1.0)


@lru_cache(maxsize=8)
def _level_bounds(spec: WindowSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A window's table with the HU levels (HU - HU_MIN) that bound its
    histogram bins and its blood band, cached by window like the table.

    Bin k holds windowed values in [edge k, edge k+1), the last bin 1.0 too:
    its levels start at the first level at or above edge k, and ``starts``
    ends with the level count. The band's levels are [band[0], band[1]).
    """
    window = window_table(spec)
    starts = np.append(np.searchsorted(window, np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)[:-1]),
                       len(window))
    band = np.array([np.searchsorted(window, BLOOD_BAND[0]),
                     np.searchsorted(window, BLOOD_BAND[1], side="right")])
    starts.flags.writeable = band.flags.writeable = False
    return window, starts, band


def extract_features(image, position, specs=DEFAULT_WINDOWS) -> np.ndarray:
    """Handcrafted feature rows of a whole volume, one per slice.

    ``image`` is the (slices, height, width) integer HU stack and ``position``
    the (slices,) position fractions from ``slice_positions``. Per window
    channel, a row holds a 16-bin intensity histogram over [0, 1] (raw counts,
    so the bins sum to the pixel count), mean, standard deviation, the
    5th/50th/95th percentiles, and the fraction of pixels in the blood-like
    band [0.55, 0.95]; the slice position fraction is appended last.

    Each row is bit-identical to ``np.histogram``, ``np.percentile`` (linear
    rule), ``mean``, ``std`` and the band mean over that slice's windowed
    channels. Every windowed pixel is the window of one of the HU values in
    [HU_MIN, HU_MAX], and a window is monotone non-decreasing in HU. So each
    histogram bin and the blood band are one interval of HU values, and the
    k-th smallest windowed value is the window of the k-th smallest HU: the
    counts and percentiles of all three windows come from one sort of each
    slice's int16 HU values and per-window tables over the 5,120 HU values.
    Each window's table and its bin and band bounds are built once and
    cached; the windowed channels, which only the mean and std read, are
    gathered from the tables by ``stack_channels``, which also checks the HU
    range.
    """
    hu = np.asarray(image)
    if hu.dtype.kind not in "iu":
        raise DataError(f"expected integer HU values, got dtype {hu.dtype}")
    if hu.ndim != 3 or 0 in hu.shape:
        raise DataError(f"expected a non-empty (slices, height, width) HU stack, "
                        f"got shape {hu.shape}")
    position = np.asarray(position, dtype=np.float64)
    if position.shape != hu.shape[:1]:
        raise DataError(f"expected {hu.shape[0]} slice positions, got shape {position.shape}")
    slices = hu.shape[0]
    channels = stack_channels(hu, specs).reshape(3, slices, -1)
    count = channels.shape[2]
    sorted_hu = np.sort(hu.astype(np.int16, copy=False).reshape(slices, count), axis=1)

    # The sorted HU levels (HU - HU_MIN) of every slice laid end to end, slice
    # s's raised by base[s], so the whole stays sorted and
    # searchsorted(ordered, base[s] + k) is s*n plus the number of pixels of
    # slice s below level k.
    base = _NUM_LEVELS * np.arange(slices)[:, None]
    ordered = (sorted_hu + (base - HU_MIN)).ravel()

    # numpy's linear percentile: virtual index (n - 1) * q, then a + d*t, or
    # b - d*(1 - t) where t >= 0.5.
    virtual = (count - 1) * np.true_divide(_PERCENTILES, 100)
    low = np.floor(virtual)
    gamma = virtual - low
    low = low.astype(np.intp)
    low_level = sorted_hu[:, low] - HU_MIN
    high_level = sorted_hu[:, np.minimum(low + 1, count - 1)] - HU_MIN

    stats = np.empty((slices, 3, CHANNEL_FEATURES))
    for channel, (spec, pixels) in enumerate(zip(specs, channels)):
        window, starts, band = _level_bounds(spec)
        in_band = np.diff(np.searchsorted(ordered, base + band), axis=1)
        a, b = window[low_level], window[high_level]
        d = b - a
        # pixels.mean(axis=1) and pixels.std(axis=1) by numpy's own steps, in
        # place, since nothing reads the channel after them.
        mean = pixels.sum(axis=1) / count
        pixels -= mean[:, None]
        pixels *= pixels
        stats[:, channel] = np.column_stack([
            np.diff(np.searchsorted(ordered, base + starts), axis=1),
            mean, np.sqrt(pixels.sum(axis=1) / count),
            np.where(gamma >= 0.5, b - d * (1 - gamma), a + d * gamma), in_band / count])
    return np.column_stack([stats.reshape(slices, -1), position])


def slice_positions(num_slices: int) -> np.ndarray:
    """Position fraction n/N for 1-based slice index n."""
    return (np.arange(num_slices) + 1.0) / num_slices


def volume_features(volume: CtVolume, specs=DEFAULT_WINDOWS) -> np.ndarray:
    """Feature rows of every slice of a volume, in craniocaudal slice order."""
    return extract_features(volume.slices, slice_positions(volume.num_slices), specs)


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
              ([scan_id, index, *row]
               for scan_id, rows in probs_by_scan.items()
               for index, row in enumerate(np.asarray(rows, dtype=np.float64).tolist())))


def load_slice_probs(path) -> dict[str, np.ndarray]:
    return read_slice_table(path, _PROB_COLUMNS, parse_floats, "probability CSV",
                            bounds=(0.0, 1.0))


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
        windows = record["windows"]
        if not all(is_finite_number(value) for pair in windows for value in pair):
            raise ValueError(f"window values must be finite numbers, got {windows!r}")
        windows = tuple(WindowSpec(float(c), float(w)) for c, w in windows)
    except (KeyError, TypeError, ValueError, PipelineError) as exc:
        raise FormatError(f"{path}: malformed slice model windows: {exc}") from exc
    if len(windows) != 3:
        raise FormatError(f"{path}: slice model must carry 3 windows")
    shape = record.get("slice_shape")
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(side) is int and side >= 1 for side in shape)):
        raise FormatError(f"{path}: slice_shape must be two positive integers, got {shape!r}")
    return ensemble, SliceInput(windows, tuple(shape))
