"""Sliding-window meta-features and the gradient-boosted stacking ensemble.

Each slice's meta-feature row is the flattened window of probability vectors
from ``delta_s`` slices on each side (edge replication at scan boundaries, so
boundary slices are not biased toward "no hemorrhage"). The stacker refines
every slice's 5-vector with one boosted model per type per preset. Its file
is a ``gbdt.save_ensemble`` record of kind ``stacker-model``, version 4,
whose one own field is ``delta_s``; its oblivious models are stored as
levels, the others as nodes.
"""

from __future__ import annotations

import numpy as np

from . import gbdt
from .errors import ArityError, ConfigError, DataError, FormatError
from .slicemodel import predict_by_scan
from .volume import NUM_TYPES

_STACKER_KIND = "stacker-model"
_STACKER_VERSION = 4


def window_length(delta_s: int) -> int:
    return NUM_TYPES * (2 * delta_s + 1)


def build_windows(rows, delta_s: int) -> np.ndarray:
    """Meta-feature rows for one scan: row n is (p_{n-ds}, ..., p_n, ..., p_{n+ds}).

    Out-of-range neighbours clamp to the first/last slice; the center block of
    row n is always p_n itself.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != NUM_TYPES:
        raise DataError(f"probability rows must be (num_slices, {NUM_TYPES}), got {rows.shape}")
    if rows.shape[0] < 1:
        raise ArityError("a scan needs at least one probability row")
    if not np.isfinite(rows).all() or rows.min() < 0.0 or rows.max() > 1.0:
        raise DataError("probability rows must be finite and inside [0, 1]")
    if delta_s < 0:
        raise ConfigError(f"delta_s must be non-negative, got {delta_s}")
    num_slices = rows.shape[0]
    offsets = np.arange(-delta_s, delta_s + 1)
    neighbour = np.clip(np.arange(num_slices)[:, None] + offsets[None, :], 0, num_slices - 1)
    return rows[neighbour].reshape(num_slices, window_length(delta_s))


def stack_training_data(probs_by_scan, labels_by_scan, delta_s: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Window matrix plus per-slice labels over all scans (sorted by scan_id)."""
    features = []
    labels = []
    for scan_id in sorted(probs_by_scan):
        if scan_id not in labels_by_scan:
            raise ConfigError(f"no slice labels for scan {scan_id}")
        rows = np.asarray(probs_by_scan[scan_id], dtype=np.float64)
        matrix = np.asarray(labels_by_scan[scan_id], dtype=bool)
        if matrix.shape != rows.shape:
            raise ArityError(
                f"scan {scan_id}: {rows.shape[0]} probability rows vs {matrix.shape[0]} label rows")
        features.append(build_windows(rows, delta_s))
        labels.append(matrix)
    if not features:
        raise ArityError("no scans to stack")
    return np.concatenate(features), np.concatenate(labels)


def train_stacker(probs_by_scan, labels_by_scan, delta_s: int, configs) -> gbdt.GbdtEnsemble:
    """Train the refining ensemble, one group per config, on (out-of-fold)
    slice probabilities.

    Feeding in-fold predictions here leaks labels; the CLI wires this from the
    out-of-fold command's output.
    """
    X, Y = stack_training_data(probs_by_scan, labels_by_scan, delta_s)
    return gbdt.train_ensemble(X, Y, configs)


def apply_stacker_all(ensemble: gbdt.GbdtEnsemble, probs_by_scan, delta_s: int
                      ) -> dict[str, np.ndarray]:
    """Refined (num_slices, 5) probabilities per scan, from one ensemble call
    over the windows of every scan."""
    expected = window_length(delta_s)
    if ensemble.num_features != expected:
        raise ConfigError(
            f"delta_s={delta_s} yields {expected} features but the ensemble was "
            f"trained on {ensemble.num_features}")
    windows = {scan_id: build_windows(rows, delta_s) for scan_id, rows in probs_by_scan.items()}
    return predict_by_scan(ensemble.predict, windows)


def save_stacker_model(ensemble: gbdt.GbdtEnsemble, delta_s: int, path) -> None:
    gbdt.save_ensemble(ensemble, _STACKER_KIND, _STACKER_VERSION, {"delta_s": delta_s}, path)


def load_stacker_model(path) -> tuple[gbdt.GbdtEnsemble, int]:
    ensemble, record = gbdt.load_ensemble(path, _STACKER_KIND, _STACKER_VERSION, NUM_TYPES)
    delta_s = record.get("delta_s")
    if type(delta_s) is not int or delta_s < 0 or window_length(delta_s) != ensemble.num_features:
        raise FormatError(f"{path}: delta_s must be a non-negative integer giving the "
                          f"ensemble's {ensemble.num_features} features, got {delta_s!r}")
    return ensemble, delta_s
