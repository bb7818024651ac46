"""The reference slice classifier and the slice-probability exchange files.

A slice model maps each slice of a volume to a 5-vector of independent
per-type probabilities. External models (for instance trained deep networks)
plug in through the slice-probability CSV (``save_slice_probs`` /
``load_slice_probs``); weighing, stacking and thresholding read only that.
The reference classifier ships in-repo: gradient-boosted trees over
handcrafted windowed-intensity features.

Volumes go to probabilities on one path: ``volume_features`` featurizes every
slice of a volume once, and ``predict_by_scan`` runs one predict call over
the feature rows of many scans. Slice position enters the features as the
fraction n/N (1-based slice index over slice count).
"""

from __future__ import annotations

import json

import numpy as np

from . import gbdt
from .errors import ArityError, DataError, FormatError, PipelineError, TrainingError
from .fileio import atomic_write_text, read_json, read_slice_table, write_csv
from .volume import (DEFAULT_WINDOWS, HEMORRHAGE_TYPES, NUM_TYPES, CtVolume, WindowSpec,
                     stack_channels)

HISTOGRAM_BINS = 16
BLOOD_BAND = (0.55, 0.95)
CHANNEL_FEATURES = HISTOGRAM_BINS + 6  # hist, mean, std, p5, p50, p95, band fraction
FEATURE_LENGTH = 3 * CHANNEL_FEATURES + 1  # plus slice position fraction

_PROB_COLUMNS = ("scan_id", "slice_index") + tuple(f"p_{t}" for t in HEMORRHAGE_TYPES)
_SLICE_MODEL_FORMAT = "hemtriage/slice-model"

_BASE_RATE_CLIP = 1e-6

#: Reference classifier training setup; small trees keep per-fold training cheap.
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


class ReferenceSliceClassifier:
    """Gradient-boosted trees over handcrafted features, one model per type."""

    def __init__(self, models, identity: str):
        models = tuple(models)
        if len(models) != NUM_TYPES:
            raise ArityError(f"need one model per hemorrhage type, got {len(models)}")
        dims = {model.num_features for model in models}
        if dims != {FEATURE_LENGTH}:
            raise DataError(f"reference models must consume {FEATURE_LENGTH} features")
        self.models = models
        self.identity = identity

    def classify_features(self, features) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        out = np.empty((features.shape[0], NUM_TYPES))
        for t, model in enumerate(self.models):
            out[:, t] = gbdt.predict(model, features)
        return out


def train_reference_classifier(features, slice_labels, config=None, seed: int = 0
                               ) -> ReferenceSliceClassifier:
    """Fit one binary booster per type on handcrafted slice features.

    Training draws no random numbers: ``seed`` only labels the classifier's
    identity string. A type whose labels are all one class falls back to a
    base-score-only model, i.e. a constant clipped base-rate probability
    (gbdt warns).
    """
    X = np.asarray(features, dtype=np.float64)
    Y = np.asarray(slice_labels)
    if X.ndim != 2 or X.shape[0] == 0:
        raise TrainingError("empty or malformed training set")
    if Y.shape != (X.shape[0], NUM_TYPES):
        raise ArityError(f"slice labels must be ({X.shape[0]}, {NUM_TYPES}), got {Y.shape}")
    if config is None:
        config = DEFAULT_REFERENCE_CONFIG
    models = [gbdt.train(X, Y[:, t].astype(np.float64), config) for t in range(NUM_TYPES)]
    identity = f"reference-gbdt-v1(rounds={config.rounds},seed={seed})"
    return ReferenceSliceClassifier(models, identity)


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


def save_slice_model(classifier: ReferenceSliceClassifier, windows, path) -> None:
    payload = {
        "format": _SLICE_MODEL_FORMAT,
        "version": 1,
        "identity": classifier.identity,
        "windows": [[spec.center, spec.width] for spec in windows],
        "models": [gbdt.model_to_json(m) for m in classifier.models],
    }
    atomic_write_text(path, json.dumps(payload) + "\n")


def load_slice_model(path) -> tuple[ReferenceSliceClassifier, tuple[WindowSpec, ...]]:
    payload = read_json(path, "slice model")
    if not isinstance(payload, dict) or payload.get("format") != _SLICE_MODEL_FORMAT:
        raise FormatError(f"{path}: not a {_SLICE_MODEL_FORMAT} record")
    if payload.get("version") != 1:
        raise FormatError(f"{path}: unsupported version {payload.get('version')!r}")
    try:
        windows = tuple(WindowSpec(float(c), float(w)) for c, w in payload["windows"])
        models = [gbdt.model_from_json(m) for m in payload["models"]]
        classifier = ReferenceSliceClassifier(models, str(payload["identity"]))
    except (KeyError, TypeError, ValueError, PipelineError) as exc:
        raise FormatError(f"{path}: malformed slice model: {exc}") from exc
    if len(windows) != 3:
        raise FormatError(f"{path}: slice model must carry 3 windows")
    return classifier, windows
