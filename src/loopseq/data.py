"""Datasets: .ts parsing, deterministic splits, the synthetic task.

The on-disk format is the classification `.ts` layout: `@key value`
header lines, then `@data`, then one example per line with dimensions
separated by ':' and comma-separated values, class label last.  Series
may be ragged across examples (opt-in, zero padded with true lengths
kept); timestamped and missing-value files are rejected with a parse
error naming the line.

Splits are 70/15/15 with the remainder rounded toward train:
n_val = n_test = round_half_up(0.15 N) = (3N + 10) // 20, n_train the
rest, over a seeded permutation.  N=100 gives 70/15/15; N=204 gives
142/31/31.

Normalization is a per-channel z-score with statistics from the train
portion only (sigma floored at 1e-8), computed over valid steps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .reshape import ReshapeSpec, reshape_forward

# canonical corpus metadata: steps, width, classes, and the archive name
# the distribution files use
CANONICAL = {
    "Ethanol": dict(steps=1751, width=2, classes=4, archive="EthanolConcentration"),
    "Worms": dict(steps=17984, width=6, classes=5, archive="EigenWorms"),
    "SCP1": dict(steps=896, width=6, classes=2, archive="SelfRegulationSCP1"),
    "SCP2": dict(steps=1152, width=7, classes=2, archive="SelfRegulationSCP2"),
    "Heartbeat": dict(steps=405, width=61, classes=2, archive="Heartbeat"),
    "Motor": dict(steps=3000, width=63, classes=2, archive="MotorImagery"),
}

_ARCHIVE_URL = "https://www.timeseriesclassification.com/aeon-toolkit/{archive}.zip"


@dataclass
class Dataset:
    """A fixed-width batch of labelled series, zero padded beyond `lengths`."""

    name: str
    series: np.ndarray  # [N, T, w] float64
    labels: np.ndarray  # [N] int64
    lengths: np.ndarray  # [N] true step counts
    class_names: list[str]

    def __post_init__(self):
        self.series = np.asarray(self.series, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        if self.series.ndim != 3:
            raise DataError(f"series must be [N, T, w], got shape {self.series.shape}")
        n = self.series.shape[0]
        if self.labels.shape != (n,) or self.lengths.shape != (n,):
            raise DataError("labels/lengths do not match the number of examples")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= len(self.class_names)):
            raise DataError("labels out of range for the declared classes")
        if np.any(self.lengths < 1) or np.any(self.lengths > self.series.shape[1]):
            raise DataError("lengths must lie in [1, T]")

    @property
    def n(self) -> int:
        return self.series.shape[0]

    @property
    def steps(self) -> int:
        return self.series.shape[1]

    @property
    def width(self) -> int:
        return self.series.shape[2]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def mask(self) -> np.ndarray:
        return np.arange(self.steps)[None, :] < self.lengths[:, None]

    def replace(self, **kw) -> "Dataset":
        return dataclasses.replace(self, **kw)

    def subset(self, idx: np.ndarray) -> "Dataset":
        return self.replace(series=self.series[idx], labels=self.labels[idx], lengths=self.lengths[idx])


# --- .ts parsing -----------------------------------------------------------------


def load_ts(path, pad_ragged: bool = False) -> Dataset:
    """Parse a `.ts` classification file.

    Ragged files (unequal lengths across examples) are rejected unless
    `pad_ragged` is set, in which case short series are zero padded and
    their true lengths kept for masking.
    """
    path = Path(path)
    headers: dict[str, str] = {}
    rows: list[list[np.ndarray]] = []
    raw_labels: list[str] = []
    in_data = False
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not in_data:
                if line.startswith("@"):
                    key, _, value = line[1:].partition(" ")
                    key = key.lower()
                    if key == "data":
                        in_data = True
                        if headers.get("timestamps", "false").lower() == "true":
                            raise ParseError("timestamped series are not supported", lineno)
                        continue
                    headers[key] = value.strip()
                    continue
                raise ParseError(f"expected @header or @data, got {line[:40]!r}", lineno)
            segments = line.split(":")
            if headers.get("classlabel", "").lower().startswith("true"):
                if len(segments) < 2:
                    raise ParseError("missing class label segment", lineno)
                raw_labels.append(segments[-1].strip())
                segments = segments[:-1]
            else:
                raise ParseError("only labelled (classLabel true) files are supported", lineno)
            dims = []
            for seg in segments:
                if "?" in seg:
                    raise ParseError("missing values ('?') are not supported", lineno)
                try:
                    dims.append(np.array([float(v) for v in seg.split(",") if v != ""]))
                except ValueError as exc:
                    raise ParseError(f"bad numeric value ({exc})", lineno) from exc
            if rows and len(dims) != len(rows[0]):
                raise ParseError(
                    f"expected {len(rows[0])} dimensions, got {len(dims)}", lineno
                )
            if len({len(d) for d in dims}) != 1:
                raise ParseError("dimensions of one example differ in length", lineno)
            rows.append(dims)
    if not in_data:
        raise ParseError(f"{path.name}: no @data section found")
    if not rows:
        raise DataError(f"{path.name}: no examples after @data")

    lengths = np.array([len(r[0]) for r in rows], dtype=np.int64)
    if len(set(lengths.tolist())) > 1 and not pad_ragged:
        raise DataError(
            f"{path.name}: series lengths vary ({lengths.min()}..{lengths.max()}); "
            "pass pad_ragged to zero pad"
        )
    T = int(lengths.max())
    width = len(rows[0])
    series = np.zeros((len(rows), T, width))
    for i, dims in enumerate(rows):
        for d, vals in enumerate(dims):
            series[i, : len(vals), d] = vals

    declared = headers.get("classlabel", "")
    names = declared.split()[1:] if declared.lower().startswith("true") else []
    if not names:
        names = sorted(set(raw_labels))
    index = {c: i for i, c in enumerate(names)}
    try:
        labels = np.array([index[c] for c in raw_labels], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"{path.name}: label {exc.args[0]!r} not among declared classes {names}")

    name = headers.get("problemname", path.stem)
    return Dataset(
        name=name,
        series=series,
        labels=labels,
        lengths=lengths,
        class_names=list(names),
    )


def write_ts(path, ds: Dataset, problem_name: str | None = None) -> None:
    """Emit the dataset in `.ts` layout (true lengths only, so ragged survives)."""
    path = Path(path)
    equal = bool((ds.lengths == ds.lengths[0]).all())
    with open(path, "w") as fh:
        fh.write(f"@problemName {problem_name or ds.name}\n")
        fh.write("@timeStamps false\n")
        fh.write(f"@univariate {'true' if ds.width == 1 else 'false'}\n")
        fh.write(f"@dimensions {ds.width}\n")
        fh.write(f"@equalLength {'true' if equal else 'false'}\n")
        if equal:
            fh.write(f"@seriesLength {int(ds.lengths[0])}\n")
        fh.write(f"@classLabel true {' '.join(ds.class_names)}\n")
        fh.write("@data\n")
        for i in range(ds.n):
            L = int(ds.lengths[i])
            dims = [",".join(repr(float(v)) for v in ds.series[i, :L, d]) for d in range(ds.width)]
            fh.write(":".join(dims) + f":{ds.class_names[ds.labels[i]]}\n")


def load_named(name: str, data_dir, pad_ragged: bool = False) -> Dataset:
    """Load a canonical corpus from `<data_dir>/<Archive>/<Archive>_{TRAIN,TEST}.ts`.

    The distribution's train/test halves are pooled; splits here are
    always regenerated from seeds.
    """
    if name not in CANONICAL:
        raise ConfigError(f"unknown dataset {name!r}; expected one of {sorted(CANONICAL)}")
    meta = CANONICAL[name]
    archive = meta["archive"]
    base = Path(data_dir) / archive
    train, test = base / f"{archive}_TRAIN.ts", base / f"{archive}_TEST.ts"
    if not train.exists() or not test.exists():
        raise DataError(
            f"dataset files not found under {base}; fetch and unzip "
            f"{_ARCHIVE_URL.format(archive=archive)} into {Path(data_dir)}"
        )
    parts = [load_ts(train, pad_ragged=pad_ragged), load_ts(test, pad_ragged=pad_ragged)]
    a, b = parts
    if a.width != b.width or a.class_names != b.class_names:
        raise DataError(f"{archive}: TRAIN and TEST halves disagree on width or classes")
    T = max(a.steps, b.steps)

    def grow(d: Dataset) -> np.ndarray:
        if d.steps == T:
            return d.series
        out = np.zeros((d.n, T, d.width))
        out[:, : d.steps] = d.series
        return out

    return Dataset(
        name=name,
        series=np.concatenate([grow(a), grow(b)], axis=0),
        labels=np.concatenate([a.labels, b.labels]),
        lengths=np.concatenate([a.lengths, b.lengths]),
        class_names=a.class_names,
    )


# --- splits -----------------------------------------------------------------------


@dataclass(frozen=True)
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def split_sizes(n: int) -> tuple[int, int, int]:
    """70/15/15 with the rounding remainder going to train.

    Below 4 examples the validation and test portions would be empty.
    """
    if n < 4:
        raise DataError(f"need at least 4 examples to split, got {n}")
    n_val = (3 * n + 10) // 20  # round-half-up of 0.15 n
    n_test = n_val
    return n - n_val - n_test, n_val, n_test


def split_dataset(ds: Dataset, seed: int) -> Split:
    n_train, n_val, n_test = split_sizes(ds.n)
    perm = np.random.default_rng(seed).permutation(ds.n)
    return Split(
        train=perm[:n_train],
        val=perm[n_train : n_train + n_val],
        test=perm[n_train + n_val :],
    )


# --- normalization ------------------------------------------------------------------


def normalize(ds: Dataset, train_idx: np.ndarray) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """Per-channel z-score from train-split statistics over valid steps."""
    tr = ds.series[train_idx]
    valid = ds.mask[train_idx][..., None]
    count = valid.sum(axis=(0, 1))
    mean = (tr * valid).sum(axis=(0, 1)) / np.maximum(count, 1)
    var = (((tr - mean) * valid) ** 2).sum(axis=(0, 1)) / np.maximum(count, 1)
    std = np.maximum(np.sqrt(var), 1e-8)
    out = (ds.series - mean) / std
    out *= ds.mask[..., None]  # padding stays exactly zero
    return ds.replace(series=out), mean, std


# --- synthetic task -----------------------------------------------------------------


def synth_sine_task(
    n: int = 512,
    steps: int = 100,
    width: int = 2,
    n_classes: int = 2,
    noise: float = 0.1,
    seed: int = 0,
) -> Dataset:
    """Class-banded sinusoids: class k oscillates at 3 + 9k (+-1) cycles.

    Labels are balanced round-robin.  The bands are far enough apart
    that spectral energy separates classes linearly; a nearest-centroid
    rule on FFT energy gets 100% at zero noise.
    """
    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % n_classes
    t = np.arange(steps) / steps
    series = np.empty((n, steps, width))
    for i in range(n):
        freq = 3.0 + 9.0 * labels[i] + rng.uniform(-1.0, 1.0)
        amp = rng.uniform(0.8, 1.2, width)
        phase = rng.uniform(0.0, 2.0 * np.pi, width)
        series[i] = amp * np.sin(2.0 * np.pi * freq * t[:, None] + phase)
    series += noise * rng.standard_normal(series.shape)
    return Dataset(
        name=f"synth{n_classes}",
        series=series,
        labels=labels,
        lengths=np.full(n, steps, dtype=np.int64),
        class_names=[str(k) for k in range(n_classes)],
    )


# --- training-time reshaping ----------------------------------------------------------


def apply_reshape(ds: Dataset, spec: ReshapeSpec) -> Dataset:
    """Reshape every series; valid rows stay a prefix because the
    flattening is time-major, so lengths map to ceil(len * w / c)."""
    if (ds.steps, ds.width) != spec.original_shape:
        raise ConfigError(
            f"reshape spec is for shape {spec.original_shape}, dataset is {(ds.steps, ds.width)}"
        )
    if spec.concentration == 1:
        return ds
    series = reshape_forward(ds.series, spec)
    lengths = -(-(ds.lengths * ds.width) // spec.concentration)
    return ds.replace(series=series, lengths=lengths)
