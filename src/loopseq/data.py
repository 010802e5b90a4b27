"""Datasets: .ts parsing, deterministic splits, the synthetic task.

The on-disk format is the classification `.ts` layout: `@key value`
header lines, then `@data`, then one example per line with dimensions
separated by ':' and comma-separated values, class label last.  Every
series in a corpus has one length: ragged files, and TRAIN/TEST halves
of different lengths, are rejected naming the file; timestamped and
missing-value files are rejected with a parse error naming the line.

Splits are 70/15/15 with the remainder rounded toward train:
n_val = n_test = round_half_up(0.15 N) = (3N + 10) // 20, n_train the
rest, over a seeded permutation.  N=100 gives 70/15/15; N=204 gives
142/31/31.

Normalization is a per-channel z-score with statistics from the train
portion only (sigma floored at 1e-8).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .reshape import reshape_forward

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
    """A batch of labelled series, all of one length T and width w."""

    name: str
    series: np.ndarray  # [N, T, w] float64
    labels: np.ndarray  # [N] int64
    class_names: list[str]

    def __post_init__(self):
        self.series = np.asarray(self.series, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.series.ndim != 3:
            raise DataError(f"series must be [N, T, w], got shape {self.series.shape}")
        if self.series.shape[1] < 1:
            raise DataError("series must have at least one time step")
        if self.labels.shape != self.series.shape[:1]:
            raise DataError("labels do not match the number of examples")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= len(self.class_names)):
            raise DataError("labels out of range for the declared classes")

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

    def replace(self, **kw) -> "Dataset":
        return dataclasses.replace(self, **kw)

    def subset(self, idx: np.ndarray) -> "Dataset":
        return self.replace(series=self.series[idx], labels=self.labels[idx])


# --- .ts parsing -----------------------------------------------------------------


def load_ts(path) -> Dataset:
    """Parse a `.ts` classification file; ragged files (unequal lengths
    across examples) are rejected."""
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

    lengths = {len(r[0]) for r in rows}
    if len(lengths) > 1:
        raise DataError(f"{path.name}: series lengths vary ({min(lengths)}..{max(lengths)})")
    series = np.empty((len(rows), lengths.pop(), len(rows[0])))
    for i, dims in enumerate(rows):
        for d, vals in enumerate(dims):
            series[i, :, d] = vals

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
        class_names=list(names),
    )


def write_ts(path, ds: Dataset, problem_name: str | None = None) -> None:
    """Emit the dataset in `.ts` layout."""
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(f"@problemName {problem_name or ds.name}\n")
        fh.write("@timeStamps false\n")
        fh.write(f"@univariate {'true' if ds.width == 1 else 'false'}\n")
        fh.write(f"@dimensions {ds.width}\n")
        fh.write("@equalLength true\n")
        fh.write(f"@seriesLength {ds.steps}\n")
        fh.write(f"@classLabel true {' '.join(ds.class_names)}\n")
        fh.write("@data\n")
        for i in range(ds.n):
            dims = [",".join(repr(float(v)) for v in ds.series[i, :, d]) for d in range(ds.width)]
            fh.write(":".join(dims) + f":{ds.class_names[ds.labels[i]]}\n")


def load_named(name: str, data_dir) -> Dataset:
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
    a, b = load_ts(train), load_ts(test)
    if a.series.shape[1:] != b.series.shape[1:] or a.class_names != b.class_names:
        raise DataError(
            f"{archive}: TRAIN and TEST halves disagree on length, width or classes "
            f"([T, w] {list(a.series.shape[1:])} vs {list(b.series.shape[1:])})"
        )
    return Dataset(
        name=name,
        series=np.concatenate([a.series, b.series], axis=0),
        labels=np.concatenate([a.labels, b.labels]),
        class_names=a.class_names,
    )


# --- splits -----------------------------------------------------------------------


def split_sizes(n: int) -> tuple[int, int, int]:
    """70/15/15 with the rounding remainder going to train.

    Below 4 examples the validation and test portions would be empty.
    """
    if n < 4:
        raise DataError(f"need at least 4 examples to split, got {n}")
    n_val = (3 * n + 10) // 20  # round-half-up of 0.15 n
    n_test = n_val
    return n - n_val - n_test, n_val, n_test


def split_dataset(ds: Dataset, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The train, validation and test index arrays of a seeded permutation."""
    n_train, n_val, _ = split_sizes(ds.n)
    perm = np.random.default_rng(seed).permutation(ds.n)
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


# --- normalization ------------------------------------------------------------------


def normalize(ds: Dataset, parts: Sequence[np.ndarray]) -> list[Dataset]:
    """Per-channel z-score of the subsets `ds.subset(idx)`, idx in `parts`,
    from the statistics of the first (the train split).

    Each idx is an index array, so each subset is a copy of its rows of
    `ds`, normalized in place by the operations of `(series - mean) / std`.
    The statistics come from the first copy before any other is made, so
    the transient peak is that copy and one squared-deviation array of it.
    """
    out = [ds.subset(parts[0])]
    tr = out[0].series
    count = tr.shape[0] * tr.shape[1]
    mean = tr.sum(axis=(0, 1)) / count
    dev = tr - mean
    np.square(dev, out=dev)
    std = np.maximum(np.sqrt(dev.sum(axis=(0, 1)) / count), 1e-8)
    del dev
    out += [ds.subset(idx) for idx in parts[1:]]
    for part in out:
        part.series -= mean
        part.series /= std
    return out


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
        class_names=[str(k) for k in range(n_classes)],
    )


# --- training-time reshaping ----------------------------------------------------------


def apply_reshape(ds: Dataset, c: int) -> Dataset:
    """Reshape every series to [rows, c]; `ds` itself at c = 1."""
    return ds if c == 1 else ds.replace(series=reshape_forward(ds.series, c))
