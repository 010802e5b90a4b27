"""Dataset layer: parsing, splits, normalization, the synthetic task."""

import numpy as np
import pytest

from loopseq.data import (
    Dataset,
    apply_reshape,
    load_named,
    load_ts,
    normalize,
    split_dataset,
    split_sizes,
    synth_sine_task,
    write_ts,
)
from loopseq.errors import ConfigError, DataError, ParseError


def _toy(n=10, steps=7, width=3, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        name="toy",
        series=rng.standard_normal((n, steps, width)),
        labels=np.arange(n) % n_classes,
        class_names=[f"c{k}" for k in range(n_classes)],
    )


# --- split rule -------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,expected",
    [
        (100, (70, 15, 15)),
        (204, (142, 31, 31)),
        (20, (14, 3, 3)),
        (10, (6, 2, 2)),
        (3, DataError("at least 4")),  # (3, 0, 0) would leave validation and test empty
        (4, (2, 1, 1)),
    ],
)
def test_split_sizes_rounds_half_up(n, expected):
    if isinstance(expected, DataError):
        with pytest.raises(DataError, match=str(expected)):
            split_sizes(n)
    else:
        assert split_sizes(n) == expected


def test_split_sizes_sum_to_n():
    for n in range(4, 400):
        assert sum(split_sizes(n)) == n


def test_split_partitions_index_range():
    ds = _toy(n=53)
    train, val, test = split_dataset(ds, seed=1)
    combined = np.sort(np.concatenate([train, val, test]))
    assert np.array_equal(combined, np.arange(53))
    assert len(val) == len(test) == split_sizes(53)[1]


def test_split_deterministic_per_seed():
    ds = _toy(n=40)
    a, b = split_dataset(ds, seed=7), split_dataset(ds, seed=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[2], b[2])
    c = split_dataset(ds, seed=8)
    assert not np.array_equal(a[0], c[0])


def test_split_too_small_rejected():
    with pytest.raises(DataError):
        split_sizes(2)


# --- .ts round trips ----------------------------------------------------------------


def test_ts_round_trip_equal_length(tmp_path):
    ds = _toy(n=12, steps=9, width=4, n_classes=3)
    path = tmp_path / "toy.ts"
    write_ts(path, ds)
    back = load_ts(path)
    np.testing.assert_array_equal(back.series, ds.series)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.series.flags.c_contiguous
    assert back.class_names == ds.class_names
    assert back.name == "toy"


def test_ts_ragged_rejected(tmp_path):
    path = tmp_path / "ragged.ts"
    write_ts(path, _toy(n=8, steps=11, seed=3))
    # cut the last example to 10 steps in every dimension
    head, last = path.read_text().rstrip("\n").rsplit("\n", 1)
    *dims, label = last.split(":")
    path.write_text(head + "\n" + ":".join([d.split(",", 1)[1] for d in dims] + [label]) + "\n")
    with pytest.raises(DataError, match=r"ragged\.ts: series lengths vary \(10\.\.11\)"):
        load_ts(path)


def test_ts_univariate_header(tmp_path):
    ds = _toy(n=5, width=1)
    path = tmp_path / "uni.ts"
    write_ts(path, ds)
    text = path.read_text()
    assert "@univariate true" in text
    assert load_ts(path).width == 1


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("1,2:a\n1,2,3:a\n", "lengths vary"),  # handled by DataError below
    ],
)
def test_ts_ragged_message(tmp_path, body, fragment):
    path = tmp_path / "x.ts"
    path.write_text("@problemName x\n@classLabel true a b\n@data\n" + body)
    with pytest.raises(DataError, match=fragment):
        load_ts(path)


@pytest.mark.parametrize(
    "body,lineno",
    [
        ("1,2:a\n1,?,3:a\n", 5),  # missing values
        ("1,2:a\n1,oops:a\n", 5),  # bad float
        ("1,2:3,4:a\n5,6:b\n", 5),  # dimension count changes
        ("1,2,3:4,5:a\n", 4),  # dims differ within one example
    ],
)
def test_ts_parse_errors_carry_line_numbers(tmp_path, body, lineno):
    path = tmp_path / "bad.ts"
    path.write_text("@problemName bad\n@classLabel true a b\n@data\n" + body)
    with pytest.raises(ParseError) as err:
        load_ts(path)
    assert err.value.line == lineno


def test_ts_timestamps_rejected(tmp_path):
    path = tmp_path / "ts.ts"
    path.write_text("@problemName t\n@timeStamps true\n@classLabel true a\n@data\n(0,1):a\n")
    with pytest.raises(ParseError, match="timestamped"):
        load_ts(path)


def test_ts_missing_data_section(tmp_path):
    path = tmp_path / "no.ts"
    path.write_text("@problemName nothing\n@classLabel true a\n")
    with pytest.raises(ParseError, match="@data"):
        load_ts(path)


def test_ts_unlabelled_rejected(tmp_path):
    path = tmp_path / "nolab.ts"
    path.write_text("@problemName n\n@classLabel false\n@data\n1,2\n")
    with pytest.raises(ParseError):
        load_ts(path)


def test_ts_undeclared_label_rejected(tmp_path):
    path = tmp_path / "extra.ts"
    path.write_text("@problemName e\n@classLabel true a b\n@data\n1,2:z\n")
    with pytest.raises(DataError, match="'z'"):
        load_ts(path)


# --- named corpora --------------------------------------------------------------------


def test_load_named_missing_points_at_archive(tmp_path):
    with pytest.raises(DataError) as err:
        load_named("Heartbeat", tmp_path)
    msg = str(err.value)
    assert "Heartbeat.zip" in msg and "timeseriesclassification.com" in msg


def test_load_named_unknown_dataset(tmp_path):
    with pytest.raises(ConfigError, match="unknown dataset"):
        load_named("NotACorpus", tmp_path)


def test_load_named_rejects_halves_of_different_lengths(tmp_path):
    base = tmp_path / "SelfRegulationSCP1"
    base.mkdir()
    write_ts(base / "SelfRegulationSCP1_TRAIN.ts", _toy(n=4, steps=100, width=6))
    write_ts(base / "SelfRegulationSCP1_TEST.ts", _toy(n=4, steps=120, width=6))
    with pytest.raises(DataError, match="SelfRegulationSCP1: TRAIN and TEST halves disagree on length"):
        load_named("SCP1", tmp_path)


def test_load_named_pools_both_halves(tmp_path):
    a, b = _toy(n=6, seed=1), _toy(n=4, seed=2)
    base = tmp_path / "EthanolConcentration"
    base.mkdir()
    write_ts(base / "EthanolConcentration_TRAIN.ts", a)
    write_ts(base / "EthanolConcentration_TEST.ts", b)
    pooled = load_named("Ethanol", tmp_path)
    assert pooled.n == 10
    assert pooled.name == "Ethanol"
    np.testing.assert_array_equal(pooled.series[:6], a.series)
    np.testing.assert_array_equal(pooled.series[6:], b.series)


# --- normalization ---------------------------------------------------------------------


def test_normalize_train_statistics_are_standard():
    ds = _toy(n=60, steps=20, width=5, seed=4)
    ds = ds.replace(series=ds.series * 7.0 + 3.0)
    idx = np.arange(40)
    (out,) = normalize(ds, [idx])
    tr = out.series.reshape(-1, 5)
    np.testing.assert_allclose(tr.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(tr.std(axis=0), 1.0, atol=1e-12)
    assert out.series.shape == (40, 20, 5)  # one statistic per channel


def test_normalize_constant_channel_does_not_blow_up():
    ds = _toy(n=10, steps=8, width=2)
    ds = ds.replace(series=np.concatenate([ds.series[..., :1], np.full((10, 8, 1), 4.25)], axis=-1))
    ds.series[7:, :, 1] = 4.25 + 3e-8  # off the train split's constant, so its std shows
    out = normalize(ds, [np.arange(7), np.arange(7, 10)])
    assert np.all(out[1].series[..., 1] == (4.25 + 3e-8 - 4.25) / 1e-8)  # std floored at 1e-8
    assert all(np.isfinite(part.series).all() for part in out)


# --- synthetic task ----------------------------------------------------------------------


def _fft_centroid_accuracy(ds, train_idx, test_idx):
    # independent oracle: nearest centroid on per-channel spectral energy
    feats = np.abs(np.fft.rfft(ds.series, axis=1)).mean(axis=2)
    cents = np.stack(
        [feats[train_idx][ds.labels[train_idx] == k].mean(axis=0) for k in range(ds.n_classes)]
    )
    d = ((feats[test_idx][:, None, :] - cents[None]) ** 2).sum(axis=2)
    return float((d.argmin(axis=1) == ds.labels[test_idx]).mean())


def test_synth_balanced_and_shaped():
    ds = synth_sine_task(n=128, steps=100, width=2, n_classes=4, seed=0)
    assert ds.series.shape == (128, 100, 2)
    counts = np.bincount(ds.labels, minlength=4)
    assert np.all(counts == 32)


def test_synth_classes_are_spectrally_separable():
    ds = synth_sine_task(n=200, steps=100, n_classes=2, noise=0.0, seed=1)
    train, _, test = split_dataset(ds, seed=0)
    assert _fft_centroid_accuracy(ds, train, test) == 1.0


def test_synth_noise_keeps_separability():
    ds = synth_sine_task(n=200, steps=100, n_classes=3, noise=0.1, seed=2)
    train, _, test = split_dataset(ds, seed=0)
    assert _fft_centroid_accuracy(ds, train, test) >= 0.97


def test_synth_deterministic():
    a = synth_sine_task(n=16, seed=9)
    b = synth_sine_task(n=16, seed=9)
    np.testing.assert_array_equal(a.series, b.series)
    assert not np.array_equal(a.series, synth_sine_task(n=16, seed=10).series)


# --- reshape application -------------------------------------------------------------------


def test_apply_reshape_identity_returns_same_object():
    ds = _toy()
    assert apply_reshape(ds, 1) is ds


# --- container validation ------------------------------------------------------------------


def test_dataset_validation_errors():
    good = _toy()
    with pytest.raises(DataError):
        Dataset("x", good.series[0], good.labels, good.class_names)
    with pytest.raises(DataError):
        good.replace(labels=np.full(good.n, 5))
    with pytest.raises(DataError, match="labels do not match"):
        good.replace(labels=good.labels[:-1])
    with pytest.raises(DataError, match="at least one time step"):
        good.replace(series=good.series[:, :0])


def test_subset_selects_rows():
    ds = _toy(n=12)
    sub = ds.subset(np.array([3, 5]))
    assert sub.n == 2
    np.testing.assert_array_equal(sub.series, ds.series[[3, 5]])
    np.testing.assert_array_equal(sub.labels, ds.labels[[3, 5]])
