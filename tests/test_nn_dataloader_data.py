"""DataLoader and the synthetic dataset substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import DifficultyDistribution, SyntheticVisionDataset, train_val_test_split
from repro.nn.dataloader import DataLoader


class TestDataLoader:
    def _data(self, n=10):
        return np.arange(n * 2).reshape(n, 2).astype(float), np.arange(n)

    def test_covers_all_samples(self):
        x, y = self._data(10)
        loader = DataLoader(x, y, batch_size=3, shuffle=True, rng=0)
        seen = np.concatenate([labels for _, labels in loader])
        assert sorted(seen.tolist()) == list(range(10))

    def test_drop_last(self):
        x, y = self._data(10)
        loader = DataLoader(x, y, batch_size=3, drop_last=True, rng=0)
        batches = list(loader)
        assert len(batches) == 3 == len(loader)
        assert all(len(b[1]) == 3 for b in batches)

    def test_len_without_drop(self):
        x, y = self._data(10)
        assert len(DataLoader(x, y, batch_size=3)) == 4

    def test_images_match_labels(self):
        x, y = self._data(8)
        loader = DataLoader(x, y, batch_size=4, shuffle=True, rng=1)
        for bx, by in loader:
            np.testing.assert_array_equal(bx[:, 0] // 2, by)

    def test_epochs_reshuffle(self):
        x, y = self._data(16)
        loader = DataLoader(x, y, batch_size=16, shuffle=True, rng=2)
        first = next(iter(loader))[1].copy()
        second = next(iter(loader))[1].copy()
        assert not np.array_equal(first, second)

    def test_no_shuffle_preserves_order(self):
        x, y = self._data(6)
        loader = DataLoader(x, y, batch_size=2, shuffle=False)
        order = np.concatenate([labels for _, labels in loader])
        np.testing.assert_array_equal(order, y)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            DataLoader(np.zeros((3, 1)), np.zeros(2))

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(np.zeros((3, 1)), np.zeros(3), batch_size=0)


class TestDifficultyDistribution:
    def test_samples_in_unit_interval(self):
        d = DifficultyDistribution()
        samples = d.sample(500, np.random.default_rng(0))
        assert samples.min() >= 0 and samples.max() <= 1

    def test_cdf_quantile_inverse(self):
        d = DifficultyDistribution(2.0, 3.0)
        for q in (0.1, 0.5, 0.9):
            assert d.cdf(d.quantile(q)) == pytest.approx(q)

    def test_mean_formula(self):
        d = DifficultyDistribution(2.0, 6.0)
        assert d.mean == pytest.approx(0.25)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DifficultyDistribution(alpha=0)

    # No deadline: run on its own, the first example pays the one-time
    # scipy import that ``cdf`` defers.
    @settings(deadline=None)
    @given(st.floats(0.01, 0.99))
    def test_cdf_monotone(self, t):
        d = DifficultyDistribution()
        assert d.cdf(t) <= d.cdf(min(t + 0.01, 1.0)) + 1e-12

    def test_entry_modules_import_without_scipy(self):
        """scipy loads only when ``cdf``/``quantile`` run, so importing the
        package and its search and serving entry points skips it."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        modules = (
            "repro",
            "repro.search.hadas",
            "repro.experiments.fig5",
            "repro.serving.fleet",
        )
        code = (
            f"import sys\nimport {', '.join(modules)}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestSyntheticVisionDataset:
    def test_shapes(self):
        ds = SyntheticVisionDataset(num_classes=5, image_size=12, channels=2, seed=0)
        images, labels, diff = ds.generate(20)
        assert images.shape == (20, 2, 12, 12)
        assert labels.shape == (20,) and labels.max() < 5
        assert diff.shape == (20,)

    def test_deterministic_per_split(self):
        ds = SyntheticVisionDataset(seed=1)
        a = ds.generate(10, split="train")
        b = ds.generate(10, split="train")
        np.testing.assert_array_equal(a[0], b[0])

    def test_splits_disjoint_streams(self):
        ds = SyntheticVisionDataset(seed=1)
        train = ds.generate(10, split="train")[0]
        val = ds.generate(10, split="val")[0]
        assert not np.allclose(train, val)

    def test_difficulty_scales_noise(self):
        ds = SyntheticVisionDataset(num_classes=4, seed=2)
        images, labels, diff = ds.generate(400)
        residual = images - ds.prototypes[labels]
        # Per-sample residual RMS should correlate with difficulty (the
        # random translations add a difficulty-independent component, so the
        # correlation is strong but not perfect).
        rms = np.sqrt((residual**2).mean(axis=(1, 2, 3)))
        corr = np.corrcoef(rms, diff)[0, 1]
        assert corr > 0.6

    def test_easy_samples_classifiable(self):
        # Small images + heavy noise so hard samples defeat the matched
        # filter; the property under test is the difficulty *ordering*.
        ds = SyntheticVisionDataset(num_classes=4, image_size=8, noise_scale=10.0, seed=3)
        images, labels, diff = ds.generate(400)
        easy = diff < 0.3
        acc_easy = ds.bayes_reference_accuracy(images[easy], labels[easy])
        acc_hard = ds.bayes_reference_accuracy(images[~easy], labels[~easy])
        assert acc_easy > acc_hard + 0.05
        assert acc_easy > 0.5

    def test_prototypes_distinct(self):
        ds = SyntheticVisionDataset(num_classes=6, seed=4)
        protos = ds.prototypes.reshape(6, -1)
        gram = protos @ protos.T
        norm = np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
        cosine = gram / norm
        off_diag = cosine[~np.eye(6, dtype=bool)]
        assert np.abs(off_diag).max() < 0.9


class TestSplits:
    def test_partition_sizes(self):
        x = np.arange(100).reshape(100, 1)
        y = np.arange(100)
        parts = train_val_test_split(x, y, val_fraction=0.2, test_fraction=0.1, rng=0)
        assert len(parts["val"][0]) == 20
        assert len(parts["test"][0]) == 10
        assert len(parts["train"][0]) == 70

    def test_no_overlap_and_complete(self):
        x = np.arange(50).reshape(50, 1)
        y = np.arange(50)
        parts = train_val_test_split(x, y, rng=1)
        all_labels = np.concatenate([parts[k][1] for k in ("train", "val", "test")])
        assert sorted(all_labels.tolist()) == list(range(50))

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            train_val_test_split(np.zeros((4, 1)), np.zeros(4), 0.6, 0.6)
