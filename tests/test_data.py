import dataclasses

import numpy as np
import pytest

from invgate.data import (
    Dataset,
    GeneratorConfig,
    Sample,
    augment_3d,
    bayes_oracle,
    class_means,
    generate,
    load_dataset,
    save_dataset,
    write_manifest,
)
from invgate.errors import CheckpointError, ContractError


def small_cfg(**kw):
    defaults = dict(num_classes=5, shots=8, invariant_dim=4, confound_dim=4,
                    sigma_invariant=0.2, sigma_confound=0.1, p_conflict=0.25,
                    num_views=3, seed=11)
    defaults.update(kw)
    return GeneratorConfig(**defaults)


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    for split in ("train", "test"):
        for sa, sb in zip(a.split(split), b.split(split)):
            if sa.label != sb.label or sa.planted_hard != sb.planted_hard:
                return False
            if sa.hard_targets != sb.hard_targets:
                return False
            if sa.x3.tobytes() != sb.x3.tobytes():
                return False
            if sa.views.tobytes() != sb.views.tobytes():
                return False
    return True


class TestGenerate:
    def test_same_seed_identical(self):
        cfg = small_cfg()
        assert datasets_equal(generate(cfg), generate(cfg))

    def test_no_conflict_no_planted(self):
        ds = generate(small_cfg(p_conflict=0.0))
        assert not any(s.planted_hard for s in ds.train + ds.test)

    def test_planted_count_binomial(self):
        cfg = GeneratorConfig(num_classes=5, shots=40, p_conflict=0.2, seed=3)
        ds = generate(cfg)
        count = sum(s.planted_hard for s in ds.train)
        n, p = 200, 0.2
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(count - n * p) <= 3 * sigma

    def test_planted_targets_distinct(self):
        ds = generate(small_cfg(p_conflict=1.0))
        for s in ds.train:
            r2, r3 = s.hard_targets
            assert r2 != r3 and s.label not in (r2, r3)

    def test_conflict_needs_three_classes(self):
        with pytest.raises(ContractError):
            GeneratorConfig(num_classes=2, p_conflict=0.5)

    def test_splits_disjoint_content(self):
        ds = generate(small_cfg())
        train_bytes = {s.x3.tobytes() for s in ds.train}
        assert all(s.x3.tobytes() not in train_bytes for s in ds.test)

    def test_invariant_block_tracks_class_mean(self):
        cfg = small_cfg(sigma_invariant=0.01, p_conflict=1.0)
        mu, _, _ = class_means(cfg)
        ds = generate(cfg)
        for s in ds.train:
            for vec in [s.x3, *s.views]:
                d = np.linalg.norm(vec[: cfg.invariant_dim] - mu[s.label])
                assert d < 0.2  # conflict touches only the confounder block

    def test_planted_confounders_point_at_wrong_class(self):
        # at sigma_confound ~ 1% of the mean separation, nearest confounder
        # mean identifies the planted wrong class essentially always
        cfg = small_cfg(p_conflict=1.0)
        mu, nu2, nu3 = class_means(cfg)
        sep = min(
            np.linalg.norm(nu3[i] - nu3[j])
            for i in range(cfg.num_classes) for j in range(i)
        )
        cfg = small_cfg(p_conflict=1.0, sigma_confound=0.01 * sep)
        _, nu2, nu3 = class_means(cfg)
        ds = generate(cfg)
        for s in ds.train:
            r2, r3 = s.hard_targets
            con3 = s.x3[cfg.invariant_dim:]
            assert np.linalg.norm(con3 - nu3, axis=1).argmin() == r3
            con2 = s.views.mean(axis=0)[cfg.invariant_dim:]
            assert np.linalg.norm(con2 - nu2, axis=1).argmin() == r2


class TestEquality:
    def test_equal_configs_give_equal_datasets(self):
        a, b = generate(small_cfg()), generate(small_cfg())
        a.arrays("train")                       # a filled cache is not compared
        assert a == b and not (a != b)
        assert a.train[0] == b.train[0]

    @pytest.mark.parametrize("name", ["label", "x3", "hard_targets"])
    def test_one_changed_field_gives_unequal(self, name):
        a, b = generate(small_cfg()), generate(small_cfg())
        i = next(i for i, s in enumerate(b.test) if s.planted_hard == (name == "hard_targets"))
        s = b.test[i]
        new = {"label": (s.label + 1) % 5, "x3": s.x3 + np.eye(1, s.x3.size, 2)[0],
               "hard_targets": s.hard_targets and s.hard_targets[::-1]}[name]
        b.test[i] = dataclasses.replace(s, **{name: new})
        assert a != b and a.test[i] != b.test[i]

    def test_different_seed_unequal(self):
        assert generate(small_cfg()) != generate(small_cfg(seed=12))

    def test_non_dataset_is_unequal(self):
        ds = generate(small_cfg())
        assert ds != "dataset" and not (ds == None)  # noqa: E711
        assert ds.train[0] != "sample"


class TestAugment:
    def test_identity_at_zero_knobs(self):
        x = np.array([1.0, -2.0, 3.0])
        out = augment_3d(x, seed=0, scale_range=(1.0, 1.0), jitter_sigma=0.0, coord_jitter=0.0)
        np.testing.assert_array_equal(out, x)

    def test_seeded_determinism(self):
        x = np.random.default_rng(0).normal(size=6)
        np.testing.assert_array_equal(augment_3d(x, seed=42), augment_3d(x, seed=42))

    def test_augmented_stays_in_class(self):
        cfg = small_cfg(sigma_invariant=0.05, p_conflict=0.0)
        mu, _, _ = class_means(cfg)
        ds = generate(cfg)
        hits = 0
        trials = 0
        for s in ds.train[:50]:
            for t in range(20):
                aug = augment_3d(s.x3, seed=(trials + 1), jitter_sigma=0.025)
                inv = aug[: cfg.invariant_dim]
                hits += np.linalg.norm(inv - mu, axis=1).argmin() == s.label
                trials += 1
        assert hits / trials >= 0.99


class TestBayesOracle:
    def test_noiseless_is_perfect(self):
        ds = generate(small_cfg(sigma_invariant=0.0))
        assert bayes_oracle(ds) == 1.0

    def test_conflict_does_not_touch_oracle(self):
        ds = generate(small_cfg(sigma_invariant=0.0, p_conflict=1.0))
        assert bayes_oracle(ds) == 1.0

    def test_heavy_noise_approaches_chance(self):
        cfg = GeneratorConfig(num_classes=4, shots=250, invariant_dim=4, confound_dim=4,
                              sigma_invariant=50.0, p_conflict=0.0, num_views=1, seed=5)
        acc = bayes_oracle(generate(cfg))
        chance = 1.0 / cfg.num_classes
        assert abs(acc - chance) < 0.08

    def test_oracle_beats_confounder_inclusive_classifier(self):
        cfg = small_cfg(sigma_invariant=0.05, p_conflict=0.4, shots=40)
        ds = generate(cfg)
        mu, nu2, nu3 = class_means(cfg)
        full_means = np.concatenate([mu, nu3], axis=1)
        x3, _, labels = ds.arrays("test")
        dists = np.linalg.norm(x3[:, None, :] - full_means[None, :, :], axis=-1)
        naive_acc = float((dists.argmin(axis=1) == labels).mean())
        assert bayes_oracle(ds) >= naive_acc


class TestPersistence:
    @pytest.mark.parametrize("mode", ["binary", "text"])
    def test_roundtrip(self, tmp_path, mode):
        ds = generate(small_cfg())
        p = tmp_path / f"data.{mode}"
        save_dataset(ds, str(p), mode=mode)
        loaded = load_dataset(str(p))
        assert datasets_equal(ds, loaded)
        assert loaded.config == ds.config
        assert loaded == ds

    @pytest.mark.parametrize("mode", ["binary", "text"])
    def test_byte_stable_resave(self, tmp_path, mode):
        ds = generate(small_cfg())
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_dataset(ds, str(p1), mode=mode)
        save_dataset(load_dataset(str(p1)), str(p2), mode=mode)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_binary_rejected(self, tmp_path):
        ds = generate(small_cfg())
        p = tmp_path / "data.bin"
        save_dataset(ds, str(p), mode="binary")
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) - 100])
        with pytest.raises(CheckpointError, match="truncated"):
            load_dataset(str(p))

    def test_manifest_mentions_counts(self, tmp_path):
        ds = generate(small_cfg())
        p = tmp_path / "manifest.txt"
        write_manifest(ds, str(p))
        text = p.read_text()
        assert "total=40" in text
        assert "class 0: 8" in text


class TestArrays:
    def test_second_call_returns_the_same_arrays(self):
        ds = generate(small_cfg())
        first, second = ds.arrays("train"), ds.arrays("train")
        assert all(a is b for a, b in zip(first, second))
        assert ds.arrays("test")[0] is not first[0]

    def test_arrays_are_read_only(self):
        x3, views, labels = generate(small_cfg()).arrays("test")
        for arr in (x3, views, labels):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_values_equal_a_fresh_stack(self, split):
        ds = generate(small_cfg())
        ds.arrays(split)
        x3, views, labels = ds.arrays(split)
        samples = ds.split(split)
        assert np.array_equal(x3, np.stack([s.x3 for s in samples]))
        assert np.array_equal(views, np.stack([s.views for s in samples]))
        assert np.array_equal(labels, [s.label for s in samples]) and labels.dtype == int

    def test_cache_is_not_compared_or_shown(self):
        ds = generate(small_cfg())
        ds.arrays("train")
        cache, = [f for f in dataclasses.fields(Dataset) if f.name == "_stacked"]
        assert not (cache.compare or cache.repr or cache.init)
        assert "_stacked" not in repr(ds)

    def test_unknown_split_rejected(self):
        with pytest.raises(ContractError):
            generate(small_cfg()).arrays("val")
