import os
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invgate import container
from invgate.data import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MAGIC,
    SPLITS,
    Dataset,
    GeneratorConfig,
    Split,
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
    return a == b and all(np.array_equal(a.splits[s].targets, b.splits[s].targets)
                          and np.array_equal(a.splits[s].planted, b.splits[s].planted)
                          for s in SPLITS)


def copied_splits(ds: Dataset) -> dict[str, Split]:
    return {name: Split(*(arr.copy() for arr in ds.splits[name])) for name in SPLITS}


def reference_binary(ds: Dataset, path: str) -> None:
    """The binary layout written one sample at a time: per sample, label,
    planted and the two targets (-1 when not planted) as <i8, then x3 and
    the views as <f8."""
    cfg = ds.config
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "mode": "binary",
              "config": asdict(cfg), "counts": {s: cfg.num_classes * cfg.shots for s in SPLITS}}
    container.write(path, MAGIC, FORMAT_VERSION, header, (
        block for s in ds.train + ds.test
        for block in (np.array([s.label, s.planted_hard, *(s.hard_targets or (-1, -1))], "<i8"),
                      np.ascontiguousarray(s.x3, "<f8"), np.ascontiguousarray(s.views, "<f8"))))


def generate_row_oracle(cfg: GeneratorConfig) -> Dataset:
    """`generate` as it was before it drew class blocks: row by row, five
    `normal` calls a row and `choice` for the wrong classes."""
    mu, nu2, nu3 = class_means(cfg)
    n, d = cfg.num_classes * cfg.shots, cfg.invariant_dim
    splits = {}
    for split_idx, name in enumerate(SPLITS):
        rows = Split(np.empty((n, cfg.dim)), np.empty((n, cfg.num_views, cfg.dim)),
                     np.repeat(np.arange(cfg.num_classes), cfg.shots),
                     np.zeros(n, dtype=bool), np.full((n, 2), -1))
        for i, label in enumerate(rows.labels.tolist()):
            if i % cfg.shots == 0:
                rng = np.random.default_rng(
                    np.random.SeedSequence([cfg.seed, split_idx, label, 0xD5]))
            t2 = t3 = label
            if rng.random() < cfg.p_conflict:
                others = [c for c in range(cfg.num_classes) if c != label]
                t2 = int(rng.choice(others))
                t3 = int(rng.choice([c for c in others if c != t2]))
                rows.planted[i] = True
                rows.targets[i] = (t2, t3)
            rows.x3[i, :d] = mu[label] + cfg.sigma_invariant * rng.normal(size=d)
            rows.x3[i, d:] = nu3[t3] + cfg.sigma_confound * rng.normal(size=cfg.confound_dim)
            base2 = np.concatenate([
                mu[label] + cfg.sigma_invariant * rng.normal(size=d),
                nu2[t2] + cfg.sigma_confound * rng.normal(size=cfg.confound_dim)])
            rows.views[i] = base2 + 0.5 * cfg.sigma_invariant * rng.normal(
                size=(cfg.num_views, cfg.dim))
        splits[name] = rows
    return Dataset(cfg, splits)


class TestGenerate:
    @settings(max_examples=60, deadline=None)
    @given(num_classes=st.integers(3, 12), shots=st.integers(1, 20),
           num_views=st.integers(1, 4), invariant_dim=st.integers(1, 12),
           confound_dim=st.integers(1, 8), p_conflict=st.sampled_from([0.0, 0.25, 1.0]),
           sigma_invariant=st.sampled_from([0.0, 0, 0.3, 2.5]),
           sigma_confound=st.sampled_from([0.0, 0.05, 1]),
           confound_shared_frac=st.sampled_from([0.0, 0.4, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_blocks_equal_row_by_row(self, **fields):
        cfg = GeneratorConfig(**fields)
        got, want = generate(cfg), generate_row_oracle(cfg)
        for name in SPLITS:
            for a, b in zip(got.splits[name], want.splits[name], strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    def test_negative_zero_normal_enters_as_positive_zero(self, monkeypatch):
        # Generator.normal returns 0.0 + 1.0 * z, so a drawn -0.0 enters as +0.0,
        # and a -0.0 class mean plus it is +0.0
        class Draws:
            def __init__(self, seed):
                pass

            def random(self):
                return 0.5

            def standard_normal(self, out):
                out[...] = -0.0

        cfg = small_cfg(p_conflict=0.0)
        means = [np.full((cfg.num_classes, w), -0.0)
                 for w in (cfg.invariant_dim, cfg.confound_dim, cfg.confound_dim)]
        monkeypatch.setattr("invgate.data.class_means", lambda cfg: means)
        monkeypatch.setattr(np.random, "default_rng", Draws)
        ds = generate(cfg)
        assert not any(np.signbit(a).any() for s in SPLITS for a in ds.splits[s][:2])

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
        assert a == b and not (a != b)

    @pytest.mark.parametrize("name", ["label", "x3", "hard_targets"])
    def test_one_changed_field_gives_unequal(self, name):
        a = generate(small_cfg())
        splits = copied_splits(a)
        test = splits["test"]
        i = int(np.argmax(test.planted == (name == "hard_targets")))
        if name == "label":
            test.labels[i] = (test.labels[i] + 1) % 5
        elif name == "x3":
            test.x3[i, 2] += 1.0
        else:
            test.targets[i] = test.targets[i, ::-1].copy()
        b = Dataset(a.config, splits)
        assert a != b and b != a

    @pytest.mark.parametrize("p_conflict, field, value", [
        (1.0, "targets", (2, 2)),       # two equal targets
        (1.0, "targets", (0, 3)),       # a target equal to the label
        (1.0, "targets", (3, 5)),       # a target outside [0, num_classes)
        (1.0, "labels", 99),
        (0.0, "targets", (1, 2)),       # targets on a row that is not planted
    ], ids=["equal_targets", "target_is_label", "target_out_of_range", "label_99",
            "unplanted_with_targets"])
    def test_invalid_row_rejected_at_construction(self, p_conflict, field, value):
        a = generate(small_cfg(p_conflict=p_conflict))
        splits = copied_splits(a)
        i = int(np.argmax(splits["train"].labels == 0))   # label 0, planted iff p_conflict is 1
        getattr(splits["train"], field)[i] = value
        with pytest.raises(ContractError, match=f"train row {i}: "):
            Dataset(a.config, splits)

    def test_different_seed_unequal(self):
        assert generate(small_cfg()) != generate(small_cfg(seed=12))

    def test_non_dataset_is_unequal(self):
        ds = generate(small_cfg())
        assert ds != "dataset" and not (ds == None)  # noqa: E711
        assert ds.train[0] != "sample"


def augment_row_oracle(x3, rng, scale_range=(0.8, 1.25), jitter_sigma=0.15, coord_jitter=0.05):
    """One row augmented on its own, as `augment_3d` did before it took blocks."""
    scale = rng.uniform(*scale_range)
    wobble = 1.0 + coord_jitter * rng.uniform(-1.0, 1.0, size=x3.shape)
    jitter = jitter_sigma * rng.normal(size=x3.shape) if jitter_sigma > 0 else 0.0
    return x3 * scale * wobble + jitter


class TestAugment:
    @settings(max_examples=60, deadline=2000)
    @given(k=st.integers(1, 40), d=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           jitter_sigma=st.sampled_from([0.0, 0.075, 0.15]))
    def test_block_equals_row_by_row(self, k, d, seed, jitter_sigma):
        x = np.random.default_rng(seed).normal(size=(k, d))
        kw = dict(jitter_sigma=jitter_sigma)
        block_rng, row_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        block = augment_3d(x, block_rng, **kw)
        rows = np.stack([augment_row_oracle(row, row_rng, **kw) for row in x])
        assert block.shape == x.shape and block.tobytes() == rows.tobytes()
        assert block_rng.random() == row_rng.random()      # the stream is left where rows leave it
        one_rng = np.random.default_rng(seed + 1)
        assert augment_3d(x[:1], one_rng, **kw).tobytes() == augment_row_oracle(
            x[0], np.random.default_rng(seed + 1), **kw).tobytes()

    @settings(max_examples=40, deadline=2000)
    @given(k=st.integers(1, 12), d=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
           jitter_sigma=st.sampled_from([0.0, 0.15]), blocks=st.integers(2, 3))
    def test_consecutive_blocks_equal_rows(self, k, d, seed, jitter_sigma, blocks):
        # the trainer draws n_3d_augments blocks from one generator per batch
        x = np.random.default_rng(seed).normal(size=(k, d))
        block_rng, row_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for _ in range(blocks):
            block = augment_3d(x, block_rng, jitter_sigma)
            rows = np.stack([augment_row_oracle(row, row_rng, jitter_sigma=jitter_sigma)
                             for row in x])
            assert block.tobytes() == rows.tobytes()
        assert block_rng.bit_generator.state == row_rng.bit_generator.state

    def test_negative_zero_normal_adds_as_positive_zero(self):
        # Generator.normal returns 0.0 + 1.0 * z, so a drawn -0.0 enters as +0.0,
        # and a -0.0 coordinate plus it is +0.0
        class Draws:
            def random(self, out):
                out[...] = 0.5

            def standard_normal(self, out):
                out[...] = -0.0

        out = augment_3d(np.full((2, 3), -0.0), Draws(), 0.15)
        assert not np.signbit(out).any()

    @pytest.mark.parametrize("kw", [
        {"jitter_sigma": -0.1}, {"jitter_sigma": float("nan")}, {"jitter_sigma": float("inf")},
    ], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_bad_knobs_rejected(self, kw):
        with pytest.raises(ContractError):
            augment_3d(np.ones((1, 3)), np.random.default_rng(0), **kw)

    def test_seeded_determinism(self):
        x = np.random.default_rng(0).normal(size=(1, 6))
        np.testing.assert_array_equal(augment_3d(x, np.random.default_rng(42), 0.15),
                                      augment_3d(x, np.random.default_rng(42), 0.15))

    def test_augmented_stays_in_class(self):
        cfg = small_cfg(sigma_invariant=0.05, p_conflict=0.0)
        mu, _, _ = class_means(cfg)
        ds = generate(cfg)
        hits = 0
        trials = 0
        for s in ds.train[:50]:
            for t in range(20):
                aug = augment_3d(s.x3[None], np.random.default_rng(trials + 1), jitter_sigma=0.025)
                inv = aug[0, : cfg.invariant_dim]
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

    @settings(max_examples=25, deadline=None)
    @given(num_classes=st.integers(3, 5), shots=st.integers(1, 3), num_views=st.integers(1, 3),
           invariant_dim=st.integers(1, 4), confound_dim=st.integers(1, 4),
           p_conflict=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**16))
    def test_files_match_a_per_sample_writer(self, **fields):
        ds = generate(GeneratorConfig(**fields))
        with tempfile.TemporaryDirectory() as tmp:
            ref, path, again = (os.path.join(tmp, name) for name in ("ref", "file", "again"))
            reference_binary(ds, ref)
            for mode in ("binary", "text"):
                save_dataset(ds, path, mode=mode)
                loaded = load_dataset(path)
                assert datasets_equal(loaded, ds)
                save_dataset(loaded, again, mode=mode)
                with open(path, "rb") as a, open(again, "rb") as b:
                    blob = a.read()
                    assert blob == b.read()
                if mode == "binary":
                    with open(ref, "rb") as r:
                        assert blob == r.read()

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
        # the rows of `train`/`test` are the arrays' rows, as perfbench reads them
        ds = generate(small_cfg())
        x3, views, labels = ds.arrays(split)
        planted, targets = ds.splits[split].planted, ds.splits[split].targets
        samples = getattr(ds, split)
        assert np.array_equal(x3, np.stack([s.x3 for s in samples]))
        assert np.array_equal(views, np.stack([s.views for s in samples]))
        assert np.array_equal(labels, [s.label for s in samples]) and labels.dtype == int
        assert [s.planted_hard for s in samples] == planted.tolist() and planted.any()
        assert [s.hard_targets for s in samples] == [
            tuple(t) if p else None for t, p in zip(targets.tolist(), planted)]

    def test_unknown_split_rejected(self):
        with pytest.raises(ContractError):
            generate(small_cfg()).arrays("val")
