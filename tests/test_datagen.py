import numpy as np
import pytest

from rinclose import (
    EnumParams,
    GenConfig,
    enumerate_chv_perfect,
    enumerate_cvc,
    generate,
    is_valid,
    precision_recall,
)


def small_config(**overrides):
    base = dict(
        n=60, m=18, num_bics=3, bic_rows=10, bic_cols=4,
        overlap=0.2, noise_sigma=0.0, seed=1, pattern="chv-shift",
    )
    base.update(overrides)
    return GenConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(pattern="checkerboard")
    with pytest.raises(ValueError):
        small_config(bic_rows=61)  # taller than the matrix
    with pytest.raises(ValueError):
        small_config(overlap=1.0)
    with pytest.raises(ValueError):
        small_config(overlap=-0.1)
    with pytest.raises(ValueError):
        small_config(noise_sigma=-0.01)
    with pytest.raises(ValueError):
        small_config(num_bics=-1)
    with pytest.raises(ValueError):
        small_config(pattern="chv-shift", bic_cols=1)


def test_zero_blocks_is_a_background_only_matrix():
    mat, truth = generate(small_config(num_bics=0, n=10, m=5))
    assert mat.shape == (10, 5)
    assert len(truth) == 0


def test_config_rejects_impossible_packing():
    # 3 disjoint blocks of 25 rows cannot fit in 60 rows
    with pytest.raises(ValueError, match="pack"):
        small_config(bic_rows=25, overlap=0.0)
    small_config(bic_rows=25, overlap=0.8, num_bics=2)  # chaining makes it fit


def test_generation_is_deterministic():
    cfg = small_config(noise_sigma=0.01)
    m1, t1 = generate(cfg)
    m2, t2 = generate(cfg)
    assert np.array_equal(m1.values, m2.values)
    assert t1.as_set() == t2.as_set()
    m3, _ = generate(small_config(noise_sigma=0.01, seed=2))
    assert not np.array_equal(m1.values, m3.values)


def test_shapes_and_truth_sizes():
    cfg = small_config()
    mat, truth = generate(cfg)
    assert mat.shape == (60, 18)
    assert len(truth) == 3
    for b in truth.biclusters:
        assert len(b.rows) == 10 and len(b.cols) == 4


def test_noiseless_chv_blocks_are_perfect():
    mat, truth = generate(small_config())
    p = EnumParams(0.0, 1, 2, "chv-p")
    for b in truth.biclusters:
        assert is_valid(mat, b, p)
    assert truth.stats.extras["planted_residues"] == [0.0, 0.0, 0.0]


def test_noiseless_cvc_blocks_are_perfect():
    mat, truth = generate(small_config(pattern="cvc"))
    p = EnumParams(0.0, 1, 1, "cvc-p")
    for b in truth.biclusters:
        assert is_valid(mat, b, p)


def test_consecutive_blocks_share_the_configured_slices():
    # the solution is sorted, so the planting chain is recovered from the
    # pairwise intersection sizes: exactly num_bics-1 consecutive pairs share
    # the configured slice, all other pairs are disjoint
    cfg = small_config(overlap=0.5)
    _, truth = generate(cfg)
    assert (cfg.shared_rows, cfg.shared_cols) == (5, 2)
    bics = truth.biclusters
    shares = sorted(
        (len(set(a.rows) & set(b.rows)), len(set(a.cols) & set(b.cols)))
        for i, a in enumerate(bics)
        for b in bics[i + 1:]
    )
    assert shares == [(0, 0), (5, 2), (5, 2)]


def test_zero_overlap_means_disjoint_blocks():
    _, truth = generate(small_config(overlap=0.0))
    bics = truth.biclusters
    for i, a in enumerate(bics):
        for b in bics[i + 1:]:
            assert not set(a.rows) & set(b.rows)
            assert not set(a.cols) & set(b.cols)


def test_noise_residues_stay_bounded():
    # per-column ranges pick up noise twice (one max, one min cell); pairwise
    # column differences can pick it up four times
    cfg_cvc = small_config(pattern="cvc", noise_sigma=0.01, seed=9)
    _, truth = generate(cfg_cvc)
    max_noise = truth.stats.extras["max_abs_noise_in_blocks"]
    assert 0.0 < max_noise < 0.1
    for res in truth.stats.extras["planted_residues"]:
        assert 0.0 < res <= 2.0 * max_noise

    cfg_chv = small_config(noise_sigma=0.01, seed=9)
    _, truth = generate(cfg_chv)
    max_noise = truth.stats.extras["max_abs_noise_in_blocks"]
    for res in truth.stats.extras["planted_residues"]:
        assert 0.0 < res <= 4.0 * max_noise


def test_recorded_residues_match_the_matrix():
    cfg = small_config(noise_sigma=0.01, seed=4)
    mat, truth = generate(cfg)
    for b, recorded in zip(truth.biclusters, truth.stats.extras["planted_residues"]):
        sub = mat.values[np.ix_(b.rows, b.cols)]
        diffs = sub[:, :, None] - sub[:, None, :]
        res = (diffs.max(axis=0) - diffs.min(axis=0)).max()
        assert res == pytest.approx(recorded, abs=1e-12)


def test_truth_params_name_the_pattern():
    _, t1 = generate(small_config())
    assert t1.params.bic_type == "chv-p"
    _, t2 = generate(small_config(pattern="cvc"))
    assert t2.params.bic_type == "cvc-p"


def test_noiseless_roundtrip_chv():
    cfg = small_config(seed=3)
    mat, truth = generate(cfg)
    found = enumerate_chv_perfect(mat, EnumParams(0.0, cfg.bic_rows, cfg.bic_cols, "chv-p"))
    assert precision_recall(found.biclusters, truth.biclusters, cfg.n, cfg.m) == (1.0, 1.0)
    assert found.as_set() == truth.as_set()


def test_noiseless_roundtrip_cvc():
    cfg = small_config(pattern="cvc", seed=3)
    mat, truth = generate(cfg)
    found = enumerate_cvc(mat, EnumParams(0.0, cfg.bic_rows, cfg.bic_cols, "cvc-p"))
    assert precision_recall(found.biclusters, truth.biclusters, cfg.n, cfg.m) == (1.0, 1.0)
