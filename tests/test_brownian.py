import math

import numpy as np
import pytest

from stochns.brownian import (PathSpec, _standard_normals, _uniforms, increments,
                              increments_paths, ndtri, refine, refine_paths)


def test_bit_identical_reproduction():
    spec = PathSpec(master_seed=99, path_index=3, n_processes=5)
    a = increments(spec, 0.0, 0.01, 500)
    b = increments(spec, 0.0, 0.01, 500)
    assert np.array_equal(a.increments, b.increments)


def test_tail_block_matches_slice():
    # deterministic function of the absolute step index: resume-compatible
    spec = PathSpec(master_seed=7, path_index=0, n_processes=3)
    full = increments(spec, 0.0, 0.02, 400)
    tail = increments(spec, 4.0, 0.02, 200)
    assert np.array_equal(full.increments[200:], tail.increments)


def test_off_grid_t0_rejected():
    spec = PathSpec(master_seed=7, path_index=0, n_processes=1)
    with pytest.raises(ValueError):
        increments(spec, 0.0149999, 0.01, 10)


def test_path_spec_and_increments_refuse_invalid_input():
    with pytest.raises(ValueError, match="path_index out of range"):
        PathSpec(master_seed=7, path_index=-1, n_processes=1)
    with pytest.raises(ValueError, match="path_index out of range"):
        PathSpec(master_seed=7, path_index=1 << 48, n_processes=1)
    with pytest.raises(ValueError, match="n_processes must be >= 0"):
        PathSpec(master_seed=7, path_index=0, n_processes=-1)
    spec = PathSpec(master_seed=7, path_index=0, n_processes=1)
    with pytest.raises(ValueError, match="dt must be > 0"):
        increments_paths([spec], 0.0, 0.0, 10)
    with pytest.raises(ValueError, match="n_steps must be >= 0"):
        increments_paths([spec], 0.0, 0.01, -1)


def test_moments_within_five_se():
    spec = PathSpec(master_seed=11, path_index=0, n_processes=2)
    dt = 0.5
    block = increments(spec, 0.0, dt, 20000)
    n = block.n_steps
    for col in range(2):
        x = block.increments[:, col]
        assert abs(x.mean()) <= 5 * np.sqrt(dt / n)
        # var(sample variance) ~ 2 dt^2 / n for Gaussians
        assert abs(x.var() - dt) <= 5 * dt * np.sqrt(2.0 / n)


def test_paths_statistically_independent():
    n = 100000
    a = increments(PathSpec(5, 0, 1), 0.0, 1.0, n).increments.ravel()
    b = increments(PathSpec(5, 1, 1), 0.0, 1.0, n).increments.ravel()
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 5.0 / np.sqrt(n)


def test_processes_statistically_independent():
    n = 100000
    block = increments(PathSpec(6, 0, 2), 0.0, 1.0, n).increments
    rho = np.corrcoef(block[:, 0], block[:, 1])[0, 1]
    assert abs(rho) < 5.0 / np.sqrt(n)


def test_refine_sums_to_coarse():
    spec = PathSpec(master_seed=13, path_index=2, n_processes=4)
    coarse = increments(spec, 0.0, 0.1, 300)
    fine = refine(coarse, 2)
    sums = fine.increments.reshape(300, 2, 4).sum(axis=1)
    assert np.abs(sums - coarse.increments).max() <= 1e-14


def test_refine_rejects_factor_one():
    block = increments(PathSpec(1, 0, 1), 0.0, 0.1, 10)
    with pytest.raises(ValueError):
        refine(block, 1)


def test_nested_refine_consistent_in_distribution():
    spec = PathSpec(master_seed=17, path_index=0, n_processes=1)
    coarse = increments(spec, 0.0, 0.2, 4000)
    twice = refine(refine(coarse, 2), 2)
    once4 = refine(coarse, 4)
    assert twice.dt == once4.dt == 0.05
    n = twice.increments.size
    for arr in (twice.increments, once4.increments):
        assert abs(arr.var() - 0.05) <= 5 * 0.05 * np.sqrt(2.0 / n)
    # both still sum to the same coarse path
    s2 = twice.increments.reshape(4000, 4).sum(axis=1)
    s4 = once4.increments.reshape(4000, 4).sum(axis=1)
    assert np.abs(s2 - coarse.increments.ravel()).max() <= 1e-13
    assert np.abs(s4 - coarse.increments.ravel()).max() <= 1e-13


def test_refined_blocks_differ_between_levels():
    spec = PathSpec(master_seed=19, path_index=0, n_processes=1)
    coarse = increments(spec, 0.0, 0.1, 50)
    fine = refine(coarse, 2)
    base_at_fine_dt = increments(spec, 0.0, 0.05, 100)
    assert not np.allclose(fine.increments, base_at_fine_dt.increments)


def test_blocks_extend_consistently():
    # the stream is positional: a longer request extends, never reshuffles
    few = increments(PathSpec(23, 4, 2), 0.0, 0.01, 50).increments
    many = increments(PathSpec(23, 4, 2), 0.0, 0.01, 80).increments
    assert np.array_equal(few, many[:50])


def test_paths_drawn_together_match_single_draws():
    specs = [PathSpec(master_seed=5, path_index=i, n_processes=3) for i in (0, 7, 2)]
    together = increments_paths(specs, 0.2, 0.01, 40)
    alone = [increments(spec, 0.2, 0.01, 40) for spec in specs]
    assert all(np.array_equal(a.increments, b.increments) for a, b in zip(together, alone))
    fine = refine_paths(refine_paths(together, 2), 3)
    fine_alone = [refine(refine(block, 2), 3) for block in alone]
    for a, b in zip(fine, fine_alone):
        assert (a.dt, a.step0, a.level) == (b.dt, b.step0, b.level)
        assert np.array_equal(a.increments, b.increments)


def test_increments_immutable():
    block = increments(PathSpec(1, 0, 1), 0.0, 0.1, 5)
    with pytest.raises(ValueError):
        block.increments[0, 0] = 1.0


def test_zero_process_block():
    block = increments(PathSpec(1, 0, 0), 0.0, 0.1, 5)
    assert block.increments.shape == (5, 0)


# the mapping from raw words to normals is pinned: the port must return what
# Cephes ndtri (scipy.special.ndtri) returns, bit for bit

EDGE_WORDS = np.array([0, 2**11 - 1, 2**11, 2**63, 2**64 - 2**12, 2**64 - 2**11, 2**64 - 1],
                      dtype=np.uint64)


def test_extreme_words_map_inside_the_unit_interval():
    u = _uniforms(EDGE_WORDS)
    assert np.all((u > 0.0) & (u < 1.0))
    assert u[0] == 2.0**-54 and u[-1] == u[-2] == 1.0 - 2.0**-53
    assert np.all(np.isfinite(ndtri(u)))
    # below the top cell the mapping is the plain ((w >> 11) + 1/2) 2^-53
    plain = ((EDGE_WORDS[:-2] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert np.array_equal(u[:-2], plain)


def test_mapping_pinned_values():
    z, = _standard_normals([(PathSpec(master_seed=99, path_index=3, n_processes=5), 0, 1000, 4)])
    assert [v.hex() for v in z.tolist()] == [
        "0x1.63d36c1211c48p+0", "0x1.6470dce03126fp-3",
        "-0x1.b99ae7c0f43eap+0", "0x1.2dd343c3ee81ep-2"]
    x = ndtri(np.array([2.0**-54, 0.5, 1.0 - 2.0**-52, 1.0 - 2.0**-53]))
    assert [v.hex() for v in x.tolist()] == [
        "-0x1.095b059d67c4dp+3", "0x0.0p+0", "0x1.04074bdbf8865p+3", "0x1.06b48528cea52p+3"]


def test_ndtri_bitwise_equal_to_cephes():
    special = pytest.importorskip("scipy.special")
    cells = np.arange(2**12, dtype=np.uint64)
    words = np.concatenate([cells << np.uint64(11), ~(cells << np.uint64(11)),
                            np.random.default_rng(3).integers(0, 2**64, size=100_000,
                                                              dtype=np.uint64)])
    boundaries = [math.exp(-2), 1.0 - math.exp(-2), math.exp(-32), 1.0 - math.exp(-32)]
    y = np.concatenate([_uniforms(words)]
                       + [np.nextafter(b, [0.0, 1.0]) for b in boundaries]
                       + [np.array(boundaries)])
    assert np.array_equal(ndtri(y), special.ndtri(y))
