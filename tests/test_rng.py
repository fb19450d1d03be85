import numpy as np
import pytest

from minignn.rng import SHUFFLE_VECTOR_MIN, Rng


def test_same_seed_same_stream():
    a = [Rng(7).next_u64() for _ in range(5)]
    b = [Rng(7).next_u64() for _ in range(5)]
    assert a == b


def test_known_values_frozen():
    # Pinned so the stream can never drift across platforms or refactors.
    rng = Rng(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    rng = Rng(42)
    assert rng.next_u64() == 0xBDD732262FEB6E95


def test_spawn_streams_differ_from_parent_and_each_other():
    root = Rng(3)
    a = root.spawn("a")
    b = root.spawn("b")
    a2 = Rng(3).spawn("a")
    assert a.next_u64() == a2.next_u64()
    va = [Rng(3).spawn("a").next_u64() for _ in range(1)]
    vb = [b.next_u64()]
    vr = [Rng(3).next_u64()]
    assert len({va[0], vb[0], vr[0]}) == 3


def test_spawn_does_not_advance_parent():
    root = Rng(9)
    before = Rng(9).next_u64()
    root.spawn("x")
    assert root.next_u64() == before


def test_uniform_range_and_mean():
    rng = Rng(11)
    vals = rng.uniforms((10000,))
    assert np.all((vals >= 0.0) & (vals < 1.0))
    assert abs(vals.mean() - 0.5) < 3 * (1 / np.sqrt(12 * 10000))


def test_uniform_bounds_scaling():
    rng = Rng(12)
    vals = rng.uniforms((1000,), -2.0, 2.0)
    assert np.all((vals >= -2.0) & (vals < 2.0))


def test_normals_moments():
    vals = Rng(13).normals((20000,))
    assert abs(vals.mean()) < 3 / np.sqrt(20000)
    assert abs(vals.std() - 1.0) < 0.02


def test_normals_shape():
    assert Rng(1).normals((3, 4)).shape == (3, 4)


def test_randint_uniform_over_small_range():
    rng = Rng(14)
    counts = np.bincount([rng.randint(5) for _ in range(5000)], minlength=5)
    expected = 1000
    sigma = np.sqrt(5000 * 0.2 * 0.8)
    assert np.all(np.abs(counts - expected) < 4 * sigma)


def test_randint_validates():
    with pytest.raises(ValueError):
        Rng(0).randint(0)


def test_shuffle_is_permutation():
    rng = Rng(15)
    items = list(range(30))
    rng.shuffle(items)
    assert sorted(items) == list(range(30))
    assert items != list(range(30))


def test_sample_distinct():
    got = Rng(16).sample(10, 4)
    assert len(got) == 4 and len(set(got)) == 4
    assert all(0 <= v < 10 for v in got)


def test_sample_validates():
    with pytest.raises(ValueError):
        Rng(0).sample(3, 4)


# --- the vector samplers against the scalar stream ----------------------------

@pytest.mark.parametrize("shape", [0, 1, 7, 10_000, (0,), (3, 4), ()])
@pytest.mark.parametrize("low,high", [(0.0, 1.0), (-2.0, 3.0)])
def test_uniforms_equal_the_uniform_loop(shape, low, high):
    ours, theirs = Rng(21), Rng(21)
    got = ours.uniforms(shape, low, high)
    n = int(np.prod(shape))
    expected = np.array([theirs.uniform(low, high) for _ in range(n)]).reshape(shape)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert ours.next_u64() == theirs.next_u64()  # the same stream position afterwards


@pytest.mark.parametrize("shape", [0, 1, 7, 5_000, (3, 4), ()])
def test_normals_equal_the_normal_loop(shape):
    ours, theirs = Rng(22), Rng(22)
    got = ours.normals(shape)
    n = int(np.prod(shape))
    expected = np.array([theirs.normal() for _ in range(n)]).reshape(shape)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert ours.next_u64() == theirs.next_u64()


def test_normals_redraw_a_zero_u1_like_the_loop():
    # mix(0) == 0, so this seed's first draw is exactly 0.0 and Box-Muller must redraw.
    seed = (-0x9E3779B97F4A7C15) & ((1 << 64) - 1)
    assert Rng(seed).uniform() == 0.0
    ours, theirs = Rng(seed), Rng(seed)
    got = ours.normals((6,))
    expected = np.array([theirs.normal() for _ in range(6)])
    assert np.isfinite(got).all() and got.tobytes() == expected.tobytes()
    assert ours.next_u64() == theirs.next_u64()


def scalar_shuffle(rng, items):
    """Fisher-Yates one randint at a time, the loop every shuffle must equal."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("n", [0, 1, 2, SHUFFLE_VECTOR_MIN - 1, SHUFFLE_VECTOR_MIN, 60, 200, 1000])
@pytest.mark.parametrize("seed", [0, 23, 2**64 - 1])
def test_shuffle_and_sample_equal_the_scalar_loop(n, seed):
    ours, theirs = Rng(seed), Rng(seed)
    got, expected = list(range(n)), list(range(n))
    ours.shuffle(got)
    scalar_shuffle(theirs, expected)
    assert got == expected
    assert ours.next_u64() == theirs.next_u64()
    expected = list(range(n))
    scalar_shuffle(theirs, expected)
    assert ours.sample(n, n // 2) == expected[:n // 2]
    assert ours.next_u64() == theirs.next_u64()


def _unmix(out: int) -> int:
    """The z with SplitMix64's mix(z) == out: each step of the mix is a bijection."""
    mask = (1 << 64) - 1

    def unshift(y, s):  # x with x ^ (x >> s) == y
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(out, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & mask
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask
    return unshift(z, 30)


def test_shuffle_redraws_a_rejected_draw_like_the_loop():
    # This seed's first draw is 2**64 - 1, which randint(60) rejects (60 does
    # not divide 2**64), so the loop takes 60 draws for 59 swaps.
    n = 60
    seed = (_unmix((1 << 64) - 1) - 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
    assert Rng(seed).next_u64() == (1 << 64) - 1
    ours, theirs = Rng(seed), Rng(seed)
    got, expected = list(range(n)), list(range(n))
    ours.shuffle(got)
    scalar_shuffle(theirs, expected)
    assert got == expected and sorted(got) == list(range(n))
    assert ours.next_u64() == theirs.next_u64()
    rejected, two_draws = Rng(seed), Rng(seed)
    rejected.randint(n)
    two_draws.next_u64(), two_draws.next_u64()
    assert rejected.next_u64() == two_draws.next_u64()
