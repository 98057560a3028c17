"""Page populations against the per-block oracle, byte for byte.

The production sharer-set draw replays the oracle's per-block
``rng.random()``/``rng.choice`` calls with array operations, so every
population array must match in bytes and dtype, and the generator must
be left in the same state: the weight shuffles, the interleave
permutation and trace synthesis all draw from it afterwards.
"""

import numpy as np
import pytest

from repro.workloads import WORKLOADS, build_population, population
from repro.workloads.population import _choice_masks, _draw_sharer_masks
from repro.workloads.profile import SharingClass
from tests.conftest import make_profile
from tests.test_workloads import population_oracle
from tests.test_workloads.population_oracle import (
    build_population_oracle,
    oracle_population,
)

FIELDS = ("sharer_mask", "sharer_count", "weight", "write_fraction",
          "class_id")


def assert_same_bytes(got, want, what):
    """Same dtype and bytes; names the first differing elements."""
    assert got.dtype == want.dtype, what
    same = got.tobytes() == want.tobytes()
    assert same, f"{what} differs at {np.flatnonzero(got != want)[:5]}"


def assert_same_population(fast, slow):
    for field in FIELDS:
        assert_same_bytes(getattr(fast, field), getattr(slow, field), field)


def build_both(*args, **kwargs):
    return (build_population(*args, **kwargs),
            build_population_oracle(*args, **kwargs))


@pytest.mark.parametrize("layout", ["interleaved", "clustered"])
@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_catalog_workloads(name, seed, layout):
    fast, slow = build_both(WORKLOADS[name], 16, 4, seed, layout)
    assert_same_population(fast, slow)


def sharing(*classes):
    """Equal page and access shares over ``(sharers, affinity)`` pairs."""
    share = 1.0 / len(classes)
    return tuple(SharingClass(sharers, share, share, chassis_affinity=aff)
                 for sharers, aff in classes)


#: (n_sockets, sockets_per_chassis) -> classes reaching every branch: the
#: private chunks, chassis-contained blocks, rotation, wide per-page
#: draws, per-page draws that may be contained (sharers in [8, spc]),
#: and a class every socket shares (a Floyd bound of zero).
SYNTHETIC = {
    (32, 4): sharing((1, 0.0), (2, 0.7), (5, 0.0), (12, 0.0), (32, 0.0)),
    (8, 4): sharing((1, 0.0), (3, 0.5), (6, 0.0), (8, 0.0)),
    (16, 8): sharing((1, 0.0), (4, 0.5), (7, 0.3), (8, 0.5), (16, 0.0)),
    (16, 16): sharing((1, 0.0), (3, 0.3), (12, 0.5), (16, 0.4)),
}


@pytest.mark.parametrize("layout", ["interleaved", "clustered"])
@pytest.mark.parametrize("shape", sorted(SYNTHETIC),
                         ids=lambda shape: "%dx%d" % shape)
def test_synthetic_profiles(shape, layout):
    n_sockets, per_chassis = shape
    profile = make_profile(n_pages=2048, sharing=SYNTHETIC[shape])
    fast, slow = build_both(profile, n_sockets, per_chassis, 3, layout)
    assert_same_population(fast, slow)


@pytest.mark.parametrize("shape", sorted(SYNTHETIC),
                         ids=lambda shape: "%dx%d" % shape)
def test_generator_left_in_same_state(shape):
    """Each class's draw, from an entry state with a buffered half-word."""
    n_sockets, per_chassis = shape
    for cls in SYNTHETIC[shape]:
        states = []
        for draw in (_draw_sharer_masks, population_oracle.draw_sharer_masks):
            rng = np.random.default_rng(5)
            rng.integers(0, 10)  # leaves the upper uint32 half pending
            assert rng.bit_generator.state["has_uint32"] == 1
            masks = draw(cls.sharers, cls.chassis_affinity, 1000,
                         n_sockets, per_chassis, rng)
            states.append((masks, rng.bit_generator.state,
                           int(rng.integers(0, 2**32))))
        (fast, *fast_rng), (slow, *slow_rng) = states
        assert_same_bytes(fast, slow, cls)
        assert fast_rng == slow_rng, cls


def test_oracle_swaps_back():
    with oracle_population():
        assert population._draw_sharer_masks is not _draw_sharer_masks
    assert population._draw_sharer_masks is _draw_sharer_masks


class TestChoiceMasks:
    """``_choice_masks`` replays ``rng.choice(n, k, replace=False)``.

    Pinned against numpy itself, so a numpy release that changes how
    ``choice`` draws fails here rather than silently reshuffling every
    population.
    """

    @pytest.mark.parametrize("n,k", [
        (16, 16),  # k == n: the first Floyd bound is 0 and draws nothing
        (16, 2),
        (4, 2),    # chassis-sized draws
        (4, 3),
        (4, 4),
        (32, 8),
        (32, 31),
        (32, 32),
    ])
    def test_matches_choice(self, n, k):
        count = 257
        fast = np.random.default_rng(11)
        slow = np.random.default_rng(11)
        fast.integers(0, 10)  # a pending uint32 half on entry
        slow.integers(0, 10)
        got = _choice_masks(n, k, count, fast)
        want = np.zeros(count, dtype=np.uint32)
        for page in range(count):
            members = slow.choice(n, size=k, replace=False)
            want[page] = np.bitwise_or.reduce(
                np.uint32(1) << members.astype(np.uint32))
        assert_same_bytes(got, want, "masks")
        assert fast.bit_generator.state == slow.bit_generator.state
        assert fast.integers(0, 2**32) == slow.integers(0, 2**32)
