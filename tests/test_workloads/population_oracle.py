"""Per-block reference for the page population's sharer sets.

:func:`draw_sharer_masks` is the historical form of
:func:`repro.workloads.population._draw_sharer_masks`: one
``rng.random()``/``rng.choice`` call and one numpy-scalar ``|=`` loop
per block (per page for widely shared classes). :func:`popcount` is the
per-page ``bin().count`` popcount it was paired with. Inside
:func:`oracle_population` the production ``build_population`` runs with
both swapped in, so the equivalence suite compares exactly the mask
draw and the popcount and shares everything else (class sizes, weight
shuffles, the interleave permutation).
"""

from contextlib import contextmanager

import numpy as np

from repro.workloads import population
from repro.workloads.population import SHARER_SET_BLOCK_PAGES


def draw_sharer_masks(cls_sharers: int, affinity: float, size: int,
                      n_sockets: int, sockets_per_chassis: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Sharer sets of a class, one generator call per block."""
    masks = np.zeros(size, dtype=np.uint32)
    n_chassis = n_sockets // sockets_per_chassis
    if cls_sharers == 1:
        chunk = -(-size // n_sockets)
        sockets = np.minimum(np.arange(size) // chunk, n_sockets - 1)
        return (np.uint32(1) << sockets.astype(np.uint32)).astype(np.uint32)

    block = SHARER_SET_BLOCK_PAGES if cls_sharers < 8 else 1
    for block_index, start in enumerate(range(0, size, block)):
        contained = (cls_sharers <= sockets_per_chassis
                     and rng.random() < affinity)
        if contained:
            chassis = block_index % n_chassis
            base = chassis * sockets_per_chassis
            members = base + rng.choice(sockets_per_chassis,
                                        size=cls_sharers, replace=False)
        elif block > 1:
            first = (block_index * cls_sharers) % n_sockets
            members = (first + np.arange(cls_sharers)) % n_sockets
        else:
            members = rng.choice(n_sockets, size=cls_sharers, replace=False)
        mask = np.uint32(0)
        for member in members:
            mask |= np.uint32(1) << np.uint32(member)
        masks[start:start + block] = mask
    return masks


def popcount(masks: np.ndarray) -> np.ndarray:
    """Sharers per page, one ``bin().count`` per mask."""
    return np.array([bin(int(mask)).count("1") for mask in masks],
                    dtype=np.int16)


@contextmanager
def oracle_population():
    """Run ``build_population`` on the per-block draw and popcount."""
    saved = population._draw_sharer_masks, population._popcount
    population._draw_sharer_masks = draw_sharer_masks
    population._popcount = popcount
    try:
        yield
    finally:
        population._draw_sharer_masks, population._popcount = saved


def build_population_oracle(*args, **kwargs) -> population.PagePopulation:
    """``build_population`` with the oracle draw and popcount."""
    with oracle_population():
        return population.build_population(*args, **kwargs)
