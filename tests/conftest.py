import numpy as np

from ordmatch import Instance
from ordmatch.cli import split_quotas
from ordmatch.core import favorite_pairs


def random_quotas(gen: np.random.Generator, n_max: int = 6, m_max: int = 12, n_min: int = 1) -> tuple[int, ...]:
    """Random quota vector: n agents, item total m, every quota >= 1."""
    n = int(gen.integers(n_min, n_max + 1))
    m = int(gen.integers(n, m_max + 1))
    return split_quotas(gen, n, m)


def random_instance(gen: np.random.Generator, n_max: int = 6, m_max: int = 12, n_min: int = 1) -> Instance:
    return Instance(random_quotas(gen, n_max=n_max, m_max=m_max, n_min=n_min))


def random_favorite_pairs(inst: Instance, lead: tuple[int, ...], rng: np.random.Generator) -> tuple:
    """Each agent's favorites, a uniformly random b_i-subset per trial, as the
    decoded favorite pair table of `core.favorite_pairs`."""
    return favorite_pairs(np.argsort(rng.random((*lead, inst.n, inst.m)), axis=-1), inst.quotas)


def pair_mask(fav: tuple, idx: tuple[int, ...], n: int) -> np.ndarray:
    """The boolean (n, m) favorite mask of trial `idx` of a decoded favorite
    pair table, read from that trial's agent and cell arrays."""
    agent, cell, _, shape = fav
    m = shape[-1]
    mask = np.zeros((n, m), dtype=bool)
    for a, c in zip(agent.reshape(shape)[idx].tolist(), cell.reshape(shape)[idx].tolist()):
        mask[a, c % m] = True
    return mask
