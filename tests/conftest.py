import numpy as np

from ordmatch import Instance
from ordmatch.cli import split_quotas


def random_quotas(gen: np.random.Generator, n_max: int = 6, m_max: int = 12, n_min: int = 1) -> tuple[int, ...]:
    """Random quota vector: n agents, item total m, every quota >= 1."""
    n = int(gen.integers(n_min, n_max + 1))
    m = int(gen.integers(n, m_max + 1))
    return split_quotas(gen, n, m)


def random_instance(gen: np.random.Generator, n_max: int = 6, m_max: int = 12, n_min: int = 1) -> Instance:
    return Instance(random_quotas(gen, n_max=n_max, m_max=m_max, n_min=n_min))


def random_favorite_pairs(inst: Instance, lead: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Each agent's favorites, a uniformly random b_i-subset per trial, as a
    favorite pair table: the m pairs encoded as item * n + agent, sorted."""
    ranks = np.argsort(rng.random((*lead, inst.n, inst.m)), axis=-1)
    items = np.concatenate([ranks[..., i, :b] for i, b in enumerate(inst.quotas)], axis=-1)
    return np.sort(items * inst.n + np.repeat(np.arange(inst.n), inst.quotas), axis=-1)


def pair_mask(pairs: np.ndarray, n: int) -> np.ndarray:
    """The boolean (n, m) favorite mask of one trial's pair table."""
    mask = np.zeros((n, len(pairs)), dtype=bool)
    for key in pairs.tolist():
        item, agent = divmod(key, n)
        mask[agent, item] = True
    return mask
