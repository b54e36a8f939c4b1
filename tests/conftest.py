import numpy as np

from ordmatch import Instance


def random_quotas(gen: np.random.Generator, n_max: int = 6, m_max: int = 12, n_min: int = 1) -> tuple[int, ...]:
    """Random quota vector: n agents, item total m, every quota >= 1."""
    n = int(gen.integers(n_min, n_max + 1))
    m = int(gen.integers(n, m_max + 1))
    if n == 1:
        return (m,)
    cuts = np.sort(gen.choice(m - 1, size=n - 1, replace=False)) + 1
    bounds = np.concatenate(([0], cuts, [m]))
    return tuple(int(b) for b in np.diff(bounds))


def random_instance(gen: np.random.Generator, n_max: int = 6, m_max: int = 12, n_min: int = 1) -> Instance:
    return Instance(random_quotas(gen, n_max=n_max, m_max=m_max, n_min=n_min))


def favorite_masks(inst: Instance, lead: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Each agent's favorites: a uniformly random b_i-subset per trial."""
    ranks = np.argsort(rng.random((*lead, inst.n, inst.m)), axis=-1)
    mask = np.zeros((*lead, inst.n, inst.m), dtype=bool)
    for i, b in enumerate(inst.quotas):
        np.put_along_axis(mask[..., i, :], ranks[..., i, :b], True, axis=-1)
    return mask
