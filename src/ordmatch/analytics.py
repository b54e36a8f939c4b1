"""Exact closed-form quantities: mechanism assignment probabilities, the
per-instance distortion benchmark, per-mechanism distortion bounds, and the
distortion-gap curve.

All formulas are evaluated in double precision, with expm1-style formulations
where the ratio b_max/m is small and one polynomial expansion for the
survivor-lottery integral.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .core import Instance


def survivor_prob(b_i: int, m: int) -> float:
    """Survival probability 1 - (b_i - 1) / (3m) of an agent with quota b_i."""
    if not 1 <= b_i <= m:
        raise ValueError(f"need 1 <= b_i <= m, got b_i={b_i}, m={m}")
    return 1.0 - (b_i - 1) / (3.0 * m)


def poly_product_integral(factors: Iterable[tuple[float, float]], m: int) -> float:
    """Integrate prod_j (1 - (b_j p_j / m) y) over y in [0, 1].

    Expands the product into polynomial coefficients and integrates term by
    term.  Within 1e-14 relative when the slopes b_j p_j / m sum to at most 1,
    as every caller's do (sum_j b_j <= m, p_j <= 1); larger sums cancel digits.
    """
    if m < 1:
        raise ValueError("m must be positive")
    slopes = []
    for b_j, p_j in factors:
        a = b_j * p_j / m
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"factor slope b*p/m = {a} outside [0, 1]")
        slopes.append(a)
    poly = np.array([1.0])
    for a in slopes:
        poly = np.convolve(poly, np.array([1.0, -a]))  # ascending powers
    return math.fsum(c / (d + 1) for d, c in enumerate(poly))


def rs_q_exact(inst: Instance, i: int) -> float:
    """Probability that the survivor-lottery mechanism hands agent i any one
    of their favorite items (identical across ranks t <= b_i):

        p_i * integral_0^1 prod_{j != i} (1 - b_j p_j y / m) dy
    """
    if not 0 <= i < inst.n:
        raise ValueError(f"agent index {i} out of range")
    m = inst.m
    p_i = survivor_prob(inst.quotas[i], m)
    factors = [(b_j, survivor_prob(b_j, m)) for j, b_j in enumerate(inst.quotas) if j != i]
    return p_i * poly_product_integral(factors, m)


def burning_prob(inst: Instance, i: int, i_star: int) -> float:
    """Phase-2 burn probability beta_i for agent i when i_star (a maximum
    quota agent) is set aside:

        1 - (1 - e^(-1 + bmax/m)) /
            ((1 - bmax/m) * p_i * integral over j not in {i, i_star})
    """
    if i == i_star:
        raise ValueError("burning probability is undefined for the set-aside agent")
    if not 0 <= i < inst.n or not 0 <= i_star < inst.n:
        raise ValueError("agent index out of range")
    if inst.quotas[i_star] != inst.b_max:
        raise ValueError("i_star must have maximum quota")
    m = inst.m
    b_max = inst.b_max
    if b_max == m:
        raise ValueError("burn probability undefined when one agent holds every quota")
    x = b_max / m
    numerator = -math.expm1(x - 1.0)  # 1 - e^(-1+x), kept exact for small x
    p_i = survivor_prob(inst.quotas[i], m)
    factors = [
        (b_j, survivor_prob(b_j, m))
        for j, b_j in enumerate(inst.quotas)
        if j != i and j != i_star
    ]
    denominator = (1.0 - x) * p_i * poly_product_integral(factors, m)
    return 1.0 - numerator / denominator


def stealing_prob(b_max: int, m: int) -> float:
    """Phase-3 steal probability sigma = (1 - (2 - x) e^(-1+x)) / (1 - e^(-1+x))
    with x = b_max / m."""
    if not 1 <= b_max < m:
        raise ValueError(f"need 1 <= b_max < m, got b_max={b_max}, m={m}")
    x = b_max / m
    e = math.exp(x - 1.0)
    return (1.0 - (2.0 - x) * e) / -math.expm1(x - 1.0)


def _rsbs_q(x: float) -> float:
    """1 - (1 - x) e^(-1 + x), with the 1 - e^(-1 + x) part kept exact for small x."""
    return -math.expm1(x - 1.0) + x * math.exp(x - 1.0)


def rsbs_q_exact(inst: Instance) -> float:
    """The burn/steal mechanism's per-favorite-item assignment probability,
    1 - (1 - bmax/m) e^(-1 + bmax/m), identical for every agent and rank."""
    return _rsbs_q(inst.b_max / inst.m)


def hql_q(inst: Instance) -> float:
    """The one-pass highest-quota-last mechanism's per-favorite-item
    assignment probability m / (2m - b_max), identical for all agents."""
    return inst.m / (2.0 * inst.m - inst.b_max)


def hql_distortion_bound(inst: Instance) -> float:
    """Distortion ceiling 2 - b_max/m of the highest-quota-last mechanism."""
    return 2.0 - inst.b_max / inst.m


def rsbs_distortion_bound(inst: Instance) -> float:
    """Distortion ceiling of the burn/steal mechanism: 1 / rsbs_q_exact."""
    return 1.0 / rsbs_q_exact(inst)


def benchmark_lower_bound(inst: Instance) -> float:
    """Distortion floor (1 - prod_i (1 - b_i/m))^-1 that no ordinal mechanism
    can beat on this quota vector.  Equals 1 when some quota spans all items."""
    m = inst.m
    prod = 1.0
    for b in inst.quotas:
        prod *= 1.0 - b / m
    return 1.0 / (1.0 - prod)


def _floor_reciprocal(x: float) -> int:
    """floor(1/x) with a correction step so the floating division cannot
    misplace the integer boundary."""
    fl = math.floor(1.0 / x)
    while (fl + 1) * x <= 1.0:
        fl += 1
    while fl * x > 1.0:
        fl -= 1
    return fl


def distortion_gap_curve(x: float) -> float:
    """Distortion-gap ceiling of the burn/steal mechanism at ratio x = b_max/m:

        (1 - (1-x)^floor(1/x) * floor(1/x) * x) / (1 - (1-x) e^(-1+x))

    Defined on (0, 1]; maximized at x = 1/2 where it evaluates to about 1.0765.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x must lie in (0, 1], got {x}")
    fl = _floor_reciprocal(x)
    numerator = 1.0 - (1.0 - x) ** fl * fl * x
    return numerator / _rsbs_q(x)


def product_floor_bound(inst: Instance) -> float:
    """Floor-power lower bound on prod_i (1 - b_i/m):

        (1 - bmax/m)^floor(m/bmax) * floor(m/bmax) * (bmax/m)
    """
    m = inst.m
    b_max = inst.b_max
    k = m // b_max
    x = b_max / m
    return (1.0 - x) ** k * k * x


def serial_dictator_q_exact(inst: Instance, order: Sequence[int], i: int) -> float:
    """Per-favorite-item probability for a deterministic one-pass pick order:
    the chance every earlier agent leaves the item alone, prod (1 - b_j/m)."""
    m = inst.m
    prod = 1.0
    for j in order:
        if j == i:
            return prod
        prod *= 1.0 - inst.quotas[j] / m
    raise ValueError(f"agent {i} missing from order")
