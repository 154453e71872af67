"""Exact triad evolution and the analytic collision recurrence.

The brute-force path builds the full probe x sample x ancilla state from
outer products (each entry the one product the Kronecker product forms),
conjugates it with e^(-iHt) obtained by eigendecomposition, and partial
traces; it is the oracle every closed form is checked against.

Basis ordering: |i_P j_s k_v> at flat index 4*i + 2*j + k (ancilla index
fastest), so the two states coupled by the interaction sit at indices
1 = |0 0 1> and 6 = |1 1 0>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import CollisionParams, MachineConfig, _check_count, _check_range, collision_params
from .core import libm, thermal_population

#: Flat indices of the swap-coupled pair |0_P 0_s 1_v> and |1_P 1_s 0_v>.
COUPLED_STATES = (1, 6)


def contraction_power(r: float | np.ndarray, k: int | np.ndarray) -> float | np.ndarray:
    """(1 - r)^k in log space, exact at k = 0 and clean at underflow.

    An integer ndarray ``k``, or a float ndarray ``r`` with an int k, gives
    a float array equal to the scalar calls bit for bit (see :func:`core.libm`).
    """
    _check_count("k", k, 0)
    if isinstance(k, np.ndarray):
        if r >= 1.0:
            return np.where(k == 0, 1.0, 0.0)
        return libm(math.exp, k * math.log1p(-r))
    if isinstance(r, np.ndarray):
        if k == 0:
            return np.ones(r.shape)
        full = r >= 1.0  # log1p(-1) is a domain error; (1 - r)^k is 0.0 there
        if np.count_nonzero(full):
            return np.where(full, 0.0, contraction_power(np.where(full, 0.0, r), k))
        return libm(math.exp, k * libm(math.log1p, -r))
    if k == 0:
        return 1.0
    if r >= 1.0:
        return 0.0
    return math.exp(k * math.log1p(-r))


@dataclass(frozen=True)
class ProbeState:
    """Diagonal probe state: ground population plus a collision counter."""

    p0: float
    k: int = 0

    def __post_init__(self) -> None:
        _check_range("p0", self.p0, 0.0, 1.0, closed=True)
        _check_count("k", self.k, 0)


def _hamiltonian(config: MachineConfig, levels, pair, detuning: float = 0.0) -> np.ndarray:
    """Probe x sample x ancilla Hamiltonian for a sample with the given ``levels``.

    Basis index (i_P * d + level) * 2 + k_v; the interaction couples
    |0_P j 1_v> with |1_P j' 0_v> at strength eps_I, where (j, j') = ``pair``.
    """
    eps_v = config.eps_v + detuning
    h = np.diag([i * config.eps_p + e + k * eps_v for i in (0, 1) for e in levels for k in (0, 1)])
    a, b = 2 * pair[0] + 1, 2 * (len(levels) + pair[1])
    h[a, b] = config.eps_I
    h[b, a] = config.eps_I
    return h


def build_triad_hamiltonian(config: MachineConfig, detuning: float = 0.0) -> np.ndarray:
    """Free Hamiltonian plus the three-body swap coupling, as an 8x8 matrix.

    The triad is the two-level sample (0, eps_s) addressed on its pair (0, 1).
    ``detuning`` shifts the ancilla gap by delta away from resonance; the
    default 0 keeps [H_I, H_free] = 0 exactly.
    """
    return _hamiltonian(config, (0.0, config.eps_s), (0, 1), detuning)


def exact_unitary(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """e^(-i H t) by eigendecomposition of a Hermitian matrix."""
    h = np.asarray(hamiltonian)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("hamiltonian must be square")
    scale = max(1.0, float(np.abs(h).max()))
    if not np.abs(h - h.conj().T).max() <= 1e-12 * scale:
        raise ValueError("hamiltonian must be Hermitian")
    return _unitary(h, t)


def _unitary(h: np.ndarray, t: float) -> np.ndarray:
    """e^(-i h t) for a Hermitian ``h``, unchecked (``_hamiltonian`` is symmetric)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _collide_exact(rho_probe, sample_pops, h, config: MachineConfig, t=None) -> np.ndarray:
    """Evolve rho_P (x) diag(sample_pops) (x) rho_v under h and reduce to the probe.

    ``t`` defaults to the full-swap time pi / (2 eps_I).
    """
    d = len(sample_pops)
    ancilla = thermal_population(config.eps_v, config.T_v)
    rho_sv = np.diag(np.multiply.outer(sample_pops, [ancilla.p0, ancilla.p1]).ravel())
    rho_p = np.asarray(rho_probe, dtype=complex)
    rho = np.multiply.outer(rho_p, rho_sv).transpose(0, 2, 1, 3).reshape(4 * d, 4 * d)
    u = _unitary(h, config.collision_time if t is None else t)
    return np.einsum("ijkljk->il", (u @ rho @ u.conj().T).reshape(2, d, 2, 2, d, 2))


def collide_oracle_matrix(
    rho_probe: np.ndarray, config: MachineConfig, t: float | None = None
) -> np.ndarray:
    """One collision on an arbitrary 2x2 probe state, full matrix path.

    Builds rho_P (x) rho_s (x) rho_v, conjugates with the exact unitary at
    time t (default: the full-swap time pi / (2 eps_I)) and partial traces
    back to the probe.
    """
    sample = thermal_population(config.eps_s, config.T)
    h = build_triad_hamiltonian(config)
    return _collide_exact(rho_probe, [sample.p0, sample.p1], h, config, t)


def collide_oracle(probe: ProbeState, config: MachineConfig) -> ProbeState:
    """One collision of a diagonal probe, via the brute-force matrix path."""
    rho_probe = np.diag([probe.p0, 1.0 - probe.p0]).astype(complex)
    reduced = collide_oracle_matrix(rho_probe, config)
    return ProbeState(p0=min(1.0, max(0.0, float(reduced[0, 0].real))), k=probe.k + 1)


def collide_analytic(p0: float, params: CollisionParams) -> float:
    """Closed-form collision map  p0 -> (1 - r) p0 + r p0_inf."""
    return (1.0 - params.r) * p0 + params.r * params.p0_inf


def transient_population(k: int, p00: float, params: CollisionParams) -> float:
    """Probe ground population after k (int or integer array) collisions.

    p0_k = [1 - (1-r)^k] p0_inf + (1-r)^k p00; k = 0 returns p00.
    """
    _check_range("p00", p00, 0.0, 1.0, closed=True)
    q = contraction_power(params.r, k)
    return (1.0 - q) * params.p0_inf + q * p00


def steady_population(config: MachineConfig) -> float:
    """Unique fixed point of the collision map, 1/(1 + e^(eps_s/T - eps_v/T_v))."""
    return collision_params(config).p0_inf


# ----------------------------------------------------------------------
# Samples with more than two levels
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DLevelSample:
    """Thermal d-level sample with one addressed pair of levels.

    ``levels`` are finite energies sorted ascending; the machine couples the
    probe and ancilla to the pair ``(j, j')`` with energies
    levels[j'] > levels[j].
    """

    levels: tuple[float, ...]
    temperature: float
    pair: tuple[int, int]

    def __post_init__(self) -> None:
        d = len(self.levels)
        _check_count("number of levels", d, 2)
        _check_range("spacing of levels", np.diff(self.levels), 0.0, closed=True)
        _check_range("temperature", self.temperature, 0.0)
        j, jp = self.pair
        if not (0 <= j < d and 0 <= jp < d) or j == jp:
            raise ValueError("pair must be two distinct level indices")
        if self.levels[jp] <= self.levels[j]:
            raise ValueError("pair must be ordered with levels[j'] > levels[j]")

    @property
    def pair_gap(self) -> float:
        j, jp = self.pair
        return self.levels[jp] - self.levels[j]

    def populations(self) -> np.ndarray:
        """Normalized Gibbs populations over all d levels."""
        e = np.asarray(self.levels, dtype=float)
        w = np.exp(-(e - e.min()) / self.temperature)
        return w / w.sum()

    @property
    def pair_weight(self) -> float:
        """w = p_j + p_j', the probability the addressed pair is occupied."""
        pops = self.populations()
        j, jp = self.pair
        return float(pops[j] + pops[jp])


def reduce_d_level(
    sample: DLevelSample, config: MachineConfig
) -> tuple[float, CollisionParams]:
    """Reduce a d-level sample to an effective two-level collision.

    Conditioned on the addressed pair, the sample is a Gibbs qubit with gap
    levels[j'] - levels[j] at the sample temperature; the unconditioned
    one-collision probe map is p0 -> (1 - w r') p0 + w r' p0_inf, i.e. the
    two-level map with rate rescaled by the pair weight w and an unchanged
    fixed point.  Returns (w, two-level CollisionParams).

    The machine must be built on the pair gap: eps_v = pair_gap + eps_p.
    """
    gap = sample.pair_gap
    if not abs(config.eps_s - gap) <= 1e-9 * max(gap, config.eps_s):
        raise ValueError(
            "config.eps_s must equal the addressed pair gap "
            f"(got {config.eps_s}, pair gap {gap})"
        )
    # The pair then acts as the machine's own sample qubit at the sample's T.
    return sample.pair_weight, collision_params(replace(config, T=sample.temperature))


def collide_oracle_dlevel(
    p0_probe: float, sample: DLevelSample, config: MachineConfig
) -> float:
    """One collision against a d-level sample, full (4 d)-dimensional oracle."""
    h = _hamiltonian(config, sample.levels, sample.pair)
    rho_probe = np.diag([p0_probe, 1.0 - p0_probe])
    return float(_collide_exact(rho_probe, sample.populations(), h, config)[0, 0].real)
