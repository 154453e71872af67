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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import CollisionParams, MachineConfig, _check_count, _check_range, collision_params
from .core import _gibbs_pair, _params_at, libm

#: Flat indices of the swap-coupled pair |0_P 0_s 1_v> and |1_P 1_s 0_v>.
COUPLED_STATES = (1, 6)


def contraction_power(r: float | np.ndarray, k: int | np.ndarray) -> float | np.ndarray:
    """(1 - r)^k in log space, exact at k = 0 and clean at underflow.

    One path for int or integer-array k and float or float-array r (the two broadcast): scalars
    give a float, and each array element the scalar call bit for bit (see :func:`core.libm`).
    """
    _check_count("k", k, 0)
    _check_range("r", r, 0.0, 1.0, closed=True)
    full = r >= 1.0  # log1p(-r) is a domain error there; (1 - r)^k is 0.0 (1.0 at k = 0)
    live = 1 - full
    q = libm(math.exp, k * libm(math.log1p, full - r))  # full - r is 0.0 where full
    return q * (live | (k == 0))


@dataclass(frozen=True)
class ProbeState:
    """Diagonal probe state: ground population plus a collision counter."""

    p0: float
    k: int = 0

    def __post_init__(self) -> None:
        _check_range("p0", self.p0, 0.0, 1.0, closed=True)
        _check_count("k", self.k, 0)


def _diagonal(entries) -> np.ndarray:
    """The diagonal matrix of ``entries``: n floats give one matrix, n lane arrays a stack."""
    d, n = np.array(entries).T, len(entries)
    m = np.zeros(d.shape + (n,))
    m.reshape(d.shape[:-1] + (n * n,))[..., :: n + 1] = d  # a view: the flat diagonal's stride
    return m


def _hamiltonian(config: MachineConfig, sample=None, detuning: float = 0.0) -> np.ndarray:
    """Probe x sample x ancilla Hamiltonian for ``sample`` (None: the triad's qubit, levels
    (0, eps_s) on the pair (0, 1)): basis index (i_P * d + level) * 2 + k_v; the interaction couples
    a = |0_P j 1_v> with b = |1_P j' 0_v> at strength eps_I, (j, j') = the sample's ``pair``.
    Array fields give a stack, one matrix per lane."""
    levels, pair = ((0.0, config.eps_s), (0, 1)) if sample is None else (sample.levels, sample.pair)
    eps_p, eps_v = config.eps_p, config.eps_v + detuning
    h = _diagonal([i * eps_p + e + k * eps_v for i in (0, 1) for e in levels for k in (0, 1)])
    a, b = 2 * pair[0] + 1, 2 * (len(levels) + pair[1])
    h[..., a, b] = h[..., b, a] = config.eps_I
    return h


def build_triad_hamiltonian(config: MachineConfig, detuning: float = 0.0) -> np.ndarray:
    """Free Hamiltonian plus the three-body swap coupling, as an 8x8 matrix.

    The triad is the two-level sample (0, eps_s) addressed on its pair (0, 1).
    ``detuning`` shifts the ancilla gap by delta away from resonance; the
    default 0 keeps [H_I, H_free] = 0 exactly.
    """
    _check_range("detuning", detuning, -math.inf)
    return _hamiltonian(config, None, detuning)


def exact_unitary(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """e^(-i H t) by eigendecomposition of a Hermitian matrix."""
    h = np.asarray(hamiltonian)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("hamiltonian must be square")
    scale = max(1.0, float(np.abs(h).max()))
    if not np.abs(h - h.conj().T).max() <= 1e-12 * scale:
        raise ValueError("hamiltonian must be Hermitian")
    return _unitary(h, t)


@np.errstate(over="raise", invalid="raise")  # a phase w t past the float range: no NaN
def _unitary(h: np.ndarray, t: float) -> np.ndarray:
    """e^(-i h t) for a Hermitian ``h``, unchecked (``_hamiltonian`` is symmetric); t finite.  A
    stack of matrices takes a t with its own lane axis, shape (lanes, 1)."""
    _check_range("t", t, -math.inf)
    w, v = np.linalg.eigh(h)
    try:  # -(w t) rounded once, as in exp(-1j * w * t), with one array op fewer; real part +-0
        phase = np.exp(w * (-1j * t))
    except FloatingPointError:
        raise ValueError("collision phase w t overflows, t = pi / (2 eps_I) by default") from None
    return (v * phase[..., None, :]) @ v.conj().swapaxes(-1, -2)


@lru_cache(maxsize=4)  # a constant: one machine's triad and d-level channels, never a sweep
def _channel(config: MachineConfig, sample, t: float) -> tuple:
    """Read-only (h, rho_s (x) rho_v, e^(-iHt), its adjoint) of a machine and ``sample`` (None: the
    triad's qubit), or a stack of lanes; t = -0.0 reads t = 0.0's entry, whose phase bits match."""
    pops = _gibbs_pair(config.eps_s / config.T) if sample is None else sample.populations().tolist()
    ancilla = _gibbs_pair(config.eps_v / config.T_v)  # the config was checked when built
    h = _hamiltonian(config, sample)
    u = _unitary(h, t)
    # Where eps_v + eps_I rounds to eps_v, eigh cannot split the coupled pair: the swap is lost.
    _check_range("(eps_v + eps_I) - eps_v", (config.eps_v + config.eps_I) - config.eps_v, 0.0)
    channel = h, _diagonal([s * a for s in pops for a in ancilla]), u, u.conj().swapaxes(-1, -2)
    for a in channel:
        a.setflags(write=False)
    return channel


def _evolve(rho_p: np.ndarray, channel: tuple) -> np.ndarray:
    """rho_P (x) rho_s (x) rho_v evolved by a :func:`_channel`, reduced to the probe, per lane of a
    stack: rho[..., (i, k), (j, l)] is the Kronecker product rho_p[..., i, j] rho_sv[..., k, l]."""
    _, rho_sv, u, u_h = channel
    d = rho_sv.shape[-1] // 2
    rho = (rho_p[..., :, None, :, None] * rho_sv[..., None, :, None, :]).reshape(u.shape)
    out = (u @ rho @ u_h).reshape(*u.shape[:-2], 2, d, 2, 2, d, 2)
    return np.einsum("...ijkljk->...il", out)


def _collide_exact(rho_probe, config: MachineConfig, sample=None, t=None) -> np.ndarray:
    """:func:`_evolve` by the memoised channel of one machine at t (default pi / (2 eps_I))."""
    t = config.collision_time if t is None else t
    try:
        channel = _channel(config, sample, t)
    except TypeError:  # unhashable: a 0-d array field of the config, or the sample's temperature
        if any(np.ndim(v) for v in vars(config).values()):
            raise ValueError("an oracle takes one machine, not a stacked MachineConfig") from None
        channel = _channel.__wrapped__(config, sample, t)
    return _evolve(np.asarray(rho_probe, dtype=complex), channel)


def collide_oracle_matrix(
    rho_probe: np.ndarray, config: MachineConfig, t: float | None = None
) -> np.ndarray:
    """One collision on an arbitrary 2x2 probe state at time t (default: the full-swap time
    pi / (2 eps_I)), by the exact unitary and a partial trace back to the probe.  The machine's
    part comes from a memo: a call repeating a recent (machine, t) runs no eigendecomposition."""
    return _collide_exact(rho_probe, config, None, t)


def collide_oracle(probe: ProbeState, config: MachineConfig) -> ProbeState:
    """One collision of a diagonal probe, via the brute-force matrix path."""
    return ProbeState(_collide_diagonal(probe.p0, collide_oracle_matrix, config), probe.k + 1)


def _collide_diagonal(p0: float, collide, *args) -> float:
    """A single oracle's ground population after ``collide(diag(p0, 1 - p0), *args)``: a float
    clamped to [0, 1] (-0.0 to 0.0), a NaN kept for a later check to refuse."""
    p0 = float(collide(np.array([[p0, 0.0], [0.0, 1.0 - p0]], complex), *args)[0, 0].real)
    return 0.0 if p0 <= 0.0 else min(p0, 1.0)  # float compares: np.where costs ~2.7 us, not 0.4


def _triad_lanes(machines: MachineConfig) -> tuple:
    """The triad oracle's one body over a stacked MachineConfig: (h, u, p0), each lane bit for bit
    build_triad_hamiltonian, e^(-iHt) at pi / (2 eps_I) and collide_oracle's p0 (NaN stays NaN)."""
    channel = _channel.__wrapped__(machines, None, machines.collision_time[:, None])
    p0 = _evolve(_diagonal((machines.p00, 1.0 - machines.p00)), channel)[:, 0, 0].real
    return channel[0], channel[2], np.where(p0 <= 0.0, 0.0, np.minimum(p0, 1.0))


def collide_analytic(p0: float | np.ndarray, params: CollisionParams) -> float | np.ndarray:
    """Closed-form collision map  p0 -> (1 - r) p0 + r p0_inf.

    An array ``p0`` or array-valued ``params`` maps per element, bit for bit the scalar calls.
    """
    _check_range("p0", p0, -math.inf)  # finite; an iterated map may round one ulp past 1
    return _collide(p0, params)


def _collide(p0, params: CollisionParams):
    """:func:`collide_analytic` unchecked, the map's one formula: iterates a checked p0."""
    return (1.0 - params.r) * p0 + params.r * params.p0_inf


def transient_population(k: int, p00: float, params: CollisionParams) -> float:
    """Probe ground population after k (int or integer array) collisions.

    p0_k = [1 - (1-r)^k] p0_inf + (1-r)^k p00; k = 0 returns p00.  An array p00 or
    array-valued params broadcast with k, each element bit for bit the scalar call.
    """
    _check_range("p00", p00, 0.0, 1.0, closed=True)
    return _relax(contraction_power(params.r, k), params.p0_inf, p00)


def _relax(q, limit, start):
    """(1 - q) limit + q start: a population relaxed from start towards limit, q = (1-r)^k."""
    return (1.0 - q) * limit + q * start


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
        # Tuples compare and hash as one value (arrays per element): the sample keys the memo.
        object.__setattr__(self, "levels", tuple(map(float, self.levels)))
        object.__setattr__(self, "pair", tuple(self.pair))
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
        w = np.exp((e[0] - e) / self.temperature)  # levels ascend: e[0] is the minimum
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
    return sample.pair_weight, _params_at(config.eps_s / sample.temperature, config.eps_v / config.T_v)


def collide_oracle_dlevel(p0_probe: float, sample: DLevelSample, config: MachineConfig) -> float:
    """One collision against a d-level sample, full (4 d)-dimensional oracle."""
    _check_range("p0_probe", p0_probe, 0.0, 1.0, closed=True)
    return _collide_diagonal(p0_probe, _collide_exact, config, sample)
