"""Quantum channels as Kraus families: validation, action, and named constructions."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import INPUT_TOL, VALIDATION_TOL, hermitian_eig, seeded_rng

KRAUS_CUTOFF = 1e-14  # Choi eigenvalues (depolarizing: Weyl weights) at or below this give no Kraus operator


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Completely positive trace-preserving map stored as Kraus operators.

    ``kraus`` has shape (num_kraus, d_out, d_in). Trace preservation
    sum_j K_j^dagger K_j = I is enforced at construction; complete
    positivity holds by construction, since the Choi matrix
    (1/d_in) sum_j vec(K_j) vec(K_j)^dagger is positive semidefinite.
    """

    kraus: np.ndarray
    atol: float = field(default=VALIDATION_TOL, compare=False)

    def __post_init__(self):
        k = np.asarray(self.kraus, dtype=complex)
        if k.ndim != 3 or k.size == 0:
            raise ValueError("kraus must be a nonempty stack of d_out x d_in matrices")
        if not np.all(np.isfinite(k)):
            raise ValueError("kraus operators contain non-finite entries")
        object.__setattr__(self, "kraus", k)
        gram = np.einsum("mij,mik->jk", k.conj(), k)
        dev = np.max(np.abs(gram - np.eye(self.d_in)))
        if dev > self.atol:
            raise ValueError(f"channel is not trace preserving (max deviation {dev:.3e})")

    @property
    def d_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def d_out(self) -> int:
        return self.kraus.shape[1]

    def _inputs(self, rho) -> np.ndarray:
        """``rho`` as a complex d_in x d_in matrix or a stack (..., d_in, d_in) of them."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape[-2:] != (self.d_in, self.d_in):
            raise ValueError(f"state shape {rho.shape} does not match input dimension {self.d_in}")
        return rho

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Channel action sum_j K_j rho K_j^dagger, on one matrix or a stack."""
        return np.einsum("mbi,...ij,mcj->...bc", self.kraus, self._inputs(rho), self.kraus.conj())

    def apply_complementary(self, rho: np.ndarray) -> np.ndarray:
        """Environment output W with W[j, k] = tr(K_j rho K_k^dagger), on one matrix or a stack."""
        a = self.kraus @ self._inputs(rho)[..., None, :, :]
        return np.einsum("...jbc,kbc->...jk", a, self.kraus.conj())

    def apply_extended(self, rho: np.ndarray) -> np.ndarray:
        """Action of id (x) T on a state of an auxiliary copy of the input paired with it."""
        d = self.d_in
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (d * d, d * d):
            raise ValueError(
                f"state shape {rho.shape} does not match extended dimension {d * d}"
            )
        # block (a', b') of (id (x) T)(rho) is T of block (a', b') of rho
        blocks = self.apply(rho.reshape(d, d, d, d).swapaxes(1, 2))
        return blocks.swapaxes(1, 2).reshape(d * self.d_out, d * self.d_out)


def pure_outputs(channel: QuantumChannel, states: np.ndarray) -> np.ndarray:
    """Outputs T(psi psi^dagger) for a stack of input vectors psi, one per row."""
    amps = np.einsum("mbi,ri->rmb", channel.kraus, states)
    return np.einsum("rmb,rmc->rbc", amps, amps.conj())


def identity_channel(d: int) -> QuantumChannel:
    return QuantumChannel(np.eye(d, dtype=complex)[None, :, :])


def depolarizing_cp_limit(d: int) -> float:
    """Largest mixing weight d^2/(d^2 - 1) at which the depolarizing map is completely positive."""
    return d * d / (d * d - 1.0)


def depolarizing_channel(d: int, p: float) -> QuantumChannel:
    """Mix the input with the maximally mixed state: rho -> (1-p) rho + p tr(rho) I/d.

    The map is completely positive for 0 <= p <= d^2/(d^2 - 1); outside this
    range a ValueError is raised. It is the mixture of the d^2 Weyl unitaries
    X^a Z^b (X the cyclic shift, Z the clock diag(w^j), w = e^{2 pi i/d}), with
    weight 1 - p + p/d^2 on the identity and p/d^2 on each other one: its
    Choi eigenvalues. Weights at or below ``KRAUS_CUTOFF`` give no operator.
    """
    if d < 2:
        raise ValueError("depolarizing channel needs dimension >= 2")
    p_max = depolarizing_cp_limit(d)
    if not 0.0 <= p <= p_max + 1e-12:
        raise ValueError(f"p={p} outside the completely positive range [0, {p_max}]")
    dd = d * d
    weights = np.full(dd, p / dd)
    weights[0] = max(1.0 - p + p / dd, 0.0)  # slightly negative within the slack above the edge
    keep = weights > KRAUS_CUTOFF
    return QuantumChannel(np.sqrt(weights[keep])[:, None, None] * _weyl_operators(d)[keep])


@lru_cache(maxsize=8)  # a sweep builds many channels of one dimension
def _weyl_operators(d: int) -> np.ndarray:
    """Read-only stack of the d^2 Weyl unitaries X^a Z^b at index a d + b, the identity first."""
    a, b, j = np.ogrid[:d, :d, :d]
    weyl = np.zeros((d, d, d, d), dtype=complex)
    weyl[a, b, (j + a) % d, j] = np.exp(2j * np.pi / d * (b * j % d))
    weyl = weyl.reshape(d * d, d, d)
    weyl.flags.writeable = False
    return weyl


def kraus_from_choi(choi: np.ndarray, d_in: int, d_out: int) -> QuantumChannel:
    """Rebuild a Kraus family from a normalized Choi state via eigendecomposition.
    The state is outside data: its shape is checked, and it and the rebuilt family are held
    to ``INPUT_TOL``."""
    if np.shape(choi) != (d_in * d_out,) * 2:
        raise ValueError(f"Choi matrix of shape {np.shape(choi)} does not match {d_in=}, {d_out=}")
    w, v = hermitian_eig(choi)
    keep = w > KRAUS_CUTOFF
    if not keep.any():
        raise ValueError("Choi matrix has no positive eigenvalues")
    ops = v.T[keep].reshape(-1, d_in, d_out).swapaxes(1, 2)
    return QuantumChannel(np.sqrt(d_in * w[keep])[:, None, None] * ops, atol=INPUT_TOL)


def random_channel(d_in: int, d_out: int, kraus_count: int | None = None, seed=0) -> QuantumChannel:
    """Haar-random channel from a random Stinespring isometry.

    ``kraus_count`` is the environment dimension; the default d_in * d_out
    gives a generic full-rank environment.
    """
    if kraus_count is None:
        kraus_count = d_in * d_out
    if kraus_count < 1:
        raise ValueError("kraus_count must be >= 1")
    if kraus_count * d_out < d_in:
        raise ValueError(
            "a random channel needs kraus * dout >= din for its Stinespring isometry, "
            f"got kraus={kraus_count}, din={d_in}, dout={d_out}"
        )
    g = seeded_rng(seed)
    a = g.standard_normal((d_out * kraus_count, d_in)) + 1j * g.standard_normal(
        (d_out * kraus_count, d_in)
    )
    q, r = np.linalg.qr(a)
    diag = r.diagonal().copy()
    diag[diag == 0] = 1.0
    q = q * (diag / np.abs(diag))  # canonical phase fix, keeps sampling deterministic
    return QuantumChannel(q.reshape(kraus_count, d_out, d_in))


def channel_to_json(channel: QuantumChannel) -> str:
    """Serialize to the interchange format: [re, im] pairs, row-major matrices."""
    payload = {
        "d_in": channel.d_in,
        "d_out": channel.d_out,
        "kraus": [
            [[[float(z.real), float(z.imag)] for z in row] for row in op]
            for op in channel.kraus
        ],
    }
    return json.dumps(payload)


def channel_from_json(text: str) -> QuantumChannel:
    """Parse the interchange format. A fault in a field, a shape or an entry, or a map that
    is not trace preserving within ``INPUT_TOL``, is a ValueError that names it. Integers are
    read as doubles: one beyond the double range is an infinite entry, which the channel rejects."""
    payload = json.loads(text, parse_int=float)
    if not isinstance(payload, dict):
        raise ValueError("channel JSON must be an object with fields d_in, d_out and kraus")
    try:
        d_in, d_out, raw = payload["d_in"], payload["d_out"], payload["kraus"]
    except KeyError as exc:
        raise ValueError(f"channel JSON missing required field: {exc}") from exc
    for key, value in (("d_in", d_in), ("d_out", d_out)):
        if type(value) is not float or not value.is_integer() or value < 1:
            raise ValueError(f"channel JSON field {key!r} must be an integer >= 1")
    d_in, d_out = int(d_in), int(d_out)
    if not isinstance(raw, list) or not raw:
        raise ValueError("channel JSON field 'kraus' must be a nonempty array")
    for m, op in enumerate(raw):
        if not (isinstance(op, list) and len(op) == d_out
                and all(isinstance(row, list) and len(row) == d_in for row in op)):
            raise ValueError(f"kraus operator {m} has wrong shape, expected {d_out}x{d_in}")
        for b, row in enumerate(op):
            for a, entry in enumerate(row):
                if not (isinstance(entry, list) and len(entry) == 2
                        and all(type(x) is float for x in entry)):
                    raise ValueError(
                        f"kraus operator {m} entry ({b},{a}) is not a [re, im] pair of numbers"
                    )
    # the [re, im] pairs of a C-ordered double array are its complex entries, bit for bit
    return QuantumChannel(np.array(raw, dtype=float).view(complex)[..., 0], atol=INPUT_TOL)
