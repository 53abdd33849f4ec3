"""Reference clock: wall-clock times rescaled to a fixed machine speed.

The benchmark was defined on a shared 2-core machine whose speed drifts by
up to 2x over tens of seconds as other tenants load it. Six 12-second
``chain_fuzz`` runs on one seed gave 32 to 51 items per second of wall
clock, so raw times could not resolve a 25% change between runs.

A fixed reference kernel is timed between items: Hermitian
eigendecompositions of 2x2 to 9x9 and batched matrices, a matrix
function, channel-style einsums, a Kronecker product, a QR and a short
Python loop, the mix of numpy calls and interpreter work that chancap does,
with none of its code. A wall time is multiplied by ``REFERENCE_S`` over
the kernel time measured around it: the time the same work takes on a
machine where the kernel takes ``REFERENCE_S``. The same six runs then
varied by 7% end to end. A change to chancap moves the rescaled times
exactly as it moves the wall times they are made from, because the kernel
does not call chancap.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0025


class ReferenceClock:
    """Times the reference kernel and converts wall seconds to reference seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._herm = {}
        for d in (2, 3, 4, 6, 9):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            self._herm[d] = a + a.conj().T
        self._kraus = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        self._batch = np.stack([self._herm[3]] * 16)
        self.kernel_s()  # the first run pays one-off numpy set-up

    def kernel_s(self) -> float:
        """Wall time of one run of the reference kernel."""
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(6):
            for m in self._herm.values():
                w, v = np.linalg.eigh(m)
                x = (v * np.log(np.clip(w, 1e-30, None) + 1.0)) @ v.conj().T
                acc += float(np.trace(x).real) + float(np.linalg.norm(x))
            k, h3 = self._kraus, self._herm[3]
            out = np.einsum("mbi,ij,mcj->bc", k, h3, k.conj())
            acc += float(np.linalg.eigvalsh(np.kron(out, h3))[0])
            acc += float(np.linalg.eigvalsh(self._batch)[0, 0])
            amps = np.einsum("mbi,ri->rmb", k, self._batch[:, 0, :])
            acc += float(np.einsum("rmb,rmc->rbc", amps, amps.conj()).real.sum())
            q, _ = np.linalg.qr(self._herm[4])
            acc += float(abs(q[0, 0])) + sum({i: 0.5 * i for i in range(20)}.values())
        return time.perf_counter() - t0

    @staticmethod
    def factor(before_s: float, after_s: float) -> float:
        """Wall-to-reference factor from the kernel times bracketing a measurement."""
        return 2.0 * REFERENCE_S / (before_s + after_s)
