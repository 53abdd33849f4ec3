"""The four chancap benchmark workloads.

Each workload turns ``(seed, i)`` into the i-th input, runs one item per call
(closed loop, single caller) and checks every output. The program receives
only the generated inputs. ``fingerprint`` reduces an output to values that
must repeat bit for bit when the same item runs again, traced or not.
``nominal_item_s`` sizes the fixed item count of a traced run.

The modules of chancap are looked up at call time (``certify.verify_ratio_bound``
and so on), so the tracer's patches apply to the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from chancap import certify, channels, cli, entropy, linalg

LN2 = math.log(2.0)


CATALOG_SEED = 20240830


def _haar_unitary(n: int, g: np.random.Generator) -> np.ndarray:
    a = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (r.diagonal() / np.abs(r.diagonal()))


def _orbit_point(base: channels.QuantumChannel, g: np.random.Generator):
    """A Haar-random channel unitarily equivalent to ``base``, and its input rotation.

    K_m -> sum_n W_mn U_out K_n U_in^dagger with U_in, U_out and W Haar-random.
    """
    u_in = _haar_unitary(base.d_in, g)
    u_out = _haar_unitary(base.d_out, g)
    w = _haar_unitary(base.kraus.shape[0], g)
    kraus = np.einsum("mn,ab,nbc,dc->mad", w, u_out, base.kraus, u_in.conj())
    return channels.QuantumChannel(kraus), u_in


class RatioFuzz:
    """``certify.verify_ratio_bound`` at tol 1e-7 with 32 restarts per channel.

    Holevo solve times differ by 10x between random channels but far less
    between unitarily equivalent ones. So the inputs are random points, drawn
    from ``(seed, item)``, on the unitary orbits of a fixed catalog of
    Haar-random channels. Every seed runs new matrices and new solver starts
    over the same mix of easy and hard channels, which keeps the few dozen
    items of one run steady across seeds.
    """

    name = "ratio_fuzz"
    sizes = ((2, 2), (2, 3), (3, 2), (3, 3))
    catalog_size = 128
    tol = 1e-7
    restarts = 32
    nominal_item_s = 0.45
    pool_size = 256

    def __init__(self):
        self.catalog = [
            channels.random_channel(*self.sizes[i % len(self.sizes)], seed=(CATALOG_SEED, i))
            for i in range(self.catalog_size)
        ]

    def item(self, seed: int, i: int):
        chan, _ = _orbit_point(self.catalog[i % self.catalog_size], np.random.default_rng([seed, i]))
        return chan, (seed, i, 1)

    def warmup_input(self):
        return self.item(0, 0)

    def run(self, item):
        chan, solver_seed = item
        return certify.verify_ratio_bound(
            chan, tol=self.tol, restarts=self.restarts, seed=solver_seed
        )

    def check(self, item, out) -> bool:
        return (
            out.ce_converged
            and out.ch_converged
            and out.slack_bits >= -2.0 * self.tol / LN2
        )

    @staticmethod
    def fingerprint(out):
        return (out.ce_bits, out.ch_bits, out.slack_bits, out.ce_converged, out.ch_converged)


class ChainFuzz:
    """``certify.chain_report`` at tol 1e-7 on a channel and pure input, d in {2, 3}.

    As in ``RatioFuzz``, the inputs are seeded points on the unitary orbits of
    a fixed catalog of Haar-random (channel, state) pairs: the channel turns
    as there, and the state by V (x) U_in with a Haar-random V on the
    auxiliary factor. Every link of the chain but the entropy bound, which
    depends on the phases fixed on the Schmidt basis, is unchanged. The
    catalog fixes how many slow supremum ascents fall in the latency tail.
    """

    name = "chain_fuzz"
    tol = 1e-7
    margin_tol = 1e-9
    catalog_size = 1024
    nominal_item_s = 0.03
    pool_size = 1024

    def __init__(self):
        self.catalog = []
        for i in range(self.catalog_size):
            d = 2 + i % 2
            self.catalog.append((
                channels.random_channel(d, d, seed=(CATALOG_SEED, i, 0)),
                linalg.random_pure_state(d * d, (CATALOG_SEED, i, 1)),
            ))

    def item(self, seed: int, i: int):
        base, state = self.catalog[i % self.catalog_size]
        g = np.random.default_rng([seed, i])
        chan, u_in = _orbit_point(base, g)
        v = _haar_unitary(base.d_in, g)
        return chan, np.kron(v, u_in) @ state, (seed, i, 2)

    def warmup_input(self):
        return self.item(0, 1)

    def run(self, item):
        chan, state, sup_seed = item
        return certify.chain_report(chan, state, tol=self.tol, sup_seed=sup_seed)

    def check(self, item, out) -> bool:
        return out.monotone_ok and min(out.support_margins) >= -self.margin_tol

    @staticmethod
    def fingerprint(out):
        return out.chain() + tuple(out.support_margins)


class SandwichFuzz:
    """The two-sided quadratic-form bounds on D(rho||tau), dimension 2..5, rank(rho) 1..d."""

    name = "sandwich_fuzz"
    residual_tol = 1e-9
    nominal_item_s = 0.0003
    pool_size = 2048

    def item(self, seed: int, i: int):
        dim = 2 + i % 4
        rank = 1 + (i // 4) % dim
        rho = linalg.random_density_matrix(dim, rank, (seed, i, 0))
        tau = linalg.random_density_matrix(dim, dim, (seed, i, 1))
        return rho, tau

    def warmup_input(self):
        return self.item(0, 0)

    def run(self, item):
        rho, tau = item
        div = entropy.relative_entropy(rho, tau).value
        form = entropy.log_derivative_form(tau, rho - tau)
        k = entropy.dominance_constant(rho, tau)
        lower = entropy.lower_bound_factor(k) * form
        return div - form, lower - div

    def check(self, item, out) -> bool:
        return out[0] <= self.residual_tol and out[1] <= self.residual_tol

    @staticmethod
    def fingerprint(out):
        return out


def depolarizing_assisted_bits(p: float) -> float:
    eigs = (1 - 3 * p / 4, p / 4, p / 4, p / 4)
    return 2.0 + sum(x * math.log2(x) for x in eigs if x > 0)


def depolarizing_holevo_bits(p: float) -> float:
    x = p / 2.0
    if x <= 0.0 or x >= 1.0:
        return 1.0
    return 1.0 + x * math.log2(x) + (1 - x) * math.log2(1 - x)


class DepolarizingSweep:
    """The 82-point qubit grid of ``chancap sweep``, one in-process ``chancap capacity`` call per point.

    Pass k over the grid uses a solver seed drawn from ``(seed, k)``.
    """

    name = "depolarizing_sweep"
    probe_p = 0.999
    capacity_tol = 1e-3
    ratio_tol = 0.05
    nominal_item_s = 0.045
    pool_size = 82 * 16
    grid = sorted(set(float(p) for p in np.linspace(0.0, 4.0 / 3.0, 81)) | {probe_p})

    def item(self, seed: int, i: int):
        k, j = divmod(i, len(self.grid))
        solver_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0] >> 1)
        return self.grid[j], solver_seed

    def warmup_input(self):
        return 0.5, 0

    def run(self, item):
        p, solver_seed = item
        argv = [
            "capacity", "--named", f"depolarizing:d=2,p={p!r}",
            "--tol", "1e-10", "--restarts", "8", "--max-iter", "2000",
            "--jobs", "1", "--format", "json", "--seed", str(solver_seed),
        ]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(self, item, out) -> bool:
        p, _ = item
        code, text = out
        if code != 0:
            return False
        try:
            record = json.loads(text)
            ce, ch = float(record["ce_bits"]), float(record["ch_bits"])
        except (ValueError, KeyError, TypeError):
            return False
        ok = (
            abs(ce - depolarizing_assisted_bits(p)) <= self.capacity_tol
            and abs(ch - depolarizing_holevo_bits(p)) <= self.capacity_tol
        )
        if p == self.probe_p:
            ratio = record.get("ratio")
            ok = ok and isinstance(ratio, float) and abs(ratio - 3.0) <= self.ratio_tol * 3.0
        return ok

    @staticmethod
    def fingerprint(out):
        return out


WORKLOADS = {w.name: w for w in (RatioFuzz, ChainFuzz, SandwichFuzz, DepolarizingSweep)}
