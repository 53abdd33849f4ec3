"""Outside-in span tracer for the chancap benchmark.

The tracer replaces listed public functions with timing wrappers in every
chancap module namespace that binds them (``certify`` imports solver and
entropy functions by name, so patching only their home module would miss
those calls), plus the numpy eigensolvers and ``scipy.optimize.minimize``.
Nothing under ``src/`` changes. A listed name that no longer exists is
skipped and reported in ``missing``, so refactors of the package do not
break the benchmark.

Spans (name, start, end, parent, item) are kept in flat in-memory arrays
and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

CHANCAP_MODULES = (
    "chancap",
    "chancap.linalg",
    "chancap.channels",
    "chancap.entropy",
    "chancap.capacity",
    "chancap.certify",
    "chancap.cli",
)
LAYERS = ("linalg", "channels", "entropy", "capacity", "certify", "cli")
ITEM_SPAN = "bench.item"
EIG_SPAN = "linalg.eig"


def _solver_fact(prefix):
    """Result hook for the two capacity solvers: iterations, convergence, gap/tol."""

    def hook(tracer, bound, result):
        tracer.fact(f"{prefix}_solves", 1)
        for key, attr in (("iterations", "iterations"), ("converged", "converged")):
            value = getattr(result, attr, None)
            if value is None:
                tracer.report_missing(f"{prefix}.{attr}")
            else:
                tracer.fact(f"{prefix}_{key}", int(value))
        witnesses = getattr(result, "witnesses", None)
        if prefix == "ch":
            tracer.fact("ch_witnesses", len(witnesses) if witnesses is not None else 0)
        gap = getattr(result, "gap_bound", None)
        tol = bound.arguments.get("tol")
        if gap is not None and tol:
            tracer.fact("gap_over_tol", float(gap) / float(tol))

    return hook


def _slack_fact(tracer, bound, result):
    slack = getattr(result, "slack_bits", None)
    if slack is None:
        tracer.report_missing("verify_ratio_bound.slack_bits")
    else:
        tracer.fact("slack_bits", float(slack))


def _link_fact(tracer, bound, result):
    chain = getattr(result, "chain", None)
    if chain is None:
        tracer.report_missing("chain_report.chain")
        return
    links = chain()
    tracer.fact("link_slack_nats", min(b - a for a, b in zip(links, links[1:])))


def _eig_size(args, kwargs):
    a = args[0] if args else kwargs.get("a")
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


# (home module, attribute path, span name, size function, result hook)
TARGETS = (
    ("numpy.linalg", "eigh", EIG_SPAN, _eig_size, None),
    ("numpy.linalg", "eigvalsh", EIG_SPAN, _eig_size, None),
    ("scipy.optimize", "minimize", "capacity.minimize", None, None),
    ("chancap.linalg", "hermitian_eig", "linalg.hermitian_eig", None, None),
    ("chancap.linalg", "is_psd", "linalg.is_psd", None, None),
    ("chancap.linalg", "clamped_eigenvalues", "linalg.clamped_eigenvalues", None, None),
    ("chancap.linalg", "check_density_matrix", "linalg.check_density_matrix", None, None),
    ("chancap.linalg", "partial_trace", "linalg.partial_trace", None, None),
    ("chancap.linalg", "schmidt_decompose", "linalg.schmidt_decompose", None, None),
    ("chancap.linalg", "tensor_product", "linalg.tensor_product", None, None),
    ("chancap.linalg", "seeded_rng", "linalg.seeded_rng", None, None),
    ("chancap.linalg", "random_pure_state", "linalg.random_pure_state", None, None),
    ("chancap.linalg", "random_density_matrix", "linalg.random_density_matrix", None, None),
    ("chancap.channels", "QuantumChannel.apply", "channels.apply", None, None),
    ("chancap.channels", "QuantumChannel.apply_extended", "channels.apply_extended", None, None),
    ("chancap.channels", "depolarizing_channel", "channels.depolarizing_channel", None, None),
    ("chancap.channels", "random_channel", "channels.random_channel", None, None),
    ("chancap.channels", "kraus_from_choi", "channels.kraus_from_choi", None, None),
    ("chancap.entropy", "von_neumann_entropy", "entropy.von_neumann_entropy", None, None),
    ("chancap.entropy", "relative_entropy", "entropy.relative_entropy", None, None),
    ("chancap.entropy", "log_derivative_form", "entropy.log_derivative_form", None, None),
    ("chancap.entropy", "dominance_constant", "entropy.dominance_constant", None, None),
    ("chancap.entropy", "lower_bound_factor", "entropy.lower_bound_factor", None, None),
    ("chancap.capacity", "entanglement_assisted_capacity", "capacity.ce", None, _solver_fact("ce")),
    ("chancap.capacity", "holevo_quantity", "capacity.ch", None, _solver_fact("ch")),
    ("chancap.capacity", "max_output_divergence", "capacity.sup", None, None),
    ("chancap.capacity", "mutual_information_gradient", "capacity.mi_gradient", None, None),
    ("chancap.capacity", "depolarizing_capacity_sweep", "capacity.sweep", None, None),
    ("chancap.certify", "verify_ratio_bound", "certify.verify_ratio_bound", None, _slack_fact),
    ("chancap.certify", "chain_report", "certify.chain_report", None, _link_fact),
    ("chancap.certify", "output_barycenter", "certify.output_barycenter", None, None),
    ("chancap.certify", "support_margins", "certify.support_margins", None, None),
    ("chancap.certify", "capacity_ratio_prefactor", "certify.capacity_ratio_prefactor", None, None),
    ("chancap.cli", "main", "cli.main", None, None),
)


class Tracer:
    """Records nested spans of wrapped calls, grouped by benchmark item."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.name = array("i")
        self.size = array("i")
        self.facts: list[tuple[int, str, float]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._item_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, size: int) -> int:
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self._item_id)
        self.name.append(name_id)
        self.size.append(size)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def item_span(self, item_id: int):
        """Root span of one benchmark item; every span inside carries its id."""
        self._item_id = item_id
        idx = self._open(self._name_id(ITEM_SPAN), 0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())
            self._item_id = -1

    def fact(self, key: str, value: float) -> None:
        """Record a solver-reported value for the current item."""
        self.facts.append((self._item_id, key, value))

    def fact_values(self, key: str, items=None) -> list[float]:
        return [v for i, k, v in self.facts if k == key and (items is None or i in items)]

    def report_missing(self, key: str) -> None:
        if key not in self.missing:
            self.missing.append(key)

    def wrap(self, span: str, fn, size_of=None, on_result=None):
        name_id = self._name_id(span)
        signature = inspect.signature(fn) if on_result is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id, size_of(args, kwargs) if size_of else 0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, time.perf_counter())
            if on_result is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_result(self, bound, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        """Patch every target in its home module and in each chancap namespace binding it."""
        namespaces = [importlib.import_module(m) for m in CHANCAP_MODULES]
        for home_name, path, span, size_of, on_result in targets:
            home = importlib.import_module(home_name)
            owner = home
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.report_missing(f"{home_name}.{path}")
                continue
            wrapper = self.wrap(span, original, size_of, on_result)
            self._patch(owner, attr, original, wrapper)
            if owners:
                continue  # methods are reached through the class alone
            for module in namespaces:
                if module is home:
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def span_table(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "item": np.frombuffer(self.item, dtype=np.int32),
            "size": np.frombuffer(self.size, dtype=np.int32),
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - covered,
        }

    def save(self, path) -> None:
        """Write all spans to a compressed ``.npz`` file."""
        table = self.span_table()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: table[k] for k in ("name", "item", "size", "parent", "start", "end")},
        )


def layer_of(span: str) -> str:
    return span.split(".", 1)[0]


def self_ms_by_layer(tracer: Tracer, items: int) -> dict[str, float]:
    """Per-item self time of each layer, largest first."""
    table = tracer.span_table()
    total = np.bincount(table["name"], weights=table["self"], minlength=len(tracer.names))
    layers = {layer: 0.0 for layer in LAYERS}
    for i, name in enumerate(tracer.names):
        if layer_of(name) in layers:
            layers[layer_of(name)] += 1e3 * float(total[i]) / items
    return dict(sorted(layers.items(), key=lambda kv: -kv[1]))


def count_totals(tracer: Tracer, items=None) -> dict[str, int]:
    """Work counts over the given items (all by default). These depend only on
    the inputs, so they repeat exactly: calls per span name, eigensolver calls
    and matrices, solver iterations and witnesses."""
    table = tracer.span_table()
    mask = np.ones(len(table["name"]), dtype=bool)
    if items is not None:
        mask = np.isin(table["item"], list(items))
    calls = np.bincount(table["name"][mask], minlength=len(tracer.names))
    by_name = {n: int(calls[i]) for i, n in enumerate(tracer.names) if n != ITEM_SPAN}
    eig_id = tracer.names.index(EIG_SPAN) if EIG_SPAN in tracer.names else -1
    eig_sizes = table["size"][mask & (table["name"] == eig_id)]
    keep = None if items is None else set(items)

    def fact_sum(key):
        return int(sum(tracer.fact_values(key, keep)))

    totals = {
        "linalg.eig_calls": len(eig_sizes),
        "linalg.eig_single_calls": int(np.sum(eig_sizes == 1)),
        "linalg.eig_matrices": int(np.sum(eig_sizes)),
        "entropy.calls": sum(c for n, c in by_name.items() if layer_of(n) == "entropy"),
        "capacity.ch_iterations": fact_sum("ch_iterations"),
        "capacity.ch_witnesses": fact_sum("ch_witnesses"),
        "capacity.ce_iterations": fact_sum("ce_iterations"),
        "capacity.minimize_calls": by_name.get("capacity.minimize", 0),
        "channels.apply_calls": (
            by_name.get("channels.apply", 0) + by_name.get("channels.apply_extended", 0)
        ),
    }
    totals.update({f"calls:{n}": c for n, c in by_name.items() if c})
    return totals


def layer_metrics(tracer: Tracer, items: int, untraced_s: float, traced_s: float) -> dict:
    """Per-item layer metrics from the recorded spans and solver facts.

    A metric whose layer the workload never calls reads 0.
    """
    table = tracer.span_table()
    names = tracer.names
    dur = np.bincount(table["name"], weights=table["dur"], minlength=len(names))
    dur_ms = {n: 1e3 * float(dur[i]) / items for i, n in enumerate(names)}
    counts = count_totals(tracer)
    layer_self = self_ms_by_layer(tracer, items)

    def total(key):
        return sum(tracer.fact_values(key))

    def per_item(key):
        return counts[key] / items

    solves = total("ce_solves") + total("ch_solves")
    eig_calls = counts["linalg.eig_calls"]
    return {
        "linalg.eig_calls": per_item("linalg.eig_calls"),
        "linalg.eig_single_calls": per_item("linalg.eig_single_calls"),
        "linalg.eig_matrices": per_item("linalg.eig_matrices"),
        "linalg.eig_batch_mean": counts["linalg.eig_matrices"] / eig_calls if eig_calls else 0.0,
        "linalg.eig_ms": dur_ms.get(EIG_SPAN, 0.0),
        "linalg.self_ms": layer_self["linalg"],
        "entropy.calls": per_item("entropy.calls"),
        "entropy.self_ms": layer_self["entropy"],
        "capacity.self_ms": layer_self["capacity"],
        "capacity.ch_ms": dur_ms.get("capacity.ch", 0.0),
        "capacity.ch_iterations": per_item("capacity.ch_iterations"),
        "capacity.ch_witnesses": per_item("capacity.ch_witnesses"),
        "capacity.minimize_calls": per_item("capacity.minimize_calls"),
        "capacity.minimize_ms": dur_ms.get("capacity.minimize", 0.0),
        "capacity.sup_ms": dur_ms.get("capacity.sup", 0.0),
        "capacity.ce_ms": dur_ms.get("capacity.ce", 0.0),
        "capacity.ce_iterations": per_item("capacity.ce_iterations"),
        "capacity.converged_frac": (
            (total("ce_converged") + total("ch_converged")) / solves if solves else 0.0
        ),
        "capacity.max_gap_over_tol": max(tracer.fact_values("gap_over_tol"), default=0.0),
        "certify.min_slack_bits": min(tracer.fact_values("slack_bits"), default=0.0),
        "certify.min_link_slack_nats": min(tracer.fact_values("link_slack_nats"), default=0.0),
        "certify.self_ms": layer_self["certify"],
        "channels.apply_calls": per_item("channels.apply_calls"),
        "channels.self_ms": layer_self["channels"],
        "cli.self_ms": layer_self["cli"],
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
