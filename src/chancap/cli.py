"""Command-line front end: channel I/O, capacity computation, bound fuzzing,
chain replay, and the depolarizing sweep with CSV/SVG emission. argparse is
the only configuration: it checks each numeric flag as it parses it, and the
commands read the parsed namespace directly.

Exit codes: 0 success, 1 input error, 2 solver non-convergence,
3 inconclusive verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import capacity, certify, channels, entropy, linalg

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_INCONCLUSIVE = 3

SANDWICH_TOL = 1e-9  # nats by which verify-sandwich lets either bound be violated


def fmt(x: float) -> str:
    """Locale-independent numeric formatting at 6 significant digits."""
    return f"{x:.6g}"


def _csv(rows) -> str:
    """CSV lines of ``rows``: a float cell through ``fmt``, None as undefined, others by str."""

    def cell(v) -> str:
        if isinstance(v, float):
            return fmt(v)
        return "undefined" if v is None else str(v)

    return "".join(",".join(map(cell, row)) + "\n" for row in rows)


def _load_channel(args) -> channels.QuantumChannel:
    if args.named and args.channel_file:
        raise ValueError("give either a channel file or --named, not both")
    if args.named:
        return _named_channel(args.named)
    if not args.channel_file:
        raise ValueError("a channel file or --named specification is required")
    try:
        with open(args.channel_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read channel file: {exc}") from exc
    try:
        return channels.channel_from_json(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


_NAMED_KEYS = {  # the keys each --named family takes
    "identity": ("d",), "depolarizing": ("d", "p"), "random": ("din", "dout", "kraus", "seed"),
}


def _named_channel(spec: str) -> channels.QuantumChannel:
    """Parse --named specs like depolarizing:d=2,p=0.5 or random:din=3,dout=2,seed=7.

    Every key must be one the family takes, with a numeric value (an integer
    but for p); dimensions and kraus must be at least 1 and seed at least 0."""
    name, _, rest = spec.partition(":")
    if name not in _NAMED_KEYS:
        raise ValueError(f"unknown named channel {name!r} (use identity, depolarizing, random)")
    params: dict[str, float] = {}
    for item in rest.split(",") if rest else ():
        key, _, value = item.partition("=")
        key = key.strip()
        if not value:
            raise ValueError(f"bad parameter {item!r} in --named spec")
        if key not in _NAMED_KEYS[name]:
            raise ValueError(f"unknown key {key!r} for {name} (use {', '.join(_NAMED_KEYS[name])})")
        convert, kind = (float, "a number") if key == "p" else (int, "an integer")
        try:
            params[key] = convert(value)
        except ValueError:
            raise ValueError(f"{key} must be {kind} in --named spec, got {value.strip()}") from None
        low = 0 if key == "seed" else 1
        if key != "p" and params[key] < low:
            raise ValueError(f"{key} must be at least {low} in --named spec, got {value.strip()}")
    if name == "identity":
        return channels.identity_channel(params.get("d", 2))
    if name == "depolarizing":
        return channels.depolarizing_channel(params.get("d", 2), params.get("p", 0.0))
    d_in = params.get("din", 2)
    return channels.random_channel(
        d_in, params.get("dout", d_in), params.get("kraus"), seed=params.get("seed", 0)
    )


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output file: {exc}") from exc


def cmd_capacity(args) -> int:
    chan = _load_channel(args)
    ce = capacity.entanglement_assisted_capacity(chan, tol=args.tol, max_iter=args.max_iter)
    ch = capacity.holevo_quantity(
        chan, tol=args.tol, restarts=args.restarts, max_iter=args.max_iter, seed=args.seed
    )
    ce_bits, ch_bits = ce.lower_nats / capacity.LN2, ch.upper_nats / capacity.LN2
    ratio = capacity.capacity_ratio(ce_bits, ch_bits)
    record = {
        "ce_bits": ce_bits,
        "ch_bits": ch_bits,
        "ratio": ratio if ratio is not None else "undefined",
        "ce_gap_nats": ce.gap_bound,
        "ch_gap_nats": ch.gap_bound,
        "ce_iterations": ce.iterations,
        "ch_iterations": ch.iterations,
        "ce_converged": ce.converged,
        "ch_converged": ch.converged,
        "ce_stop_reason": ce.stop_reason,
        "ch_stop_reason": ch.stop_reason,
    }
    if args.format == "json":
        _emit(json.dumps(record, indent=2) + "\n", args.out)
    else:
        _emit(_csv([record, record.values()]), args.out)
    return EXIT_OK if ce.converged and ch.converged else EXIT_NOT_CONVERGED


def _ratio_trial(args, index: int):
    chan = channels.random_channel(args.din, args.dout, seed=(args.seed, index))
    return certify.verify_ratio_bound(
        chan, tol=args.tol, restarts=args.restarts, max_iter=args.max_iter,
        seed=(args.seed, index, 1),
    )


def cmd_verify_ratio(args) -> int:
    rows = [("trial", "ce_bits", "ch_bits", "ratio", "prefactor", "slack_bits", "converged")]
    if args.din == 1:
        rows += [(i, 0, 0, None, None, 0, True) for i in range(args.trials)]
        note = "input dimension 1: both capacities vanish; the bound holds trivially"
        _emit(_csv([*rows, ("min_slack_bits", 0), ("note", note)]), args.out)
        return EXIT_OK
    results = _run_trials(_ratio_trial, args, range(args.trials))
    tol_bits = args.tol / capacity.LN2
    inconclusive = 0
    for i, r in enumerate(results):
        ratio = capacity.capacity_ratio(r.ce_bits, r.ch_bits)
        conv = r.ce_converged and r.ch_converged
        inconclusive += not conv
        rows.append((i, r.ce_bits, r.ch_bits, ratio, r.prefactor, r.slack_bits, conv))
    min_slack = min(r.slack_bits for r in results)
    rows += [("min_slack_bits", min_slack), ("non_converged_trials", inconclusive)]
    _emit(_csv(rows), args.out)
    if inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if min_slack >= -2.0 * tol_bits else EXIT_INCONCLUSIVE


def _sandwich_trial(args, index: int):
    rho = linalg.random_density_matrix(args.din, 1 + index % args.din, (args.seed, index, 0))
    tau = linalg.random_density_matrix(args.din, args.din, (args.seed, index, 1))
    div = entropy.relative_entropy(rho, tau).value
    form = entropy.log_derivative_form(tau, rho - tau)
    k = entropy.dominance_constant(rho, tau)
    lower = entropy.lower_bound_factor(k) * form
    return div - form, lower - div  # both must be <= tolerance


def cmd_verify_sandwich(args) -> int:
    results = _run_trials(_sandwich_trial, args, range(args.trials))
    upper_violation = max(r[0] for r in results)
    lower_violation = max(r[1] for r in results)
    rows = [("upper_bound", upper_violation), ("lower_bound", lower_violation)]
    _emit(_csv([("check", "max_violation_nats"), *rows]), args.out)
    ok = upper_violation <= SANDWICH_TOL and lower_violation <= SANDWICH_TOL
    return EXIT_OK if ok else EXIT_INCONCLUSIVE


def _parse_state(spec: str, d: int) -> np.ndarray:
    """The ``--state`` spec as an array; ``certify.chain_report`` validates it."""
    if spec == "max-entangled":
        return linalg.maximally_entangled_state(d)
    if spec.startswith("random:"):
        seed = spec.split(":", 1)[1]
        if not (seed.isdigit() and seed.isascii()):
            raise ValueError(f"--state random:<seed> takes an integer seed from 0, got {seed!r}")
        return linalg.random_pure_state(d * d, int(seed))
    try:
        value = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"--state must be max-entangled, random:<seed> or a JSON array ({exc.msg})"
        ) from None
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"--state must be a JSON array of numbers ({exc})") from exc
    if arr.ndim == 2 and arr.shape[1] == 2:  # [re, im] pairs
        return arr[:, 0] + 1j * arr[:, 1]
    return arr


def cmd_chain(args) -> int:
    chan = _load_channel(args)
    state = _parse_state(args.state, chan.d_in)
    report = certify.chain_report(
        chan, state, tol=args.tol, sup_restarts=args.restarts, sup_seed=args.seed
    )
    rows = [("quantity", "nats", "bits")]
    for name, nats in zip(certify.CHAIN_LINKS, report.chain()):
        rows.append((name, nats, nats / capacity.LN2))
    margins = " ".join(fmt(m) for m in report.support_margins)
    rows += [(k, getattr(report, k), "") for k in ("total_weight", "dominance", "prefactor")]
    rows += [("support_margins", margins, ""), ("monotone_ok", report.monotone_ok, "")]
    _emit(_csv(rows), args.out)
    dominated = min(report.support_margins) >= -linalg.VALIDATION_TOL
    return EXIT_OK if report.monotone_ok and dominated else EXIT_INCONCLUSIVE


def _sweep_point(args, p: float):
    return capacity.depolarizing_capacity_sweep([p])[0]


def cmd_sweep(args) -> int:
    rows = _run_trials(_sweep_point, args, capacity.depolarizing_grid(args.points))
    _emit(_csv([capacity.SweepPoint._fields, *rows]), args.out)
    if args.svg:
        _emit(_sweep_svg(rows), args.svg)
    return EXIT_OK


def _sweep_svg(rows) -> str:
    """Hand-emitted SVG line plot: capacities on the left axis, ratio on the right."""
    width, height = 800, 500
    margin = 60
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    p_max = max(r.p for r in rows)
    ce_max = max(r.ce_bits for r in rows)
    ratio_max = max(r.ratio for r in rows if r.ratio is not None)

    def x_of(p):
        return margin + plot_w * p / p_max

    def y_left(v):
        return margin + plot_h * (1.0 - v / ce_max)

    def y_right(v):
        return margin + plot_h * (1.0 - v / ratio_max)

    def polyline(points, color):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{width - margin}" y1="{margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        polyline([(x_of(r.p), y_left(r.ce_bits)) for r in rows], "#1f77b4"),
        polyline([(x_of(r.p), y_left(r.ch_bits)) for r in rows], "#ff7f0e"),
        polyline(
            [(x_of(r.p), y_right(r.ratio)) for r in rows if r.ratio is not None],
            "#2ca02c",
        ),
        f'<text x="{margin}" y="{margin - 20}" font-size="14">'
        "assisted capacity (blue), unassisted lower bound (orange), ratio (green, right axis)</text>",
        f'<text x="{width / 2:.0f}" y="{height - 15}" font-size="14">mixing weight p</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def _run_trials(fn, args, items):
    """``fn(args, item)`` for each item, over ``--jobs`` processes (all cores if unset)."""
    jobs = args.jobs or os.cpu_count() or 1
    work = functools.partial(fn, args)
    if jobs <= 1 or len(items) <= 1:
        return [work(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # here: serial runs never load multiprocessing

    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(work, items, chunksize=max(1, len(items) // (4 * jobs))))


def _checked(convert, accept, requirement: str):
    """argparse type: ``convert`` the text, then require ``accept(value)``."""

    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid <name> value"
    return parse


def _int_from(low: int):
    """argparse type: an integer from ``low`` to sys.maxsize, the largest length of a range."""
    return _checked(int, lambda n: low <= n <= sys.maxsize, f"from {low} to {sys.maxsize}")


_positive_float = _checked(float, lambda x: 0 < x < math.inf, "finite and positive")  # nan fails


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems with the input-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="chancap",
        description="Quantum channel capacities and certified ratio bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--tol": dict(
            type=_positive_float, default=capacity.DEFAULT_TOL, help="solver tolerance in nats"
        ),
        "--max-iter": dict(dest="max_iter", type=_int_from(1), default=capacity.DEFAULT_MAX_ITER),
        "--restarts": dict(type=_int_from(1), default=capacity.DEFAULT_RESTARTS),
        "--trials": dict(type=_int_from(1), default=100),
        "--din": dict(type=_int_from(1), default=2),
        "--dout": dict(type=_int_from(1), default=2),
        "--seed": dict(type=_int_from(0), default=0, help="master seed"),
    }
    solver = ("--tol", "--max-iter", "--restarts")

    def common(p, *names, channel=False):  # every command takes --jobs and --out
        for name in names:
            p.add_argument(name, **flags[name])
        p.add_argument(
            "--jobs", type=_int_from(1), default=None, help="worker processes (default: all cores)"
        )
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        if channel:
            p.add_argument("channel_file", nargs="?", default=None)
            p.add_argument(
                "--named",
                default=None,
                help=(
                    "named channel, e.g. identity:d=2, random:din=2,dout=3,seed=7, or "
                    "depolarizing:d=2,p=0.5 (completely positive for 0 <= p <= d^2/(d^2-1))"
                ),
            )

    p_cap = sub.add_parser("capacity", help="compute both capacities of a channel")
    common(p_cap, "--seed", *solver, channel=True)
    p_cap.add_argument("--format", choices=["csv", "json"], default="csv")
    p_cap.set_defaults(func=cmd_capacity)

    p_ratio = sub.add_parser(
        "verify-ratio", help="fuzz the dimension-dependent capacity-ratio bound"
    )
    common(p_ratio, "--seed", *solver, "--trials", "--din", "--dout")
    p_ratio.set_defaults(func=cmd_verify_ratio)

    p_sand = sub.add_parser(
        "verify-sandwich",
        help="fuzz the two-sided quadratic-form bounds on the relative entropy",
    )
    common(p_sand, "--seed", "--trials", "--din")
    p_sand.set_defaults(func=cmd_verify_sandwich)

    p_chain = sub.add_parser("chain", help="replay the upper-bound chain on one instance")
    common(p_chain, "--seed", "--tol", "--restarts", channel=True)
    p_chain.add_argument(
        "--state",
        default="max-entangled",
        help='pure input: "max-entangled", "random:SEED", or a JSON vector',
    )
    p_chain.set_defaults(func=cmd_chain)

    p_sweep = sub.add_parser(
        "sweep", help="capacities of the qubit depolarizing family over a p grid"
    )
    common(p_sweep)
    p_sweep.add_argument("--points", type=_int_from(2), default=81)
    p_sweep.add_argument("--svg", default=None, help="also write an SVG plot here")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
