"""Command-line entry point wiring all modules together.

Reproduction commands (cn, curves, sweep-quarter, table1) emit the data behind
the probability tables and figures; simulate and fullsim drive the actual
state synthesis; search builds the offline (f, r) database.  All CSV output is
deterministic for a fixed seed: same config, same bytes.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import product

import numpy as np

from . import __version__, csvio, fullsim, grover, search
from .symfunc import (
    SymmetricBooleanFunction,
    c_profile,
    dj_optimal_profile,
    optimal_function,
    spectrum_value,
)
from .symstate import (
    biased_dj_state,
    childs_probability,
    childs_state,
    dj_optimal_success_exact,
    dj_state,
    parity_sample,
    success_probability,
)
from .krawtchouk import column, columns

__all__ = ["main"]


def _emit(args: argparse.Namespace, command: str, params: dict, header, cols, trailer=()) -> None:
    out = getattr(args, "out", None)
    if out:
        csvio.write_csv(out, command, params, header, cols, trailer)
    else:
        sys.stdout.write(csvio.render_csv(command, params, header, cols, trailer))


def _parse_function(n: int, code: str) -> SymmetricBooleanFunction:
    try:
        return SymmetricBooleanFunction.from_hex(n, code)
    except ValueError as exc:
        raise ValueError(f"--f: {exc}") from exc


def _check_w(n: int, w: int) -> None:
    if not 0 <= w <= n:
        raise ValueError(f"--w must be in [0, {n}], got {w}")


# ---------------------------------------------------------------------------
# command handlers

def _cmd_krawtchouk(args: argparse.Namespace) -> int:
    n = args.n
    if n < 0:
        raise ValueError(f"--n must be non-negative, got {n}")
    if args.k is not None:
        if not 0 <= args.k <= n:
            raise ValueError(f"--k must be in [0, {n}], got {args.k}")
        _emit(args, "krawtchouk", {"n": n, "k": args.k}, ["i", "value"],
              [range(n + 1), column(args.k, n)])
    else:
        header = ["i"] + [f"k{k}" for k in range(n + 1)]
        _emit(args, "krawtchouk", {"n": n}, header, [range(n + 1), *columns(n)])
    return 0


def _cmd_optfn(args: argparse.Namespace) -> int:
    _check_w(args.n, args.w)
    f = optimal_function(args.n, args.w)
    print(f"re_f = [{', '.join(str(b) for b in f.bits)}]")
    print(f"hex = {f.to_hex()}")
    print(f"rw_f({args.w}) = {spectrum_value(f, args.w)}")
    return 0


def _cmd_cn(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise ValueError(f"--max-n must be positive, got {args.max_n}")
    cs, w_mins = [], []
    for profile in map(c_profile, range(1, args.max_n + 1)):
        cs.append(min(profile))
        w_mins.append(profile.index(cs[-1]))
    _emit(args, "cn", {"max_n": args.max_n}, ["n", "c", "w_min"], [range(1, len(cs) + 1), cs, w_mins])
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        raise ValueError(f"--n must be positive, got {n}")
    # the baseline is symmetric in w <-> n-w, like the DJ profile
    childs = [0.0] * (n + 1)
    for w in range(n // 2 + 1):
        childs[w] = childs[n - w] = childs_probability(n, w)
    _emit(args, "curves", {"n": n}, ["w", "dj_prob", "childs_prob"],
          [range(n + 1), dj_optimal_profile(n), childs])
    return 0


def _cmd_sweep_quarter(args: argparse.Namespace) -> int:
    if args.max_n < 4:
        raise ValueError(f"--max-n must be at least 4, got {args.max_n}")
    ns = range(4, args.max_n + 1)
    _emit(args, "sweep-quarter", {"max_n": args.max_n}, ["n", "dj_prob", "childs_prob"],
          [ns, [float(dj_optimal_success_exact(n, n // 4)) for n in ns],
           [childs_probability(n, n // 4) for n in ns]])
    return 0


def _simulate_state(args: argparse.Namespace):
    n, w = args.n, args.w
    if args.method == "childs":
        if args.f is not None or args.r is not None:
            raise ValueError("--f/--r do not apply to --method childs")
        return childs_state(n, w), None
    f = _parse_function(n, args.f) if args.f is not None else optimal_function(n, w)
    if args.method == "dj":
        if args.r is not None:
            raise ValueError("--r applies only to --method biased")
        return dj_state(f), f
    r = args.r if args.r is not None else n / 2.0
    if not 0.0 <= r <= n:
        raise ValueError(f"--r must be in [0, {n}], got {r}")
    return biased_dj_state(f, r), f


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be positive, got {args.n}")
    _check_w(args.n, args.w)
    if args.trials is not None and args.trials < 1:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    if args.t is not None and not args.grover:
        raise ValueError("--t requires --grover")
    state, f = _simulate_state(args)
    print(f"method = {args.method}")
    print(f"n = {args.n}")
    print(f"w = {args.w}")
    if f is not None:
        print(f"f = {f.to_hex()}")
    p = success_probability(state, args.w)
    print(f"analytic probability = {csvio.fmt(p)}")
    if args.grover:
        plan = grover.plan_amplification(state, args.w)
        t = args.t if args.t is not None else plan.t
        state = grover.amplify(state, args.w, t)
        p_after = success_probability(state, args.w)
        print(f"theta = {csvio.fmt(plan.theta)}")
        print(f"t = {t}")
        print(f"probability before = {csvio.fmt(p)}")
        print(f"probability after = {csvio.fmt(p_after)}")
        print(f"expected repetitions before = {csvio.fmt(1.0 / p if p > 0 else float('inf'))}")
        print(f"expected repetitions after = {csvio.fmt(1.0 / p_after if p_after > 0 else float('inf'))}")
        p = p_after
    if args.trials:
        rng = np.random.default_rng(args.seed)
        outcomes = parity_sample(state, args.trials, rng)
        counts = np.bincount(outcomes, minlength=args.n + 1)
        params = {"n": args.n, "w": args.w, "method": args.method,
                  "trials": args.trials, "seed": args.seed}
        _emit(args, "simulate", params, ["weight", "count", "frequency", "analytic"],
              [range(args.n + 1), counts, counts / args.trials, state.probabilities])
    return 0


def _cmd_fullsim(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be positive, got {args.n}")
    f = _parse_function(args.n, args.f)
    r = args.r if args.r is not None else args.n / 2.0
    if not 0.0 <= r <= args.n:
        raise ValueError(f"--r must be in [0, {args.n}], got {r}")
    state = fullsim.biased_dj_output(f, r)
    profile = fullsim.weight_profile(state)
    # format(x, f"0{n}b") for every x: each high half followed by each low half
    high = list(map("".join, product("01", repeat=args.n - args.n // 2)))
    low = list(map("".join, product("01", repeat=args.n // 2)))
    labels = [a + b for a in high for b in low]
    trailer = [
        f"weight {k} amplitude {csvio.fmt(profile.amplitudes[k].real)} "
        f"deviation {csvio.fmt(profile.deviations[k])}"
        for k in range(args.n + 1)
    ] + [f"symmetric {profile.symmetric}"]
    _emit(args, "fullsim", {"n": args.n, "f": f.to_hex(), "r": r},
          ["x", "weight", "re", "im"],
          [labels, fullsim.weights(args.n), state.amps.real, state.amps.imag], trailer)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be positive, got {args.n}")
    if args.all_w:
        targets = range(1, args.n)
    elif args.w is not None:
        _check_w(args.n, args.w)
        targets = [args.w]
    else:
        raise ValueError("one of --w or --all-w is required")
    store = search.RecordStore(args.db)
    for w in targets:
        rec = search.exhaustive_search(args.n, w)
        store.append(rec)
        print(rec.to_json())
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    if args.from_n < 1 or args.to_n < args.from_n:
        raise ValueError(f"--from/--to must satisfy 1 <= from <= to, got {args.from_n}..{args.to_n}")
    store = search.RecordStore(args.db) if args.db else None
    records = search.table_one(range(args.from_n, args.to_n + 1), store=store)
    header = ["n", "w", "method", "f_hex", "r", "probability"]
    _emit(args, "table1", {"from": args.from_n, "to": args.to_n}, header,
          [[getattr(rec, field) for rec in records] for field in header])
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickeprep",
        description="Dicke-state preparation workbench",
    )
    parser.add_argument("--version", action="version", version=f"dickeprep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("krawtchouk", help="exact Krawtchouk matrix or column as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_krawtchouk)

    p = sub.add_parser("optfn", help="sign-rule optimal function for (n, w)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.set_defaults(func=_cmd_optfn)

    p = sub.add_parser("cn", help="c(n) enumeration (min over w) for n = 1..max")
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_cn)

    p = sub.add_parser("curves", help="DJ vs biased-Hadamard probabilities over w")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("sweep-quarter", help="probabilities at w = n//4 over n")
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep_quarter)

    p = sub.add_parser("simulate", help="synthesize a state, optionally amplify and sample")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--method", choices=("dj", "biased", "childs"), required=True)
    p.add_argument("--f", default=None, help="function as hex (default: sign-rule optimum)")
    p.add_argument("--r", type=float, default=None, help="bias for --method biased")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grover", action="store_true")
    p.add_argument("--t", type=int, default=None, help="Grover iterations (default: planned)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fullsim", help="dense 2^n simulation of the (biased) DJ pipeline")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f", required=True, help="function as hex")
    p.add_argument("--r", type=float, default=None, help="bias of the final layer (default n/2)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fullsim)

    p = sub.add_parser("search", help="best (f, r) search into the record database")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, default=None)
    p.add_argument("--all-w", dest="all_w", action="store_true")
    p.add_argument("--db", required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("table1", help="biased/DJ/baseline probability table as CSV")
    p.add_argument("--from", dest="from_n", type=int, required=True)
    p.add_argument("--to", dest="to_n", type=int, required=True)
    p.add_argument("--db", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_table1)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
