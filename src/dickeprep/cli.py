"""Command-line entry point wiring all modules together.

Reproduction commands (cn, curves, sweep-quarter, table1) emit the data behind
the probability tables and figures; simulate and fullsim drive the actual
state synthesis; search builds the offline (f, r) database.  All CSV output is
deterministic for a fixed seed: same config, same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from itertools import product
from math import comb

import numpy as np

from . import __version__, csvio, fullsim, grover, search
from .errors import ResourceLimitError
from .symfunc import SymmetricBooleanFunction, optimal_function, spectrum_value
from .symstate import (
    biased_dj_state,
    c_minima,
    c_minima_bytes,
    childs_state,
    curves_columns,
    dj_state,
    quarter_columns,
    success_probability,
)
from .krawtchouk import column, dump_rows

__all__ = ["main"]

# cn --max-n bound on c_minima's float arrays, about 20 MiB: those of --max-n 2895
MAX_CN_TABLE_BYTES = c_minima_bytes(2895)


def _krawtchouk_text_bytes(n: int) -> int:
    """A bound on the `krawtchouk --n` text: (n+1)^2 cells, each at most 2^n.

    |K_i(k, n)| <= C(n, i) <= 2^n has at most floor(n log10 2) + 1 digits;
    with a sign and a comma, a cell takes at most that + 2 bytes.
    30103/100000 > log10 2, so the bound holds at every n.
    """
    return (n + 1) ** 2 * (n * 30103 // 100000 + 3)


# krawtchouk --n bound on the matrix text, about 333 MB: that of --n 1030
MAX_KRAWTCHOUK_TEXT_BYTES = _krawtchouk_text_bytes(1030)


@contextlib.contextmanager
def _full_integers():
    """Lift CPython's 4300-digit limit on int-to-decimal text while a command runs.

    Exact integers are printed in full, in output and in error messages
    alike.  The limit is process-wide and main() may run in-process, so it
    is restored on the way out.  Pythons without the limit (before 3.10.7)
    have nothing to lift.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


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
    if args.k is not None and not 0 <= args.k <= n:
        raise ValueError(f"--k must be in [0, {n}], got {args.k}")
    if args.k is not None:
        header = ["i", "value"]
        csvio.write_csv(args.out, "krawtchouk", {"n": n, "k": args.k}, header,
                        csvio.column_rows(header, [range(n + 1), column(args.k, n)]))
    else:
        text = _krawtchouk_text_bytes(n)
        if text > MAX_KRAWTCHOUK_TEXT_BYTES:
            raise ResourceLimitError(
                f"--n {n} needs up to {text} B of text, over the limit {MAX_KRAWTCHOUK_TEXT_BYTES} B"
            )
        header = ["i"] + [f"k{k}" for k in range(n + 1)]
        csvio.write_csv(args.out, "krawtchouk", {"n": n}, header, dump_rows(n))
    return 0


def _cmd_optfn(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ValueError(f"--n must be non-negative, got {args.n}")
    _check_w(args.n, args.w)
    f = optimal_function(args.n, args.w)
    rw = spectrum_value(f, args.w)
    print(f"re_f = [{', '.join(str(b) for b in f.bits)}]")
    print(f"hex = {f.to_hex()}")
    print(f"rw_f({args.w}) = {rw}")
    return 0


def _cmd_cn(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise ValueError(f"--max-n must be positive, got {args.max_n}")
    table = c_minima_bytes(args.max_n)
    if table > MAX_CN_TABLE_BYTES:
        raise ResourceLimitError(
            f"--max-n {args.max_n} needs a {table} B float table, over the limit {MAX_CN_TABLE_BYTES} B"
        )
    cs, w_mins = zip(*c_minima(args.max_n))
    header = ["n", "c", "w_min"]
    csvio.write_csv(args.out, "cn", {"max_n": args.max_n}, header,
                    csvio.column_rows(header, [range(1, len(cs) + 1), cs, w_mins]))
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        raise ValueError(f"--n must be positive, got {n}")
    dj, childs = curves_columns(n)
    header = ["w", "dj_prob", "childs_prob"]
    csvio.write_csv(args.out, "curves", {"n": n}, header, csvio.column_rows(header, [range(n + 1), dj, childs]))
    return 0


def _cmd_sweep_quarter(args: argparse.Namespace) -> int:
    if args.max_n < 4:
        raise ValueError(f"--max-n must be at least 4, got {args.max_n}")
    dj, childs = quarter_columns(args.max_n)
    header = ["n", "dj_prob", "childs_prob"]
    csvio.write_csv(args.out, "sweep-quarter", {"max_n": args.max_n}, header,
                    csvio.column_rows(header, [range(4, args.max_n + 1), dj[4:], childs[4:]]))
    return 0


def _binomial_fits(n: int, k: int) -> bool:
    """Whether C(n, k) converts to a float, at the cost of at most 1024 factors."""
    k = min(k, n - k)
    if k > 1024 or (k > 0 and n.bit_length() > 1024):
        return False  # for 1 <= k <= n/2, C(n, k) >= 2^k and >= n
    try:
        float(comb(n, k))
    except OverflowError:
        return False
    return True


def _check_binomials(args: argparse.Namespace) -> None:
    """Refuse a request whose C(n, k) leaves the float range, before any work.

    The success probability needs C(n, w).  The norm gate of a biased
    state, Grover planning and sampling need the whole binomial row, whose
    largest entry C(n, n//2) is a float only up to n = 1029.
    """
    n = args.n
    row_users = [name for name, used in (("--method biased", args.method == "biased"),
                                         ("--grover", args.grover), ("--trials", args.trials))
                 if used]
    if row_users and not _binomial_fits(n, n // 2):
        raise OverflowError(
            f"C({n}, {n // 2}) exceeds the float range: with {' and '.join(row_users)}, "
            f"every C(n, k) must be a float, which holds only up to n = 1029"
        )
    if not _binomial_fits(n, args.w):
        raise OverflowError(
            f"C({n}, {args.w}) exceeds the float range (about 1.8e308) "
            f"of the success probability C(n, w) a_w^2"
        )


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
    # Generator.multinomial takes the count as an int64
    if args.trials is not None and not 1 <= args.trials <= np.iinfo(np.int64).max:
        raise ValueError(f"--trials must be in [1, 2^63 - 1], got {args.trials}")
    if args.t is not None and not args.grover:
        raise ValueError("--t requires --grover")
    if args.seed is not None and args.trials is None:
        raise ValueError("--seed requires --trials")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    _check_binomials(args)
    state, f = _simulate_state(args)
    # the report is held back, so a failure anywhere leaves stdout empty
    report = [f"method = {args.method}", f"n = {args.n}", f"w = {args.w}"]
    if f is not None:
        report.append(f"f = {f.to_hex()}")
    p = success_probability(state, args.w)
    report.append(f"analytic probability = {csvio.fmt(p)}")
    if args.grover:
        plan = grover.plan_amplification(state, args.w)
        t = args.t if args.t is not None else plan.t
        state = grover.amplify(state, args.w, t)
        p_after = success_probability(state, args.w)
        report += [
            f"theta = {csvio.fmt(plan.theta)}",
            f"t = {t}",
            f"probability before = {csvio.fmt(p)}",
            f"probability after = {csvio.fmt(p_after)}",
            f"expected repetitions before = {csvio.fmt(1.0 / p if p > 0 else float('inf'))}",
            f"expected repetitions after = {csvio.fmt(1.0 / p_after if p_after > 0 else float('inf'))}",
        ]
    text = "".join(f"{line}\n" for line in report)
    if not args.trials:
        sys.stdout.write(text)
        return 0
    # the counts of i.i.d. parity measurements, drawn at once
    counts = np.random.default_rng(args.seed).multinomial(args.trials, state.distribution)
    params = {"n": args.n, "w": args.w, "method": args.method, "trials": args.trials, "seed": args.seed}
    header = ["weight", "count", "frequency", "analytic"]
    rows = csvio.column_rows(header, [range(args.n + 1), counts, counts / args.trials, state.probabilities])
    # on stdout the CSV follows the report; an --out file is written first
    if not args.out:
        sys.stdout.write(text)
    csvio.write_csv(args.out, "simulate", params, header, rows)
    if args.out:
        sys.stdout.write(text)
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
    trailer = [
        f"weight {k} amplitude {csvio.fmt(profile.amplitudes[k])} "
        f"deviation {csvio.fmt(profile.deviations[k])}"
        for k in range(args.n + 1)
    ] + [f"symmetric {profile.symmetric}"]
    # Row x is format(x, f"0{n}b"), wt(x), the amplitude and 0: the amplitudes
    # are real, and the im column stays, all zeros, for the file format.  x is
    # a high half followed by a low half; each low half comes with the comma,
    # the row weight and the next comma already joined, one list per weight of
    # the high half, and each distinct amplitude is formatted once with its
    # ",0" and line end, so a row is three pieces of one join, and the rows of
    # one high half are one slice.
    high = list(map("".join, product("01", repeat=args.n - args.n // 2)))
    low = list(map("".join, product("01", repeat=args.n // 2)))
    low_wt = [[f"{b},{wt + b.count('1')}," for b in low] for wt in range(args.n - args.n // 2 + 1)]
    amps = csvio.fmt_column(state.amps, end=",0\n")

    def slices():
        pieces = [""] * (3 * len(low))
        for start, a in zip(range(0, len(amps), len(low)), high):
            pieces[0::3] = [a] * len(low)
            pieces[1::3] = low_wt[a.count("1")]
            pieces[2::3] = amps[start:start + len(low)]
            yield "".join(pieces)

    csvio.write_csv(args.out, "fullsim", {"n": args.n, "f": f.to_hex(), "r": r},
                    ["x", "weight", "re", "im"], slices(), trailer)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be positive, got {args.n}")
    if args.all_w and args.w is not None:
        raise ValueError("--w and --all-w exclude each other")
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
    csvio.write_csv(args.out, "table1", {"from": args.from_n, "to": args.to_n}, header,
                    csvio.column_rows(header, [[getattr(rec, field) for rec in records] for field in header]))
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
        with _full_integers():
            return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
