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


def _column_text_bytes(n: int) -> int:
    """A bound on the `krawtchouk --k` text: n + 1 rows "i,K_i(k, n)", with i <= n <= 2^n and |K_i(k, n)| <= 2^n.

    Each number has at most floor(n log10 2) + 1 digits; with a sign, a comma
    and the line end, a row takes at most twice that + 3 bytes.
    """
    return (n + 1) * (2 * (n * 30103 // 100000) + 5)


def _int_bytes(count: int, bits: int) -> int:
    """A bound on count CPython ints below 2^bits: 28 B, 4 B per 30-bit digit past the first, 8 B a list slot."""
    return count * (36 + 4 * (bits // 30))


# curves --n and sweep-quarter --max-n bound on their exact integers, about 52 MiB: those of curves --n 20000
MAX_EXACT_INT_BYTES = _int_bytes(2 * (20000 // 2 + 1), 20001)


def _check_limit(request: str, need: int, limit: int) -> None:
    """Refuse, before any work, a request that needs more than limit bytes."""
    if need > limit:
        raise ResourceLimitError(f"{request}, over the limit {limit} B")


def _check_column_ints(n: int) -> None:
    """Refuse, before any work, a Krawtchouk column at n past MAX_EXACT_INT_BYTES.

    It is held as its half and its full column, each int at most 2^n.
    """
    ints = _int_bytes(n // 2 + 1 + n + 1, n + 1)
    _check_limit(f"--n {n} needs up to {ints} B of exact integers", ints, MAX_EXACT_INT_BYTES)


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
        _check_column_ints(n)
        text = _column_text_bytes(n)
        _check_limit(f"--n {n} --k {args.k} needs up to {text} B of text", text, MAX_KRAWTCHOUK_TEXT_BYTES)
        header = ["i", "value"]
        csvio.write_csv(args.out, "krawtchouk", {"n": n, "k": args.k}, header,
                        csvio.column_rows(header, [range(n + 1), column(args.k, n)]))
    else:
        text = _krawtchouk_text_bytes(n)
        _check_limit(f"--n {n} needs up to {text} B of text", text, MAX_KRAWTCHOUK_TEXT_BYTES)
        header = ["i"] + [f"k{k}" for k in range(n + 1)]
        csvio.write_csv(args.out, "krawtchouk", {"n": n}, header, dump_rows(n))
    return 0


def _cmd_optfn(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ValueError(f"--n must be non-negative, got {args.n}")
    _check_w(args.n, args.w)
    _check_column_ints(args.n)
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
    _check_limit(f"--max-n {args.max_n} needs a {table} B float table", table, MAX_CN_TABLE_BYTES)
    cs, w_mins = zip(*c_minima(args.max_n))
    header = ["n", "c", "w_min"]
    csvio.write_csv(args.out, "cn", {"max_n": args.max_n}, header,
                    csvio.column_rows(header, [range(1, len(cs) + 1), cs, w_mins]))
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        raise ValueError(f"--n must be positive, got {n}")
    # the binomial half row and an exact fallback's half column, each int at most 2^n
    ints = _int_bytes(2 * (n // 2 + 1), n + 1)
    _check_limit(f"--n {n} needs up to {ints} B of exact integers", ints, MAX_EXACT_INT_BYTES)
    dj, childs = curves_columns(n)
    header = ["w", "dj_prob", "childs_prob"]
    csvio.write_csv(args.out, "curves", {"n": n}, header, csvio.column_rows(header, [range(n + 1), dj, childs]))
    return 0


def _cmd_sweep_quarter(args: argparse.Namespace) -> int:
    if args.max_n < 4:
        raise ValueError(f"--max-n must be at least 4, got {args.max_n}")
    # the carried C(n, n//4), then at most the bytes of 2 (max_n + 1) + 2048 more: an anchor's half
    # column, its mirror and the batch's windows, or an exact fallback's half column; each at most 2^max_n
    ints = _int_bytes(3 * (args.max_n + 1) + 2048, args.max_n + 1)
    _check_limit(f"--max-n {args.max_n} needs up to {ints} B of exact integers", ints, MAX_EXACT_INT_BYTES)
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


def _fullsim_rows(n: int, amps: np.ndarray):
    """The `fullsim` CSV rows of the 2^n float64 amplitudes amps, one slice per high half of x.

    Row x is format(x, f"0{n}b"), wt(x), fmt(amps[x]) and 0: the amplitudes
    are real, and the im column stays, all zeros, for the file format.  x
    is a high half of n - n//2 bits followed by a low half of n//2 bits.

    A weight class prints one text for all its members when its least and
    greatest members, taken over one stable gather by weight
    (fullsim._weight_classes), have one sign and print the same.  Rounding
    to 9 significant digits is monotone and the text is a function of the
    rounded value: lo <= a <= hi gives round(lo) <= round(a) <= round(hi),
    so when lo and hi print the same, every member does.  The sign test
    keeps out a class that holds a zero, whose +0.0 and -0.0 compare equal
    but print as 0 and -0, and a class that holds a nan.  In a one-text
    class the row tail "low,weight,text" depends only on the low half and
    on the weight of the high half, so when every row of a high half falls
    in one-text classes, its slice is one join of the tail list of its
    weight, with ",0", the line end and the high half between tails.  The members
    of any other class print their own texts, each distinct amplitude
    formatted once (csvio.fmt_column), and a high half whose weights reach
    such a class joins tail, text and line end per row.
    """
    order, starts, _ = fullsim._weight_classes(n)
    grouped = amps[order]
    lows = np.minimum.reduceat(grouped, starts)
    texts = list(map(csvio.fmt, lows.tolist()))
    # mixed[w]: the members of class w print their own texts
    mixed = [not (lo > 0.0 or hi < 0.0) or text != csvio.fmt(hi)
             for lo, hi, text in zip(lows.tolist(), np.maximum.reduceat(grouped, starts).tolist(), texts)]
    half = n // 2
    high = list(map("".join, product("01", repeat=n - half)))
    low = list(map("".join, product("01", repeat=half)))
    low_wt = [b.count("1") for b in low]
    reach = [any(mixed[h:h + half + 1]) for h in range(n - half + 1)]
    # per weight h of the high half, the row tail of each low half: the low half, the row
    # weight and, unless the high half reaches a mixed class, the class's text
    lead = [f",{w}," for w in range(n + 1)]
    full = [f",{w},{text}" for w, text in enumerate(texts)]
    tails = [[b + (lead if reach[h] else full)[h + k] for b, k in zip(low, low_wt)]
             for h in range(n - half + 1)]
    if any(mixed):
        wt = fullsim.weights(n)
        # a member of a one-text class stands in as its class's low, which prints that text
        cells = csvio.fmt_column(np.where(np.array(mixed)[wt], amps, lows[wt]))

    def slices():
        # a, then per row its tail, its text and ",0\n" + a, but ",0\n" after the last
        pieces = [""] * (3 * len(low) + 1)
        pieces[-1] = ",0\n"
        for start, a in zip(range(0, 1 << n, len(low)), high):
            h, sep = a.count("1"), ",0\n" + a
            if not reach[h]:
                yield a + sep.join(tails[h]) + ",0\n"
                continue
            pieces[0] = a
            pieces[1::3] = tails[h]
            pieces[2::3] = cells[start:start + len(low)]
            pieces[3:-1:3] = [sep] * (len(low) - 1)
            yield "".join(pieces)

    return slices()


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
    # the rows print each weight class's text once where its members allow (_fullsim_rows)
    csvio.write_csv(args.out, "fullsim", {"n": args.n, "f": f.to_hex(), "r": r},
                    ["x", "weight", "re", "im"], _fullsim_rows(args.n, state.amps), trailer)
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
