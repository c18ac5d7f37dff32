"""Seeded op lists, op execution and per-op output checks for the benchmark.

Each workload is a list of op *classes*: an op kind, a fixed count per cycle
and a parameter range.  The seed picks the parameters inside each class by
stratified sampling (one draw near the centre of each equal slice of the
range), pairs sizes with weights in a fixed order and shuffles the op order,
so two seeds do nearly the same work in each op slot and the metrics compare
across seeds.  Classes that cross a documented defect edge carry an
``expect`` tag naming the entry in EXPECTED_FAILURES.md; those ops are
attempted and counted, and their failure is the seed's known behaviour.

The program is called only through module attributes (``symstate.dj_state``,
never a name imported into this file), so the tracer's rebinding of those
attributes sees every call.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import math
from dataclasses import dataclass
from math import comb
from pathlib import Path

import numpy as np

from dickeprep import cli, fullsim, grover, search, symfunc, symstate

krawtchouk = importlib.import_module("dickeprep.krawtchouk")  # the package re-exports a function of that name

WORKLOADS = ("reproduce", "prepare", "search")
# Op time of one full-scale cycle of the current program at the nominal speed
# (run.REF_NOMINAL_S), measured with Python 3.11 and numpy 2.4 on x86-64.  A run of
# --seconds S makes round(S / this) cycles; see run.cycle_count.
NOMINAL_CYCLE_S = {"reproduce": 4.5, "prepare": 3.3, "search": 4.3}

# Tolerances, stated once.  CSV probabilities carry 9 significant digits, so a
# value read back from a file is within 5e-9 relative of the computed one.
CSV_REL_TOL = 1e-8
NORM_TOL = 1e-8  # |sum_k C(n,k) a_k^2 - 1|; equals the program's own parity gate
GROVER_TOL = 1e-10  # |p_after - sin^2((2t+1) theta)|
DENSE_TOL = 1e-10  # dense 2^n oracle vs compact amplitudes, and search re-evaluation
# |count_k - T p_k| <= 6 sigma_k + 5 counts at every weight k; the 5 counts keep
# rare weights (T p_k << 1) from failing on a stray pair of hits
PARITY_SIGMAS = 6.0
PARITY_SLACK = 5.0
PARITY_TRIALS = 20_000
TABLE_TOL = 1e-4  # frozen Table-1 probabilities, n <= 9
# optimize_r and the exhaustive scan may fall below p_dj by the 512-point grid
# artifact at w = n/2 (about 2e-8, see EXPECTED_FAILURES.md); this absorbs it.
SEARCH_TOL = 1e-7
JITTER = 0.1  # share of its stratum within which a seeded size or weight fraction falls
C_999 = (1.24793, 1e-4)
C_1000 = (0.797685, 1e-5)

# Frozen best-biased probabilities of the paper's table, n = 4..9 (the values
# the acceptance suite freezes), used for the search cells at n <= 9.
TABLE_BIASED = {
    (4, 1): 0.833609, (4, 2): 0.981763, (4, 3): 0.833609,
    (5, 1): 0.748304, (5, 2): 0.92852, (5, 3): 0.92852, (5, 4): 0.748304,
    (6, 1): 0.730278, (6, 2): 0.823495, (6, 3): 0.954987, (6, 4): 0.823495, (6, 5): 0.730278,
    (7, 1): 0.704306, (7, 2): 0.754753, (7, 3): 0.907588, (7, 4): 0.907588, (7, 5): 0.754753,
    (7, 6): 0.704306,
    (8, 1): 0.698181, (8, 2): 0.710643, (8, 3): 0.813922, (8, 4): 0.92625, (8, 5): 0.813922,
    (8, 6): 0.710643, (8, 7): 0.698181,
    (9, 1): 0.684842, (9, 2): 0.651002, (9, 3): 0.76886, (9, 4): 0.884277, (9, 5): 0.884277,
    (9, 6): 0.76886, (9, 7): 0.651002, (9, 8): 0.684842,
}

# n -> the weights w at which optimize_r on the sign-rule function returns p
# below p_dj by more than SEARCH_TOL, found by scanning every (n, w) with
# 16 <= n <= 64 on the seed (EXPECTED_FAILURES.md, "optimize-r").
OPTIMIZE_R_DEFECTS = {
    29: (11, 18), 39: (16, 17, 22, 23), 48: (12, 14, 34, 36), 49: (15, 19, 30, 34), 51: (22, 29),
    52: (18, 20, 26, 32, 34), 53: (17, 36), 54: (22, 32),
    55: (17, 20, 22, 23, 24, 31, 32, 33, 35, 38), 56: (18, 28, 38), 57: (21, 36),
    58: (20, 22, 36, 38), 59: (18, 20, 23, 25, 26, 33, 34, 36, 39, 41), 60: (20, 30, 40),
    61: (17, 27, 34, 44), 62: (18, 20, 24, 38, 42, 44),
    63: (13, 19, 23, 26, 27, 28, 31, 32, 35, 36, 37, 40, 44, 50),
    64: (12, 16, 22, 24, 26, 32, 38, 40, 42, 48, 52),
}


# ---------------------------------------------------------------------------
# op lists

@dataclass(frozen=True)
class OpClass:
    kind: str
    count: int
    lo: float
    hi: float
    log: bool = False
    expect: str | None = None


def _classes(workload: str, scale: str) -> list[OpClass]:
    tiny = scale == "tiny"
    if workload == "reproduce":
        if tiny:
            return [
                OpClass("cn", 1, 20, 30),
                OpClass("curves", 1, 20, 40),
                OpClass("sweep-quarter", 1, 20, 40),
                OpClass("krawtchouk", 1, 6, 12),
                OpClass("fullsim", 1, 10, 10),
            ]
        return [
            # below p50
            OpClass("krawtchouk", 30, 4, 50, log=True),
            OpClass("curves", 8, 20, 80, log=True),
            OpClass("sweep-quarter", 4, 50, 100, log=True),
            # around p50: a block of like-sized matrices, so p50 sits inside it
            OpClass("krawtchouk", 40, 55, 65),
            # between p50 and p90
            OpClass("fullsim", 25, 10, 14),
            OpClass("curves", 4, 100, 300, log=True),
            OpClass("sweep-quarter", 3, 150, 500, log=True),
            OpClass("krawtchouk", 6, 80, 160, log=True),
            # around p90: a block of like-sized curves, so p90 sits inside it
            OpClass("curves", 16, 340, 360),
            # above p90
            OpClass("cn", 3, 100, 250),
            OpClass("curves-landmark", 1, 999, 1000),
            OpClass("curves", 1, 450, 600),
            OpClass("sweep-quarter", 1, 600, 800),
        ]
    if workload == "prepare":
        if tiny:
            return [
                OpClass("dj", 1, 4, 40),
                OpClass("childs", 1, 4, 40),
                OpClass("childs", 1, 1030, 1040, expect="overflow-n1030"),
                OpClass("biased", 1, 8, 16),
                OpClass("biased", 1, 84, 86, expect="biased-norm-gate"),
                OpClass("dense", 1, 10, 10),
            ]
        return [
            # below p50 and up to p90: small requests of every method
            OpClass("dj", 24, 4, 200, log=True),
            OpClass("childs", 28, 4, 400, log=True),
            OpClass("childs", 1, 1030, 1060, expect="overflow-n1030"),
            OpClass("biased", 20, 8, 24),
            OpClass("dense", 10, 10, 14),
            # around p50: a block of like-sized dense cross-checks, so p50 sits inside it
            OpClass("dense", 16, 11, 11),
            # around p90: a block of like-sized requests, so p90 sits inside it
            OpClass("dj", 10, 280, 320),
            # above p90: the large requests and the failing biased ones
            OpClass("dj", 2, 600, 1029),
            OpClass("dj", 1, 1030, 1060, expect="overflow-n1030"),
            OpClass("childs", 2, 600, 1029),
            OpClass("biased", 2, 82, 96, expect="biased-norm-gate"),
        ]
    if workload == "search":
        if tiny:
            return [
                OpClass("cell", 1, 6, 7),
                OpClass("optimize-r", 1, 16, 20),
                OpClass("optimize-r", 1, 29, 29, expect="optimize-r"),
            ]
        return [
            # below p50
            OpClass("cell", 28, 6, 8),
            OpClass("optimize-r", 14, 16, 26),
            # around p50: a block of like-sized cells, so p50 sits inside it
            OpClass("cell", 16, 9, 9),
            # between p50 and p90
            OpClass("optimize-r", 21, 27, 44),
            OpClass("optimize-r", 3, 29, 48, expect="optimize-r"),
            # around p90: a block of like-sized cells, so p90 sits inside it
            OpClass("cell", 14, 10, 10),
            # above p90
            OpClass("optimize-r", 2, 56, 62),
            OpClass("cell", 2, 11, 11),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _stratified(rng: np.random.Generator, lo: float, hi: float, count: int, log: bool = False) -> list[float]:
    """One value per equal slice of [lo, hi] (log-spaced slices when asked), drawn
    from the central JITTER of its slice, so the cost of every op slot barely
    moves with the seed: a few large ops carry most of a cycle's time, and a
    wider draw moved ops_per_s by 25 % between seeds."""
    a, b = (math.log(lo), math.log(hi)) if log else (float(lo), float(hi))
    xs = [a + (b - a) * (j + 0.5 + JITTER * (rng.random() - 0.5)) / count for j in range(count)]
    return [math.exp(x) if log else x for x in xs]


def _spread_order(count: int) -> list[int]:
    """A fixed scrambled order of range(count) (golden-ratio sequence), used to
    pair the j-th size of a class with a weight fraction the same way for every seed."""
    return sorted(range(count), key=lambda j: (j * 0.6180339887498949) % 1.0)


def _sizes(rng: np.random.Generator, cls: "OpClass") -> list[int]:
    """The n of each op in a class; a class with more ops than sizes gets every
    size equally often (within one), so no seed shifts ops between sizes."""
    span = int(cls.hi) - int(cls.lo) + 1
    if cls.count >= span and not cls.log:
        return [int(cls.lo) + j * span // cls.count for j in range(cls.count)]
    return [int(round(x)) for x in _stratified(rng, cls.lo, cls.hi, cls.count, cls.log)]


def _weight(rng: np.random.Generator, n: int, u: float, mirror: bool = True) -> int:
    """Weight at fraction u <= 1/2 of n, mirrored to n - w half the time when
    `mirror`.  Only dj and childs requests are mirrored: their cost is the
    same at w and n - w, and that of biased requests, cells and optimize_r
    is not."""
    w = min(max(1, round(u * n)), n - 1)
    return n - w if mirror and rng.random() < 0.5 else w


def generate_ops(workload: str, seed: int, scale: str = "full") -> list[dict]:
    """The seeded op list of one cycle; the same (workload, seed, scale) gives the same list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops: list[dict] = []
    for cls in _classes(workload, scale):
        if cls.kind == "optimize-r" and cls.expect:
            # sizes evenly spaced over the defect sizes in range; the seed picks the weight
            sizes = sorted({n for n in OPTIMIZE_R_DEFECTS if cls.lo <= n <= cls.hi})
            for j in range(cls.count):
                n = sizes[j * len(sizes) // cls.count]
                w = int(rng.choice(OPTIMIZE_R_DEFECTS[n]))
                ops.append({"kind": cls.kind, "n": n, "w": w, "expect": cls.expect})
            continue
        us = _stratified(rng, 0.02, 0.5, cls.count)
        for n, j in zip(_sizes(rng, cls), _spread_order(cls.count)):
            ops.append(_make_op(workload, cls, n, us[j], rng))
    if workload == "reproduce":
        # exact repeats of some command lines, so the byte-identity contract is
        # checked inside every cycle (the next cycle repeats all of them again);
        # evenly spaced by size, so the repeated work is the same for every seed
        repeatable = sorted((op for op in ops if op["kind"] != "cn" and op["n"] < 999),
                            key=lambda op: (op["n"], op["kind"]))
        ops += [dict(repeatable[(2 * j + 1) * len(repeatable) // 10]) for j in range(5)]
    order = rng.permutation(len(ops))
    return [dict(ops[int(i)], id=j) for j, i in enumerate(order)]


def _make_op(workload: str, cls: OpClass, n: int, u: float, rng: np.random.Generator) -> dict:
    op: dict = {"kind": cls.kind, "n": n}
    if cls.expect:
        op["expect"] = cls.expect
    if workload == "reproduce":
        if cls.kind == "curves-landmark":
            op = {"kind": "curves", "n": 999 + int(rng.integers(0, 2))}
        elif cls.kind == "fullsim":
            op["f"] = format(int(rng.integers(0, 1 << (n + 1))), "X")
            op["r"] = round(float(rng.uniform(0.0, n)), 4)
        op["argv"] = _argv(op)
        return op
    if cls.kind in ("dj", "childs", "biased"):
        op["w"] = _weight(rng, n, u, mirror=cls.kind != "biased")
        if cls.kind == "biased":
            # within a quarter of n/2 the sign-rule f keeps p near the DJ value,
            # so Grover needs a few steps, as with a bias taken from the search
            op["r"] = round(n / 2 + float(rng.uniform(-0.25, 0.25)), 6)
        op["rng"] = int(rng.integers(0, 2**31))
    elif cls.kind == "dense":
        op["f"] = int(rng.integers(0, 1 << (n + 1)))
        op["r"] = round(float(rng.uniform(0.0, n)), 6)
    elif cls.kind == "cell":
        op["w"] = _weight(rng, n, u, mirror=False)
    elif cls.kind == "optimize-r":
        # known-defect weights belong to the expect-tagged class only; the
        # next weight up has about the same cost
        op["w"] = _weight(rng, n, u, mirror=False)
        while op["w"] in OPTIMIZE_R_DEFECTS.get(n, ()):
            op["w"] += 1
    return op


def _argv(op: dict) -> list[str]:
    kind, n = op["kind"], op["n"]
    if kind == "cn":
        return ["cn", "--max-n", str(n)]
    if kind == "curves":
        return ["curves", "--n", str(n)]
    if kind == "sweep-quarter":
        return ["sweep-quarter", "--max-n", str(n)]
    if kind == "krawtchouk":
        return ["krawtchouk", "--n", str(n)]
    if kind == "fullsim":
        return ["fullsim", "--n", str(n), "--f", op["f"], "--r", repr(op["r"])]
    raise ValueError(f"no command line for {kind!r}")


def warmup_ops(workload: str) -> list[dict]:
    """One small op of every kind, run before timing so lazy set-up is paid."""
    if workload == "reproduce":
        ops = [
            {"kind": "cn", "n": 12}, {"kind": "curves", "n": 12},
            {"kind": "sweep-quarter", "n": 12}, {"kind": "krawtchouk", "n": 6},
            {"kind": "fullsim", "n": 10, "f": "2A5", "r": 3.25},
        ]
        for op in ops:
            op["argv"] = _argv(op)
    elif workload == "prepare":
        ops = [
            {"kind": "dj", "n": 12, "w": 4, "rng": 1},
            {"kind": "childs", "n": 12, "w": 4, "rng": 2},
            {"kind": "biased", "n": 12, "w": 4, "r": 6.1, "rng": 3},
            {"kind": "dense", "n": 10, "f": 677, "r": 3.25},
        ]
    else:
        ops = [{"kind": "cell", "n": 6, "w": 2}, {"kind": "optimize-r", "n": 16, "w": 5}]
    return [dict(op, id=-1 - i) for i, op in enumerate(ops)]


def digest(ops: list[dict]) -> str:
    """sha256 of the canonical JSON of an op list."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# execution: everything between the two clock reads

class Context:
    """Per-run state the ops need: the run directory, the record store, and
    for each command line already run its output digest and check result."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.store = search.RecordStore(self.run_dir / "records.jsonl")
        self.seen: dict[tuple[str, ...], tuple[str, list[str]]] = {}


def execute(op: dict, ctx: Context):
    kind = op["kind"]
    if "argv" in op:
        out = ctx.run_dir / f"op{op['id']}.csv"
        rc = cli.main(op["argv"] + ["--out", str(out)])
        return rc, out
    n = op["n"]
    if kind in ("dj", "childs", "biased"):
        w = op["w"]
        if kind == "childs":
            state = symstate.childs_state(n, w)
        else:
            f = symfunc.optimal_function(n, w)
            state = symstate.dj_state(f) if kind == "dj" else symstate.biased_dj_state(f, op["r"])
        plan = grover.plan_amplification(state, w)
        amplified = grover.amplify(state, w, plan.t)
        outcomes = symstate.parity_sample(amplified, PARITY_TRIALS, np.random.default_rng(op["rng"]))
        return state, plan, amplified, outcomes
    if kind == "dense":
        f = symfunc.SymmetricBooleanFunction.from_value(n, op["f"])
        profile = fullsim.weight_profile(fullsim.biased_dj_output(f, op["r"]))
        return profile, symstate.biased_dj_state(f, op["r"])
    if kind == "cell":
        w = op["w"]
        records = (search.exhaustive_search(n, w), search.dj_record(n, w), search.childs_record(n, w))
        for rec in records:
            ctx.store.append(rec)
        return records
    if kind == "optimize-r":
        return search.optimize_r(symfunc.optimal_function(n, op["w"]), op["w"])
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# checks: run outside the timed region; each returns a list of problems

def check(op: dict, result, ctx: Context) -> list[str]:
    kind = op["kind"]
    if "argv" in op:
        return _check_csv(op, result, ctx)
    if kind in ("dj", "childs", "biased"):
        return _check_prepared(op, *result)
    if kind == "dense":
        return _check_dense(*result)
    if kind == "cell":
        return _check_cell(op, result, ctx)
    if kind == "optimize-r":
        return _check_optimize_r(op, *result)
    raise ValueError(f"unknown op kind {kind!r}")


def _weight_probs(amps: np.ndarray) -> list[float]:
    """C(n,k) a_k^2 in log space, so it stays finite where comb(n, k) is not a float."""
    n = len(amps) - 1
    out = []
    for k, a in enumerate(amps):
        a = abs(float(a))
        if a == 0.0:
            out.append(0.0)
            continue
        log_c = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        out.append(math.exp(log_c + 2.0 * math.log(a)))
    return out


def norm_residual(amps: np.ndarray) -> float:
    return abs(math.fsum(_weight_probs(amps)) - 1.0)


def _check_prepared(op, state, plan, amplified, outcomes) -> list[str]:
    problems = []
    res = norm_residual(state.amps)
    if not res <= NORM_TOL:
        problems.append(f"norm residual {res:.3g} > {NORM_TOL:g}")
    probs = _weight_probs(amplified.amps)
    closed = math.sin((2 * plan.t + 1) * plan.theta) ** 2
    if not abs(probs[op["w"]] - closed) <= GROVER_TOL:
        problems.append(f"Grover p {probs[op['w']]!r} vs sin^2((2t+1)theta) {closed!r}")
    counts = np.bincount(outcomes, minlength=op["n"] + 1)
    total = math.fsum(probs)
    for k, c in enumerate(counts):
        p = probs[k] / total
        sigma = math.sqrt(PARITY_TRIALS * p * (1.0 - p))
        if abs(c - PARITY_TRIALS * p) > PARITY_SIGMAS * sigma + PARITY_SLACK:
            problems.append(f"parity count {c} at weight {k}, expected {PARITY_TRIALS * p:.1f}")
            break
    return problems


def _check_dense(profile, compact) -> list[str]:
    problems = []
    if not profile.symmetric:
        problems.append(f"dense state not symmetric ({profile.max_deviation:.3g})")
    dev = max(abs(profile.amplitudes[k] - compact.amps[k]) for k in range(compact.n + 1))
    if not dev <= DENSE_TOL:
        problems.append(f"dense vs compact deviation {dev:.3g} > {DENSE_TOL:g}")
    return problems


def _check_cell(op, records, ctx: Context) -> list[str]:
    n, w = op["n"], op["w"]
    biased, dj, childs = records
    problems = []
    p_dj = symstate.dj_optimal_success_exact(n, w)
    if (n, w) in TABLE_BIASED:
        if not abs(biased.probability - TABLE_BIASED[(n, w)]) <= TABLE_TOL:
            problems.append(f"biased p {biased.probability!r} vs table {TABLE_BIASED[(n, w)]}")
    elif not float(p_dj) - SEARCH_TOL <= biased.probability <= 1.0 + SEARCH_TOL:
        problems.append(f"biased p {biased.probability!r} outside [p_dj, 1], p_dj {float(p_dj)!r}")
    if dj.probability != float(p_dj):
        problems.append(f"dj record {dj.probability!r} vs exact {float(p_dj)!r}")
    p_ch = symstate.childs_probability_exact(n, w)
    if childs.probability != float(p_ch):
        problems.append(f"childs record {childs.probability!r} vs exact {float(p_ch)!r}")
    # re-evaluate the winner on the dense 2^n oracle
    f = symfunc.SymmetricBooleanFunction.from_hex(n, biased.f_hex)
    amp = fullsim.weight_profile(fullsim.biased_dj_output(f, biased.r)).amplitudes[w]
    p_dense = comb(n, w) * abs(amp) ** 2
    if not abs(p_dense - biased.probability) <= DENSE_TOL:
        problems.append(f"dense re-evaluation {p_dense!r} vs record {biased.probability!r}")
    stored = ctx.store.path.read_text(encoding="utf-8").splitlines()[-3:]
    if stored != [rec.to_json() for rec in records]:
        problems.append("record store tail does not hold the three records")
    return problems


def _check_optimize_r(op, r, p) -> list[str]:
    n, w = op["n"], op["w"]
    p_dj = float(symstate.dj_optimal_success_exact(n, w))
    problems = []
    if not 0.0 <= r <= n:
        problems.append(f"r={r!r} outside [0, {n}]")
    if not p_dj - SEARCH_TOL <= p <= 1.0 + SEARCH_TOL:
        problems.append(f"p {p!r} outside [p_dj, 1], p_dj {p_dj!r}")
    return problems


# --- reproduce ------------------------------------------------------------

def _close(printed: str, exact: float) -> bool:
    return abs(float(printed) - exact) <= CSV_REL_TOL * abs(exact)


def _dj_ge_baseline(n: int, w: int, s: int) -> bool:
    """DJ >= baseline with C(n,w) cancelled: S^2 n^n >= 4^n w^w (n-w)^(n-w)."""
    return s * s * n**n >= 4**n * w**w * (n - w) ** (n - w)


def _middle_sum(n: int) -> int:
    """The middle-column law: sum_i |K_i(floor(n/2), n)| = 2^ceil(n/2)."""
    return 1 << ((n + 1) // 2)


def _check_csv(op, result, ctx: Context) -> list[str]:
    rc, path = result
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        text = path.read_text(encoding="utf-8")
    finally:
        path.unlink(missing_ok=True)
    key = tuple(op["argv"])
    sha = hashlib.sha256(text.encode()).hexdigest()
    if key in ctx.seen:
        # a repeated command line must give the same bytes, which were checked before
        first, problems = ctx.seen[key]
        if sha == first:
            return problems
        return ["output differs from an earlier run of the same command line"] + _check_text(op, text)
    problems = _check_text(op, text)
    ctx.seen[key] = (sha, problems)
    return problems


def _check_text(op, text: str) -> list[str]:
    lines = text.splitlines()
    comments = [ln[2:] for ln in lines if ln.startswith("#")]
    header, *rows = csv.reader(ln for ln in lines if not ln.startswith("#"))
    problems = []
    if not comments or f"command={op['argv'][0]} " not in comments[0] + " ":
        problems.append(f"meta line {comments[:1]} does not name the command")
    checker = {
        "cn": _check_cn, "curves": _check_curves, "sweep-quarter": _check_sweep,
        "krawtchouk": _check_matrix, "fullsim": _check_fullsim,
    }[op["kind"]]
    return problems + checker(op, header, rows, comments)


def _sample_rows(op: dict, count: int, lo: int, hi: int) -> list[int]:
    rng = np.random.default_rng([op["n"], count, lo, hi])
    return sorted({int(x) for x in rng.integers(lo, hi + 1, size=count)})


def _check_cn(op, header, rows, comments) -> list[str]:
    max_n = op["n"]
    if header != ["n", "c", "w_min"] or [int(r[0]) for r in rows] != list(range(1, max_n + 1)):
        return ["cn rows are not n = 1..max_n"]
    problems = []
    for n_s, c_s, w_s in rows:
        n, c, w = int(n_s), float(c_s), int(w_s)
        mid = n // 2
        c_mid = comb(n, mid) * _middle_sum(n) ** 2 / (1 << (2 * n)) * math.sqrt(n)
        if not (0 <= w <= mid and 0.0 < c <= c_mid * (1.0 + CSV_REL_TOL)):
            problems.append(f"cn row n={n}: c={c_s} w_min={w_s} (middle value {c_mid!r})")
            break
    for n in _sample_rows(op, 3, 1, max_n):
        _, c_s, w_s = rows[n - 1]
        w = int(w_s)
        s = krawtchouk.abs_column_sum(w, n)
        exact = comb(n, w) * s * s / (1 << (2 * n)) * math.sqrt(n)
        if not _close(c_s, exact):
            problems.append(f"cn row n={n}: c={c_s} but C(n,w) S^2 sqrt(n)/4^n = {exact!r}")
    return problems


def _check_printed_dominance(rows) -> list[str]:
    """DJ >= baseline on every printed (dj_prob, childs_prob) row, to print precision."""
    for row in rows:
        if float(row[1]) < float(row[2]) * (1.0 - 2 * CSV_REL_TOL):
            return [f"dj {row[1]} < baseline {row[2]} in row {row[0]}"]
    return []


def _check_curves(op, header, rows, comments) -> list[str]:
    n = op["n"]
    if header != ["w", "dj_prob", "childs_prob"] or len(rows) != n + 1:
        return ["curves rows are not w = 0..n"]
    problems = _check_printed_dominance(rows)
    for w in sorted({n // 2, n - n // 2}):
        s = _middle_sum(n)
        exact = comb(n, w) * s * s / (1 << (2 * n))
        if not _close(rows[w][1], exact):
            problems.append(f"middle dj_prob {rows[w][1]} vs law {exact!r}")
        if not _dj_ge_baseline(n, w, s):
            problems.append(f"exact DJ < baseline at middle w={w}")
    for w in _sample_rows(op, 4, 1, n - 1):
        if not _dj_ge_baseline(n, w, krawtchouk.abs_column_sum(min(w, n - w), n)):
            problems.append(f"exact DJ < baseline at w={w}")
    landmark = {999: C_999, 1000: C_1000}.get(n)
    if landmark is not None:
        c = min(float(r[1]) for r in rows) * math.sqrt(n)
        if not abs(c - landmark[0]) <= landmark[1]:
            problems.append(f"c({n}) = {c!r}, landmark {landmark[0]}")
    return problems


def _check_sweep(op, header, rows, comments) -> list[str]:
    max_n = op["n"]
    if header != ["n", "dj_prob", "childs_prob"] or [int(r[0]) for r in rows] != list(range(4, max_n + 1)):
        return ["sweep-quarter rows are not n = 4..max_n"]
    problems = _check_printed_dominance(rows)
    for n in _sample_rows(op, 4, 4, max_n):
        w = n // 4
        s = krawtchouk.abs_column_sum(w, n)
        if not _dj_ge_baseline(n, w, s):
            problems.append(f"exact DJ < baseline at n={n}, w={w}")
        if not _close(rows[n - 4][1], comb(n, w) * s * s / (1 << (2 * n))):
            problems.append(f"dj_prob {rows[n - 4][1]} at n={n} vs exact")
    return problems


def _check_matrix(op, header, rows, comments) -> list[str]:
    n = op["n"]
    if len(header) != n + 2 or len(rows) != n + 1:
        return [f"matrix shape is not {n + 1} x {n + 1}"]
    m = [[int(v) for v in row[1:]] for row in rows]
    problems = []
    if m[0] != [1] * (n + 1):
        problems.append("row 0 is not all ones")
    if [m[i][0] for i in range(n + 1)] != [comb(n, i) for i in range(n + 1)]:
        problems.append("column 0 is not the binomial row")
    for k in sorted({n // 2, n - n // 2}):
        total = sum(abs(m[i][k]) for i in range(n + 1))
        if total != _middle_sum(n):
            problems.append(f"middle column {k} sums to {total}, law says {_middle_sum(n)}")
    return problems


def _check_fullsim(op, header, rows, comments) -> list[str]:
    n = op["n"]
    if header != ["x", "weight", "re", "im"] or len(rows) != 1 << n:
        return ["fullsim rows are not the 2^n basis states"]
    problems = []
    if any(int(r[1]) != r[0].count("1") for r in rows):
        problems.append("weight column is not the popcount of x")
    norm = math.fsum(float(r[2]) ** 2 + float(r[3]) ** 2 for r in rows)
    if not abs(norm - 1.0) <= NORM_TOL:
        problems.append(f"dense norm {norm!r}")
    if "symmetric True" not in comments:
        problems.append("dense state reported as not symmetric")
    f = symfunc.SymmetricBooleanFunction.from_hex(n, op["f"])
    compact = symstate.biased_dj_state(f, op["r"]).amps
    for line in comments:
        if line.startswith("weight "):
            parts = line.split()
            k, amp = int(parts[1]), float(parts[3])
            if not abs(amp - compact[k]) <= DENSE_TOL + CSV_REL_TOL * abs(compact[k]):
                problems.append(f"class amplitude {parts[3]} at weight {k} vs compact {compact[k]!r}")
                break
    return problems
