"""Tests of the benchmark itself: tiny runs of every workload, and fault injection.

Run with ``python -m pytest bench``.
"""

import json
from pathlib import Path

import pytest

import run

run._import_program()
import workloads  # noqa: E402  (needs the sys.path set up by _import_program)

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _tiny(workload, tmp_path, trace):
    return run.run(workload, seed=3, seconds=0, trace=trace, scale="tiny",
                   run_dir=tmp_path / workload, probes=0, min_cycles=2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, tmp_path):
    result = _tiny(workload, tmp_path, trace=False)
    assert result["correct"], result["report"]["failures"]
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # exactly the expect-tagged ops fail on the seed
    tagged = sum(1 for op in workloads.generate_ops(workload, 3, "tiny") if "expect" in op)
    assert result["failed"] == tagged * result["report"]["cycles"]

    traced = _tiny(workload, tmp_path, trace=True)
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == PER_LAYER
    again = _tiny(workload, tmp_path, trace=True)
    counts = [k for k, unit in PER_LAYER.items() if unit in ("count", "B")]
    assert {k: traced["metrics"][k]["value"] for k in counts} == {
        k: again["metrics"][k]["value"] for k in counts}


def test_op_lists_repeat_per_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.generate_ops(workload, 11)
        assert len(a) >= 100  # so that 10 per-op latencies lie beyond p90
        assert a == workloads.generate_ops(workload, 11)
        assert workloads.digest(a) != workloads.digest(workloads.generate_ops(workload, 12))


@pytest.mark.parametrize("workload, kind", [
    ("reproduce", "curves"), ("prepare", "dense"), ("search", "optimize-r"),
])
def test_wrong_output_counts_as_error(workload, kind, tmp_path, monkeypatch):
    real = workloads.execute

    def corrupt(op, ctx):
        result = real(op, ctx)
        if op["kind"] != kind or op["id"] < 0:
            return result
        if kind == "curves":  # the middle row's DJ probability 0.1 % high
            rc, path = result
            lines = path.read_text().splitlines(keepends=True)
            row = 2 + op["n"] // 2  # after the meta line and the header
            w, dj, childs = lines[row].split(",")
            lines[row] = f"{w},{float(dj) * 1.001!r},{childs}"
            path.write_text("".join(lines))
            return rc, path
        if kind == "dense":  # a compact amplitude off by 1e-9
            profile, compact = result
            amps = compact.amps.copy()
            amps[0] += 1e-9
            return profile, type(compact)(n=compact.n, amps=amps)
        r, p = result  # a probability below the DJ floor
        return r, 0.0

    monkeypatch.setattr(workloads, "execute", corrupt)
    result = _tiny(workload, tmp_path, trace=False)
    ops = workloads.generate_ops(workload, 3, "tiny")
    hit = sum(1 for op in ops if op["kind"] == kind and "expect" not in op)
    tagged = sum(1 for op in ops if "expect" in op)
    assert hit >= 1
    assert result["failed"] == (hit + tagged) * result["report"]["cycles"]
    assert not result["correct"]
    assert result["report"]["error_rate"] == result["failed"] / result["attempted"]
