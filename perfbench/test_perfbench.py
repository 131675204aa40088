"""Tests of the benchmark itself: every workload and the traced run at a
tiny size, the refusal to run without sources, and the output checks
rejecting deliberately wrong outputs.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from parts import NullTracer, StorePart, Tally  # noqa: E402
from simplexor import codes, metrics, repair, storage  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_corrupted_shard_operations_fail_the_same_share_every_round():
    part = StorePart("tiny", seed=5)
    first, second = Tally(), Tally()
    part.run(NullTracer(), first)
    part.run(NullTracer(), second)
    assert first.problems == [] and second.problems == []
    assert (first.attempted, first.failed) == (second.attempted, second.failed)
    assert first.failed <= 2 * len(part.corrupt)


# ---------------------------------------------------------------------------
# The checks accept right outputs and reject wrong ones.


def test_decoded_payload_with_a_flipped_byte_is_rejected():
    code = codes.parse_code_id("simplex:3")
    payload = bytes(range(200))
    manifest, shards = storage.encode_object(code, payload)
    decoded = storage.decode_object(manifest, shards[2:])
    assert checks.check_decoded("ok", payload, decoded) == []
    flipped = bytearray(decoded)
    flipped[17] ^= 0x40
    assert checks.check_decoded("flip", payload, bytes(flipped))


def test_sweep_counts_off_by_one_are_rejected():
    code = codes.parse_code_id("simplex:3")
    rows, n, k = code.generator.row_bits, code.n, code.k
    report = metrics.verify_easy_repair_property(code, metrics.Exhaustive())
    cols = checks.columns(rows, n)
    own = checks.count_correctable_masks(cols, k, range(1 << n))
    assert own == checks.count_correctable_upto(rows, n, k, n)
    assert checks.check_easy_report(report, 1 << n, own) == []
    for field in ("patterns_examined", "correctable", "repaired"):
        wrong = dataclasses.replace(report, **{field: getattr(report, field) + 1})
        assert checks.check_easy_report(wrong, 1 << n, own), field

    par = metrics.verify_parallel_capacity(code, 2, 2, metrics.Exhaustive())
    assert checks.check_parallel_report(par, 21) == []
    assert checks.check_parallel_report(dataclasses.replace(par, repaired=par.repaired - 1), 21)
    assert checks.check_parallel_report(par, 22)


def test_sampled_masks_match_the_library_sweep():
    code = codes.parse_code_id("um:2:1")
    cols = checks.columns(code.generator.row_bits, code.n)
    report = metrics.verify_easy_repair_property(code, metrics.Sampled(9, 300))
    own = checks.count_correctable_masks(cols, code.k, checks.sampled_masks(9, 300, code.n))
    assert report.correctable == own


def test_repair_step_whose_helpers_do_not_xor_to_the_target_is_rejected():
    code = codes.parse_code_id("simplex:3")
    cols = checks.columns(code.generator.row_bits, code.n)
    payload = bytes(range(100))
    manifest, shards = storage.encode_object(code, payload)
    erased = {0, 3}
    result = storage.repair_shards(manifest, [s for s in shards if s.index not in erased], erased)
    steps = result.plan.steps
    assert checks.check_plan_steps("ok", cols, erased, steps) == []
    frags, frag_len = checks.fragments(payload, code.k)
    assert checks.check_repaired("ok", cols, frags, frag_len, erased, result.shards) == []

    target = steps[0].target
    wrong_helpers = next(h for h in ((1, 2), (1, 4), (2, 4)) if cols[h[0]] ^ cols[h[1]] != cols[target])
    bad = (dataclasses.replace(steps[0], helpers=wrong_helpers),) + steps[1:]
    assert checks.check_plan_steps("bad", cols, erased, bad)
    wrong_shard = storage.Shard(target, bytes(frag_len))
    assert checks.check_repaired("bad", cols, frags, frag_len, erased,
                                 (wrong_shard,) + result.shards[1:])


def test_non_disjoint_packing_witness_is_rejected():
    code = codes.parse_code_id("simplex:3")
    cols = checks.columns(code.generator.row_bits, code.n)
    count, groups = repair.max_disjoint_groups(code, 0, 2)
    witness = [sorted(g.helpers) for g in groups]
    assert checks.check_packing_witness(cols, 0, 2, count, witness) == []
    overlapping = witness[:-1] + [witness[0]]
    assert checks.check_packing_witness(cols, 0, 2, count, overlapping)
    assert checks.check_packing_witness(cols, 0, 2, count + 1, witness)


def test_census_check_rejects_unequal_or_low_counts():
    census = metrics.um_census(2, 3, 1)
    assert checks.check_census(census) == []
    cap, first, second = census.by_cap[0]
    uneven = dataclasses.replace(
        census, by_cap=((cap, (first[0] - 1,) + first[1:], second),) + census.by_cap[1:])
    assert checks.check_census(uneven)
