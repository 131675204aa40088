"""Acceptance gate: one test per release criterion.

Each test prints one `ACCEPTANCE <n> PASS|FAIL` line (run with -s to see
them live) and enforces the criterion's tolerance exactly: exact equality
for constructions, distances and availability, >= for the census claims,
byte equality for storage, and byte-identical output for determinism.
"""

import random
import time
import zlib
from contextlib import contextmanager

from simplexor import metrics
from simplexor.cli import main
from simplexor.codes import c1_code, c2_code, parse_code_id, simplex_code, um_block_code
from simplexor.metrics import Exhaustive, Sampled
from simplexor.repair import ErasurePattern, availability_profile, is_correctable
from simplexor.storage import decode_object, encode_object, repair_shards

SEED = 20260808


@contextmanager
def criterion(num, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} FAIL ({time.perf_counter() - start:.1f}s): {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {num} PASS ({elapsed:.1f}s): {label}")
    assert elapsed < budget_seconds, f"criterion {num} exceeded {budget_seconds}s"


def test_criterion_1_bit_exact_construction(capsys):
    with criterion(1, "gen simplex:3 reproduces G and H bit-exactly", 1.0):
        assert main(["gen", "--code", "simplex:3"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "3 7\n1001101\n0101011\n0010111\n"
            "\n"
            "4 7\n1101000\n1010100\n0110010\n1110001\n"
        )


def test_criterion_2_block_distances():
    with criterion(2, "exact minimum distances of the block families", 10.0):
        for k in range(2, 7):
            assert metrics.min_distance(simplex_code(k)) == 1 << (k - 1)
        for k in range(2, 7):
            assert metrics.min_distance(c1_code(k)) == k
        for k in range(2, 9):
            assert metrics.min_distance(c2_code(k)) == 3
        assert metrics.min_distance(parse_code_id("um2p4")) == 4


def test_criterion_3_column_distances():
    with criterion(3, "column distances and unrolled block distances", 30.0):
        for base_k in (2, 3):
            assert metrics.column_distance(base_k, 0) == 1 << base_k
            for j in (1, 2, 3):
                if base_k * (j + 1) <= 20:
                    assert metrics.column_distance(base_k, j) == 3 << (base_k - 1)
        for s in (1, 2, 3):
            assert metrics.sliding_block_distance(2, s) == 6
        for s in (1, 2):
            assert metrics.sliding_block_distance(3, s) == 12


def test_criterion_4_availability():
    with criterion(4, "exact availability via the disjoint packing oracle", 60.0):
        for k in (2, 3, 4):
            code = simplex_code(k)
            profile = availability_profile(code, 2)
            expected = (code.n - 1) // 2
            assert all(counts[1] == expected for counts in profile.per_node)
            assert profile.code_level[1] == (2, expected)
        for k in (3, 4, 5):
            profile = availability_profile(c1_code(k), 2)
            assert all(counts[1] == k - 1 for counts in profile.per_node)
            assert profile.code_level[1] == (2, k - 1)
        for k in (2, 3, 4, 5):
            assert availability_profile(c2_code(k), 3).code_level[2][1] >= 2


def test_criterion_5_easy_repair_property():
    with criterion(5, "easy repair of every correctable pattern", 600.0):
        for k in (2, 3, 4):
            report = metrics.verify_easy_repair_property(simplex_code(k), Exhaustive())
            assert report.verdict and report.patterns_examined == 1 << simplex_code(k).n
        for k in (2, 3, 4, 5):
            assert metrics.verify_easy_repair_property(c1_code(k), Exhaustive()).verdict
        for k in range(2, 8):
            assert metrics.verify_easy_repair_property(c2_code(k), Exhaustive()).verdict
        um = um_block_code(2, 2)
        report = metrics.verify_easy_repair_property(um, Exhaustive(max_erasures=8))
        assert report.verdict
        assert report.patterns_examined == 1271626
        sampled = metrics.verify_easy_repair_property(um, Sampled(seed=SEED, trials=100_000))
        assert sampled.verdict
        assert sampled.patterns_examined == 100_000


# Families outside EASY_REPAIR_FAMILIES that still easy-repair every
# correctable pattern: (code id, patterns, correctable), every pattern swept.
EASY_BEYOND_THE_FAMILIES = [
    ("um2p4", 512, 328),
    ("c0:6:2", 16384, 8464),
    ("c1:6:2", 4096, 1444),
    ("umx:4:2", 32768, 29808),
    ("c1:8:2", 1048576, 529984),
    ("umx:6:3", 2097152, 1811368),
]


def test_easy_repair_beyond_the_guaranteed_families():
    for code_id, examined, correctable in EASY_BEYOND_THE_FAMILIES:
        report = metrics.verify_easy_repair_property(parse_code_id(code_id), Exhaustive())
        assert (report.verdict, report.patterns_examined, report.correctable, report.repaired) == (
            True, examined, correctable, correctable), code_id


def test_criterion_6_parallel_repair():
    with criterion(6, "parallel repair capacities", 600.0):
        for k in (3, 4):
            code = simplex_code(k)
            for e in range((code.n - 1) // 2 + 1):
                assert metrics.verify_parallel_capacity(code, 2, e, Exhaustive()).verdict
        for k in (3, 4, 5):
            code = c1_code(k)
            for e in range(k):
                assert metrics.verify_parallel_capacity(code, 2, e, Exhaustive()).verdict
        for k in (2, 3, 4, 5):
            code = c2_code(k)
            for e in (0, 1, 2):
                assert metrics.verify_parallel_capacity(code, 3, e, Exhaustive()).verdict
        um2 = um_block_code(2, 3)
        for r, e in ((2, 2), (3, 3), (4, 4), (5, 5)):
            assert metrics.verify_parallel_capacity(um2, r, e, Exhaustive()).verdict
        um3 = um_block_code(3, 3)
        for r, e in ((2, 4), (3, 7), (4, 8), (5, 11)):
            report = metrics.verify_parallel_capacity(
                um3, r, e, Sampled(seed=SEED + r, trials=100_000)
            )
            assert report.verdict and report.patterns_examined == 100_000


def test_criterion_7_repair_group_census():
    with criterion(7, "disjoint repair-group census at every interior block", 300.0):
        for k in (2, 3):
            half, whole = 1 << (k - 1), 1 << k
            for block in (1, 2, 3):
                census = metrics.um_census(k, 4, block)
                assert all(c >= 1 for c in census.time0_cap1)
                assert all(c >= whole - 1 for c in census.time0_cap2)
                by_cap = {cap: (first, second) for cap, first, second in census.by_cap}
                assert all(c >= half for c in by_cap[2][0])
                assert all(c >= half + 1 for c in by_cap[2][1])
                assert all(c >= whole - 1 for c in by_cap[3][0])
                assert all(c >= whole for c in by_cap[3][1])
                assert all(c >= whole for c in by_cap[4][0])
                assert all(c >= whole + half - 1 for c in by_cap[4][1])
                assert all(c >= whole + half - 1 for c in by_cap[5][0])


TABLES = {
    4: [(15, 8), (15, 6), (10, 4), (9, 4), (9, 3), (6, 2)],
    6: [(63, 32), (35, 12), (21, 6), (21, 6), (14, 4), (13, 3), (12, 3), (9, 2)],
    8: [(255, 128), (75, 24), (36, 8), (30, 8), (27, 6), (20, 4), (17, 3), (12, 2)],
}


def test_criterion_8_comparison_tables(capsys):
    with criterion(8, "comparison tables for k = 4, 6, 8", 30.0):
        for k, expected in TABLES.items():
            rows = metrics.comparison_table(k)
            assert [(r.n, r.d) for r in rows] == expected
            assert main(["table", "--k", str(k)]) == 0
            out = capsys.readouterr().out.splitlines()
            pairs = [(int(l.split("\t")[1]), int(l.split("\t")[2])) for l in out[1:]]
            assert pairs == expected
        assert ("um2p4", 9, 4) in [
            (r.code_id, r.n, r.d) for r in metrics.comparison_table(4)
        ]


STORAGE_CODES = [
    "simplex:2", "simplex:4", "c1:2", "c1:5", "c2:2", "c2:7",
    "um:2:1", "um:2:3", "um2p4", "c0:6:2", "c1:6:2", "umx:6:3",
]


def _random_correctable_live_set(code, rng):
    while True:
        live = [j for j in range(code.n) if rng.random() < 0.7]
        pattern = ErasurePattern(code.n, frozenset(set(range(code.n)) - set(live)))
        if is_correctable(code, pattern):
            return live


def test_criterion_9_storage_round_trip():
    with criterion(9, "byte-exact storage round trips and repair equivalence", 120.0):
        for code_id in STORAGE_CODES:
            code = parse_code_id(code_id)
            lengths = [1, max(code.k - 1, 1), code.k, 1000, 65536]
            rng = random.Random(metrics.trial_seed(SEED, zlib.crc32(code_id.encode())))
            for trial in range(1000):
                length = lengths[trial % 5]
                payload = rng.randbytes(length)
                manifest, shards = encode_object(code, payload)
                live = _random_correctable_live_set(code, rng)
                available = [shards[j] for j in live]
                assert decode_object(manifest, available) == payload
                if trial % 100 == 0:
                    missing = set(range(code.n)) - set(live)
                    result = repair_shards(manifest, available, missing)
                    _, fresh = encode_object(code, decode_object(manifest, available))
                    for shard in result.shards:
                        assert shard.data == shards[shard.index].data
                        assert shard.data == fresh[shard.index].data


def test_criterion_10_determinism(capsys):
    with criterion(10, "seeded runs repeat byte-for-byte across worker counts", 120.0):
        sim_args = ["simulate", "--code", "um:2:1", "--trials", "2000",
                    "--seed", str(SEED), "--max-erasures", "4", "--r", "3"]
        outputs = []
        for extra in ([], [], ["--workers", "4"]):
            assert main(sim_args + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

        verify_args = ["verify", "--code", "um:2:2", "--seed", str(SEED),
                       "--trials", "20000"]
        assert main(verify_args + ["--workers", "1"]) == 0
        solo = capsys.readouterr().out
        assert main(verify_args + ["--workers", "4"]) == 0
        multi = capsys.readouterr().out
        assert solo == multi
