import concurrent.futures
import hashlib
import os
import random
import subprocess
import sys
from concurrent.futures import Future
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st
from oracles import (
    easy_closure_scalar,
    parallel_tally,
    parallel_tally_by_pattern,
    sampled_coin_masks,
    sampled_subsets,
)

from simplexor import metrics, repair
from simplexor.codes import (
    LinearCode,
    c0_repeat_code,
    c1_code,
    c1_repeat_code,
    c2_code,
    simplex_code,
    um2prime_code,
    um_block_code,
)
from simplexor.gf2 import BitMatrix, TooLarge
from simplexor.metrics import (
    Exhaustive,
    Sampled,
    column_distance,
    comparison_table,
    min_distance,
    monte_carlo_repair,
    sliding_block_distance,
    trial_seed,
    um_census,
    um_node_index,
    verify_easy_repair_property,
    verify_parallel_capacity,
)
from simplexor.repair import (
    InvalidBound,
    easy_table,
    full_rank_on_live,
    locality,
    max_disjoint_groups,
)


@pytest.mark.parametrize("k", range(2, 7))
def test_simplex_distance(k):
    assert min_distance(simplex_code(k)) == 1 << (k - 1)


@pytest.mark.parametrize("k", range(2, 7))
def test_weight2_code_distance(k):
    assert min_distance(c1_code(k)) == k


@pytest.mark.parametrize("k", range(2, 9))
def test_chain_code_distance(k):
    assert min_distance(c2_code(k)) == 3


@pytest.mark.parametrize("k", range(2, 11))
def test_weight2_rowspan_minimum_weight(k):
    from oracles import weight2_matrix
    from simplexor.gf2 import min_weight_nonzero_rowspan

    assert min_weight_nonzero_rowspan(weight2_matrix(k)) == k - 1


def test_um2prime_distance():
    assert min_distance(um2prime_code()) == 4


def test_distance_guard():
    big = LinearCode("wide", "custom", 25, 25, BitMatrix.identity(25))
    with pytest.raises(TooLarge):
        min_distance(big)


@pytest.mark.parametrize(
    "code",
    [simplex_code(4), c1_code(5), c2_code(5), um_block_code(2, 2), um2prime_code()],
    ids=lambda c: c.code_id,
)
def test_singleton_style_bound(code):
    d = min_distance(code)
    r = locality(code)
    assert code.n - code.k + 1 - d >= (code.k - 1) // r


@pytest.mark.parametrize("base_k", [2, 3])
def test_column_distances(base_k):
    assert column_distance(base_k, 0) == 1 << base_k
    expected = 3 << (base_k - 1)
    for j in (1, 2, 3):
        if base_k * (j + 1) <= 20:
            assert column_distance(base_k, j) == expected


def test_column_distance_guard():
    with pytest.raises(TooLarge):
        column_distance(3, 8)


@pytest.mark.parametrize("s", range(4))
def test_sliding_block_distance_base2(s):
    assert sliding_block_distance(2, s) == 6


@pytest.mark.parametrize("s", [1, 2])
def test_sliding_block_distance_base3(s):
    assert sliding_block_distance(3, s) == 12


def test_column_distances_are_nondecreasing():
    ds = [column_distance(2, j) for j in range(4)]
    assert ds == sorted(ds)
    assert ds[1] == ds[2] == ds[3] == 6
    assert min(sliding_block_distance(2, s) for s in range(1, 5)) == 6


@pytest.mark.parametrize("k", range(2, 6))
def test_simplex_erasure_capability_matches_distance(k):
    code = simplex_code(k)
    assert min_distance(code) - 1 == (code.n - 1) // 2


def test_block_diagonal_repeat_keeps_distance():
    assert min_distance(c0_repeat_code(6, 2)) == min_distance(simplex_code(3))
    assert min_distance(c1_repeat_code(6, 2)) == min_distance(c1_code(3))


def test_verify_easy_repair_simplex4_exhaustive():
    report = verify_easy_repair_property(simplex_code(4), Exhaustive())
    assert report.verdict
    assert report.patterns_examined == 1 << 15
    assert report.correctable == report.repaired
    assert report.counterexample is None


def test_verify_easy_repair_finds_counterexamples():
    g = BitMatrix.from_rows([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    code = LinearCode("no-easy", "custom", 3, 4, g)
    report = verify_easy_repair_property(code, Exhaustive())
    assert not report.verdict
    # losing any single unit column is correctable only via all three others
    assert report.counterexample == (0,)


def test_verify_easy_repair_sampled_is_deterministic():
    code = um_block_code(2, 1)
    a = verify_easy_repair_property(code, Sampled(seed=42, trials=500))
    b = verify_easy_repair_property(code, Sampled(seed=42, trials=500))
    assert a == b
    assert a.verdict


def test_verify_workers_do_not_change_counts():
    code = simplex_code(4)
    solo = verify_easy_repair_property(code, Exhaustive(), workers=1)
    multi = verify_easy_repair_property(code, Exhaustive(), workers=4)
    assert solo == multi
    sampled1 = verify_easy_repair_property(code, Sampled(seed=3, trials=400), workers=1)
    sampled4 = verify_easy_repair_property(code, Sampled(seed=3, trials=400), workers=4)
    assert sampled1 == sampled4


def test_verify_parallel_capacity_exhaustive():
    code = um_block_code(2, 3)
    report = verify_parallel_capacity(code, 2, 2, Exhaustive())
    assert report.verdict
    assert report.patterns_examined == 30 * 29 // 2
    assert verify_parallel_capacity(code, 2, 0, Exhaustive()).verdict


def test_verify_parallel_capacity_detects_failures():
    report = verify_parallel_capacity(simplex_code(3), 2, 4, Exhaustive())
    assert not report.verdict
    assert report.counterexample is not None
    assert len(report.counterexample) == 4


def test_verify_parallel_workers_match():
    code = um_block_code(2, 3)
    solo = verify_parallel_capacity(code, 3, 3, Exhaustive(), workers=1)
    multi = verify_parallel_capacity(code, 3, 3, Exhaustive(), workers=3)
    assert solo == multi


class _PoolRecorder:
    """Stands in for ProcessPoolExecutor: records the process count asked
    for and runs the chunks in this process, starting nothing."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn):
        future = Future()
        future.set_result(fn())
        return future


def test_pool_starts_at_most_one_process_per_chunk_and_core(monkeypatch):
    code = simplex_code(3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PoolRecorder)
    monkeypatch.setattr(_PoolRecorder, "sizes", [])
    monkeypatch.setattr(metrics.os, "cpu_count", lambda: 3)
    sampled = verify_easy_repair_property(code, Sampled(seed=5, trials=200), workers=4000)
    assert _PoolRecorder.sizes == [3]
    assert sampled == verify_easy_repair_property(code, Sampled(seed=5, trials=200))
    monkeypatch.setattr(metrics.os, "cpu_count", lambda: 64)
    # seven trials: seven chunks, one process each
    par = verify_parallel_capacity(code, 2, 1, Sampled(seed=5, trials=7), workers=4000)
    assert _PoolRecorder.sizes == [3, 7]
    assert par == verify_parallel_capacity(code, 2, 1, Sampled(seed=5, trials=7))
    monkeypatch.setattr(metrics.os, "cpu_count", lambda: None)
    assert verify_easy_repair_property(code, Exhaustive(), workers=8).verdict
    assert _PoolRecorder.sizes == [3, 7]
    with pytest.raises(ValueError, match="workers"):
        verify_easy_repair_property(code, Exhaustive(), workers=0)


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    """The pool is imported when one starts, so a one-process run does not
    pay for loading multiprocessing."""
    src = str(Path(metrics.__file__).resolve().parents[1])
    probe = "import sys, simplexor.cli; sys.exit('multiprocessing' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0


def test_balanced_chunks_keep_reports_of_one_worker():
    code = um_block_code(2, 2)
    mode = Exhaustive(max_erasures=4)
    assert verify_easy_repair_property(code, mode, workers=2) == verify_easy_repair_property(
        code, mode, workers=1
    )
    # failing sweeps: the reported counterexample is the lex-first one
    for args in ((simplex_code(3), 2, 4), (code, 2, 5)):
        solo = verify_parallel_capacity(*args, Exhaustive(), workers=1)
        assert not solo.verdict
        assert verify_parallel_capacity(*args, Exhaustive(), workers=2) == solo


def _code_from_columns(code_id, k, cols):
    rows = [[(c >> i) & 1 for c in cols] for i in range(k)]
    return LinearCode(code_id, "custom", k, len(cols), BitMatrix.from_rows(rows))


def _reference_easy_sweep(code, cap=None):
    """The per-pattern exhaustive sweep: a rank check and a closure on every
    pattern.  Uncapped it runs over the masks in integer order, capped over
    the e-subsets in (e, lex) order; the counterexample is the first
    failure in that order."""
    cols, n = code.cols, code.n
    pairs = easy_table(cols)
    if cap is None:
        patterns = range(1 << n)
        checked = "easy-repair exhaustive"
    else:
        patterns = (sum(1 << j for j in erased)
                    for e in range(min(cap, n) + 1) for erased in combinations(range(n), e))
        checked = f"easy-repair exhaustive <={cap} erasures"
    examined = correctable = repaired = 0
    counterexample = None
    for mask in patterns:
        examined += 1
        if not full_rank_on_live(cols, mask, code.k):
            continue
        correctable += 1
        if easy_closure_scalar(pairs, mask):
            repaired += 1
        elif counterexample is None:
            counterexample = tuple(j for j in range(n) if mask >> j & 1)
    return metrics.VerifyReport(code.code_id, checked, counterexample is None, examined,
                                correctable, repaired, counterexample)


@st.composite
def small_codes_with_repeats(draw):
    """A code of at most 4 rows and 10 columns with at least one zero
    column and at least one duplicated column; its rows need not be
    independent."""
    k = draw(st.integers(1, 4))
    base = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=7))
    copies = draw(st.lists(st.sampled_from(base), min_size=1, max_size=2))
    cols = draw(st.permutations(base + copies + [0]))
    return _code_from_columns("random", k, cols)


@given(small_codes_with_repeats(), st.data())
def test_lattice_walk_matches_per_pattern_sweep(code, data):
    cap = data.draw(st.none() | st.integers(0, code.n + 1))
    assert verify_easy_repair_property(code, Exhaustive(cap)) == _reference_easy_sweep(code, cap)


@pytest.mark.parametrize("row_by_row", [False, True], ids=["whole-table", "row-by-row"])
@given(small_codes_with_repeats(), st.data())
def test_lane_closure_matches_the_scalar_closure(row_by_row, code, data):
    """Each lane of one closure pass, against the scalar closure of its
    mask, over the whole table and over PairRows rows."""
    n = code.n
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=64))
    max_nodes = 0 if row_by_row else repair.EASY_TABLE_MAX_NODES
    with patch.object(repair, "EASY_TABLE_MAX_NODES", max_nodes):
        pairs = easy_table(code.cols)
    assert isinstance(pairs, repair.PairRows) == row_by_row
    lanes = [sum((m >> t & 1) << p for p, m in enumerate(masks)) for t in range(n)]
    expected = sum((not easy_closure_scalar(pairs, m)) << p for p, m in enumerate(masks))
    assert repair.easy_closure_for_mask(pairs, lanes) == expected


def test_subset_lanes_and_unranking_follow_lex_order():
    for n in range(11):
        for e in range(n + 1):
            subs = list(combinations(range(n), e))
            assert [metrics._unrank(n, e, p) for p in range(len(subs))] == [
                sum(1 << j for j in sub) for sub in subs]
        for a, suffix in zip(range(n, -1, -1), metrics._suffix_lanes(n, n)):
            for e in range(n + 1):
                subs = list(combinations(range(a, n), e))
                assert suffix[e] == [sum((j in sub) << p for p, sub in enumerate(subs)) for j in range(a, n)]
    rng = random.Random(5)
    for x in [0, 1, 1 << 4000, *(rng.getrandbits(rng.choice((8, 300, 5000))) for _ in range(20))]:
        assert tuple(metrics._set_bits(x)) == repair.mask_indices(x)


def _in_process(chunks, workers):
    return [chunk() for chunk in chunks]


@given(small_codes_with_repeats())
def test_exhaustive_parallel_sweeps_match_the_per_pattern_check(code):
    """Exhaustive parallel sweeps, one lane pass per least erased node, at
    1, 2 and 3 workers, against a report built from the per-pattern tally
    of every pattern, its counterexample the lex-first failing one, for
    every r <= 4 and e <= n."""
    n = code.n
    for r in range(1, 5):
        table = repair.parallel_table(code.cols, r)
        for e in range(n + 1):
            examined, _, repaired, first, _ = parallel_tally_by_pattern(table, n, e)
            reference = metrics.VerifyReport(
                code.code_id, f"parallel r={r} e={e} exhaustive", first is None, examined,
                examined, repaired, None if first is None else repair.mask_indices(first))
            for workers in (1, 2, 3):
                assert verify_parallel_capacity(code, r, e, Exhaustive(), workers) == reference


def test_exhaustive_lane_passes_test_at_most_the_patterns_of_one_least_node(monkeypatch):
    """The lanes of one exhaustive pass are the e-subsets with least node
    a, at most C(n - 1, e - 1) of them (a = 0), never the whole layer."""
    code = um_block_code(2, 3)
    n, e = code.n, 5
    tested, kernel = [], metrics.parallel_stuck_lanes
    monkeypatch.setattr(metrics, "parallel_stuck_lanes",
                        lambda rows, lanes, test: tested.append(test.bit_count()) or kernel(rows, lanes, test))
    assert verify_parallel_capacity(code, 5, e, Exhaustive()).verdict
    assert len(tested) == n and sum(tested) == comb(n, e)
    assert max(tested) == comb(n - 1, e - 1)


def test_easy_lane_passes_test_at_most_the_patterns_of_one_least_node(monkeypatch):
    """An exhaustive easy sweep of um:2:2 up to 8 erasures runs one lane
    pass per least erased node a and erasure count e <= min(8, n - a),
    164 closures on 24 nodes, none wider than C(n - 1, 7) lanes, where the
    whole 8-subset layer is C(n, 8) = 735,471.  The rank checks are those
    of a whole-layer sweep: the generator's, then one per stuck lane that
    covers no uncorrectable pattern found before, 16 in all."""
    code = um_block_code(2, 2)
    n, cap = code.n, 8
    widths, closure = [], metrics.easy_closure_for_mask
    ranks, rank_on_live = [], metrics.full_rank_on_live
    monkeypatch.setattr(metrics, "easy_closure_for_mask",
                        lambda pairs, lanes: widths.append(max(x.bit_length() for x in lanes))
                        or closure(pairs, lanes))
    monkeypatch.setattr(metrics, "full_rank_on_live",
                        lambda *args: ranks.append(args[1]) or rank_on_live(*args))
    report = verify_easy_repair_property(code, Exhaustive(max_erasures=cap))
    assert report.verdict and report.patterns_examined == sum(comb(n, e) for e in range(cap + 1))
    assert len(widths) == sum(min(cap, n - a) for a in range(n)) == 164
    assert max(widths) == comb(n - 1, cap - 1) == 245_157
    assert len(ranks) == 16


@st.composite
def failing_generators(draw):
    """The columns and row count of a generator of 3 to 5 rows and at most
    13 columns, with a zero and a repeated column, that fails easy repair:
    it holds the unit columns, and once a column v of weight 3 or more that
    no other column copies and no two other columns XOR to, so erasing v
    alone is correctable but stuck."""
    k = draw(st.integers(3, 5))
    v = draw(st.sampled_from([x for x in range(1 << k) if x.bit_count() >= 3]))
    cols = [1 << i for i in range(k)]
    for w in draw(st.lists(st.integers(0, (1 << k) - 1), max_size=4)):
        if w != v and w ^ v not in cols:
            cols.append(w)
    cols += draw(st.lists(st.sampled_from(cols), min_size=1, max_size=2)) + [0, v]
    return tuple(draw(st.permutations(cols))), k


@given(failing_generators())
def test_easy_layers_match_brute_force_layer_by_layer(generator):
    """Each erasure count's tally from the exhaustive easy sweep, at every
    cap from 0 to n: the patterns examined, correctable and repaired, and
    the lex-first and least failing masks, against a rank check and a
    scalar closure of every e-subset."""
    cols, k = generator
    n = len(cols)
    pairs = easy_table(cols)
    expected = []
    for e in range(n + 1):
        masks = [sum(1 << j for j in sub) for sub in combinations(range(n), e)]
        correctable = [m for m in masks if full_rank_on_live(cols, m, k)]
        failing = [m for m in correctable if not easy_closure_scalar(pairs, m)]
        expected.append((len(masks), len(correctable), len(correctable) - len(failing),
                         failing[0] if failing else None, min(failing, default=None)))
    assert expected[1][3] is not None
    for cap in range(n + 1):
        assert [tuple(t) for t in metrics._easy_layers(cols, k, pairs, cap)] == expected[: cap + 1]


@pytest.mark.parametrize("code", [simplex_code(5), um_block_code(3, 3)], ids=lambda c: c.code_id)
def test_exhaustive_parallel_sweeps_near_every_node_build_no_middle_layer(code, monkeypatch):
    """At e = n - 2, n - 1 and n on 31 and 70 nodes, an exhaustive parallel
    sweep matches the per-pattern check and builds no lane wider than its
    widest pass, C(n - 1, e - 1) patterns: the middle layers of the
    suffixes, about 2^n patterns, stay unbuilt."""
    n = code.n
    widths, suffix_lanes = [], metrics._suffix_lanes

    def recording(*args):
        for layers in suffix_lanes(*args):
            widths.extend(x.bit_length() for layer in layers if layer for x in layer)
            yield layers

    monkeypatch.setattr(metrics, "_suffix_lanes", recording)
    table = repair.parallel_table(code.cols, 2)
    for e in (n - 2, n - 1, n):
        widths.clear()
        examined, _, repaired, first, _ = parallel_tally_by_pattern(table, n, e)
        report = verify_parallel_capacity(code, 2, e, Exhaustive())
        assert (report.patterns_examined, report.repaired) == (examined, repaired)
        assert report.counterexample == repair.mask_indices(first)
        assert widths and max(widths) <= comb(n - 1, e - 1)


@given(small_codes_with_repeats(), st.data())
def test_least_bound_checks_match_the_whole_table(code, data):
    """Sampled parallel sweeps and the simulation's parallel fractions,
    which check each pattern at its least bound, against the per-pattern
    check over the whole table at each bound, for every r <= 5 and e <= n,
    at 1 and 3 workers run in this process."""
    n = code.n
    seed = data.draw(st.integers(0, 1 << 64))
    trials = data.draw(st.integers(1, 30))
    for e in range(n + 1):
        tallies = {r: parallel_tally(repair.parallel_table(code.cols, r),
                                     sampled_subsets(n, e, seed, 0, trials))
                   for r in range(1, 6)}
        for r, (examined, _, repaired, first, _) in tallies.items():
            reference = metrics.VerifyReport(
                code.code_id, f"parallel r={r} e={e} sampled seed={seed} trials={trials}",
                first is None, examined, examined, repaired,
                None if first is None else repair.mask_indices(first))
            fractions = tuple((b, tallies[b][2] / trials) for b in range(1, r + 1))
            with patch.object(metrics, "_run_chunks", _in_process):
                for workers in (1, 3):
                    assert verify_parallel_capacity(code, r, e, Sampled(seed, trials), workers) == reference
                    sim = monte_carlo_repair(code, trials, e, seed, r_values=range(1, r + 1), workers=workers)
                    assert sim.parallel_fractions == fractions


# Losing node 2 alone fails first in (count, lex) order, but the failing
# pair {0, 1}, the only two copies of column 1, has the smaller bitmask.
SPLIT_ORDER_COLUMNS = (1, 1, 2, 4, 7)


@pytest.mark.parametrize(
    "cols, k, least, lex_first",
    [((1, 2, 4, 7), 3, (0,), (0,)), (SPLIT_ORDER_COLUMNS, 3, (0, 1), (2,))],
    ids=["no-easy", "split-order"],
)
def test_failing_sweeps_agree_across_workers(cols, k, least, lex_first):
    code = _code_from_columns("failing", k, cols)
    for cap, expect in ((None, least), (len(cols), lex_first)):
        reference = _reference_easy_sweep(code, cap)
        assert reference.counterexample == expect
        for workers in (1, 2, 3):
            assert verify_easy_repair_property(code, Exhaustive(cap), workers=workers) == reference


def _subcodes(code):
    """Every subcode of the row space, as the frozenset of its words."""
    words = {0}
    for row in code.generator.row_bits:
        words |= {w ^ row for w in words}
    found = {frozenset({0})}
    frontier = list(found)
    while frontier:
        grown = {u | {x ^ w for x in u} for u in frontier for w in words - u}
        frontier = list(grown - found)
        found |= grown
    return found


def _correctable_counts(code):
    """Correctable e-erasure patterns for each e, by Moebius inversion over
    the subcodes U (the critical theorem of Crapo and Rota).

    With independent rows, a live set of n - e positions recovers the
    message exactly when no nonzero codeword vanishes on it.  The live sets on which every word of
    U vanishes are those inside z(U), the positions where all of U is zero,
    so the count is the sum over U of mu(U) C(z(U), n - e), with
    mu(U) = (-1)^d 2^(d(d-1)/2) for d = dim U.
    """
    n = code.n
    counts = [0] * (n + 1)
    for u in _subcodes(code):
        d = len(u).bit_length() - 1
        support = 0
        for w in u:
            support |= w
        z = n - support.bit_count()
        mu = (-1) ** d * 2 ** (d * (d - 1) // 2)
        for e in range(n + 1):
            counts[e] += mu * comb(z, n - e)
    return counts


@pytest.mark.parametrize(
    "code", [simplex_code(3), c2_code(4), um_block_code(2, 1)], ids=lambda c: c.code_id
)
def test_walk_counts_match_the_critical_theorem(code):
    cols = code.cols
    layers = metrics._easy_layers(cols, code.k, easy_table(cols), code.n)
    per_e = [correctable for _, correctable, *_ in layers]
    assert per_e == _correctable_counts(code)
    assert verify_easy_repair_property(code, Exhaustive()).correctable == sum(per_e)


def test_walk_count_of_um22_up_to_six_erasures():
    report = verify_easy_repair_property(um_block_code(2, 2), Exhaustive(max_erasures=6))
    assert (report.patterns_examined, report.correctable, report.repaired) == (
        190051, 190042, 190042)


def test_parallel_tables_are_built_once_before_any_chunk(monkeypatch):
    """A bound out of range is refused before any chunk runs, and the easy
    table is built once, before the chunks; an exhaustive easy sweep runs
    in the calling process, with no chunks.  A sampled chunk builds a
    bound's parallel table on its first need only, and no pattern of the
    r = 5, e = 11 job on um:3:3 needs a bound above 3."""
    code = um_block_code(2, 1)

    def no_chunks(specs, workers):
        raise AssertionError("a chunk ran")

    with monkeypatch.context() as m:
        m.setattr(metrics, "_run_chunks", no_chunks)
        with pytest.raises(InvalidBound):
            verify_parallel_capacity(code, 7, 2, Sampled(seed=1, trials=10), workers=2)
        with pytest.raises(InvalidBound):
            monte_carlo_repair(code, 10, 2, seed=1, r_values=(0,), workers=2)
    asked, chunks = [], []
    table, run = metrics.parallel_table, metrics._run_chunks
    monkeypatch.setattr(metrics, "parallel_table", lambda cols, b: asked.append(b) or table(cols, b))
    monkeypatch.setattr(metrics, "_run_chunks", lambda cs, workers: chunks.extend(cs) or run(cs, workers))
    report = verify_parallel_capacity(um_block_code(3, 3), 5, 11, Sampled(3, 2000))
    assert (report.verdict, report.repaired) == (True, 2000)
    assert set(asked) == {1, 2, 3} and len(asked) <= 3 * len(chunks)
    built, pairs = [], metrics.easy_table
    monkeypatch.setattr(metrics, "easy_table", lambda cols: built.append("easy") or pairs(cols))
    monkeypatch.setattr(metrics, "_run_chunks", lambda cs, workers: built.append("chunks") or run(cs, workers))
    monte_carlo_repair(code, 200, 4, seed=1, r_values=(2, 3))
    verify_easy_repair_property(code, Exhaustive(max_erasures=4))
    verify_easy_repair_property(code, Sampled(seed=1, trials=200))
    assert built == ["easy", "chunks", "easy", "easy", "chunks"]


def test_sampled_sweep_and_simulation_on_a_long_code_make_no_group_table(monkeypatch):
    """simplex:12 has n = 4,095: its whole size-<=2 table would hold about
    8.4M masks of 4,095 bits, so the sampled sweep and the simulation's
    easy repairs read PairRows rows only."""
    code = simplex_code(12)
    monkeypatch.setattr(repair, "_group_table", None)
    report = verify_easy_repair_property(code, Sampled(seed=3, trials=4), workers=2)
    assert (report.verdict, report.patterns_examined, report.repaired) == (True, 4, 4)
    sim = monte_carlo_repair(code, 4, 40, seed=3, r_values=())
    assert sim.fraction_easy_repaired == 1.0


K4_TABLE = [
    ("simplex:4", 15, 8),
    ("umx:4:2", 15, 6),
    ("c1:4", 10, 4),
    ("um2p4", 9, 4),
    ("umx:4:4", 9, 3),
    ("c0:4:2=c1:4:2", 6, 2),
]


def test_comparison_table_k4():
    rows = comparison_table(4)
    assert [(r.code_id, r.n, r.d) for r in rows] == K4_TABLE


def test_comparison_table_ratios_are_exact():
    rows = {r.code_id: r for r in comparison_table(6)}
    assert rows["c1:6"].ratio == Fraction(2, 7)
    assert rows["umx:6:3"].ratio == Fraction(6, 21)
    assert rows["simplex:6"].ratio == Fraction(32, 63)


def test_comparison_table_rejects_tiny_k():
    with pytest.raises(Exception):
        comparison_table(1)


def test_table_formats():
    rows = comparison_table(4)
    tsv = metrics.format_table_tsv(rows)
    assert tsv.splitlines()[0] == "code\tn\td\td_over_n"
    assert "simplex:4\t15\t8\t8/15" in tsv
    text = metrics.format_table_text(rows)
    assert "1/2.5" in text  # the (10, 4) row


def _assert_census_claims(census):
    """The guaranteed minimum of every count: half = 2^(k-1), whole = 2^k."""
    half, whole = 1 << (census.base_k - 1), 1 << census.base_k
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


def test_um_census_base2_meets_every_claim():
    _assert_census_claims(um_census(2, 4, 2))


def test_um_census_at_time_block_one_completes():
    # every count of block 1 up to cap 5, in about a second
    census = um_census(3, 3, 1)
    _assert_census_claims(census)
    assert hashlib.sha256(repr(census).encode()).hexdigest() == (
        "31669e72a8345ed469598d8c6afb70d793085866d7cd0e93c69376b6de48c179")
    assert [(cap, min(first), min(second)) for cap, first, second in census.by_cap] == [
        (2, 4, 5), (3, 8, 11), (4, 11, 11), (5, 11, 11)]


def test_um_census_counts_are_pinned():
    digest = hashlib.sha256(repr(um_census(3, 4, 2)).encode()).hexdigest()
    assert digest == "7f59c8823debb3a4ce2ef2435f03b79e366c54f345f6826fa83ddf4a35b417ed"


@pytest.mark.parametrize("time_index", [-1, 0, 4, 5])
def test_um_census_rejects_blocks_outside_the_interior(time_index):
    # block 0 is the replicated first block and block 5 of um:2:4 is the
    # tail, whose second half is all zero columns
    with pytest.raises(ValueError, match="interior"):
        um_census(2, 4, time_index)


@pytest.mark.parametrize("base_k, s, time_index, caps", [
    *[(2, s, t, (1, 2, 3, 4, 5)) for s in (2, 3, 4) for t in range(1, s)],
    (3, 4, 2, (2, 3, 4)),
])
def test_um_census_matches_the_packer_on_every_node(base_k, s, time_index, caps):
    """The census counts one node per half block; every node must agree."""
    code = um_block_code(base_k, s)
    census = um_census(base_k, s, time_index, caps=caps)
    width = census.half
    rows = [(0, 1, census.time0_cap1), (0, 2, census.time0_cap2)]
    rows += [(time_index, cap, first + second) for cap, first, second in census.by_cap]
    for t, cap, counts in rows:
        assert len(counts) == 2 * width
        for h in (0, 1):
            for j in range(width):
                node = um_node_index(base_k, t, h, j)
                assert max_disjoint_groups(code, node, cap)[0] == counts[h * width + j], (t, h, j, cap)


def test_half_block_symmetry_check_rejects_changed_columns():
    """Flipping any one bit of any column of um:2:3 must fail the check, in a
    half block the census reads (blocks 0 and 1) or in one whose columns only
    enter the repair groups of the nodes it reads. So must swapping the two
    halves' node 0 of block 1, which keeps the columns as a multiset."""
    code = um_block_code(2, 3)
    cols = code.cols
    metrics._check_half_block_symmetry(cols, 2, (0, 1))
    changed = []
    for node in range(code.n):
        for row in range(code.k):
            bad = list(cols)
            bad[node] ^= 1 << row
            changed.append(bad)
    u, v = um_node_index(2, 1, 0, 0), um_node_index(2, 1, 1, 0)
    swapped = list(cols)
    swapped[u], swapped[v] = cols[v], cols[u]
    assert sorted(swapped) == sorted(cols) and swapped != list(cols)
    for bad in [*changed, swapped]:
        with pytest.raises(ValueError, match="symmetry"):
            metrics._check_half_block_symmetry(tuple(bad), 2, (0, 1))


def test_monte_carlo_within_capability():
    report = monte_carlo_repair(simplex_code(3), 300, 3, seed=1)
    assert report.fraction_correctable == 1.0
    assert report.fraction_easy_repaired == 1.0
    assert dict(report.parallel_fractions)[2] == 1.0
    assert report.erasure_histogram == ((3, 300),)


def test_monte_carlo_zero_erasures():
    report = monte_carlo_repair(simplex_code(3), 50, 0, seed=1)
    assert report.fraction_correctable == 1.0
    assert report.fraction_easy_repaired == 1.0
    assert report.mean_xors_per_repaired_node == 0.0


def test_monte_carlo_deterministic_and_worker_independent():
    code = c2_code(4)
    kwargs = dict(trials=400, erasures=3, seed=77, r_values=(2, 3))
    a = monte_carlo_repair(code, **kwargs)
    b = monte_carlo_repair(code, **kwargs)
    c = monte_carlo_repair(code, workers=4, **kwargs)
    assert a == b == c


@pytest.mark.parametrize(
    "code",
    [simplex_code(3), c1_code(3), c2_code(3), um_block_code(2, 1)],
    ids=lambda c: c.code_id,
)
def test_monte_carlo_easy_fraction_equals_correctable_fraction(code):
    for e in range(code.n + 1):
        report = monte_carlo_repair(code, 500, e, seed=5)
        assert report.fraction_easy_repaired == report.fraction_correctable


def test_trial_seed_is_stable_and_spread():
    assert trial_seed(1, 0) == trial_seed(1, 0)
    seeds = {trial_seed(9, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert (trial_seed(1, 0), trial_seed(20260808, 29)) == (627405149472732430, 12288751055442235860)


def test_the_first_sampled_patterns_are_pinned():
    """The draw itself, as plain ints taken before sample was restated: a
    change to CPython's Mersenne Twister seeding or getrandbits shows here,
    not only as a changed CLI digest; one to its sample shows in the
    differential test below."""
    assert metrics._sampled_masks(um_block_code(2, 2).n, None, 7, 0, 5) == [
        0xAED8B, 0x14C95B, 0xD1A12B, 0x90BDFE, 0x3EF2AB]
    assert metrics._sampled_masks(um_block_code(3, 3).n, 11, 7, 0, 5) == [
        0x14A002010001120820, 0x204001400088088680, 0x6508000024810120,
        0x90000029091044020, 0x204180802080000344]


@given(st.sampled_from([(1, (0, 1)), (24, (0, 3, 24)), (70, (0, 1, 6, 11, 35, 70)),
                        (200, (0, 1, 5, 6, 11)), (1000, (2, 11))]),
       st.data())
def test_the_draw_matches_a_fresh_generator_per_trial(shape, data):
    """Both branches of sample: a pool of indices up to its set-size bound
    (n = 70 with e >= 6, n = 1) and rejection of taken picks beyond it
    (n = 24 with e = 3, n = 70 with e <= 5, n = 200 and 1000); e = 0 and
    e = n; and the fair-coin mask of the easy sweep; over any chunk cut."""
    n, counts = shape
    e = data.draw(st.sampled_from((None, *counts)))
    seed = data.draw(st.integers(0, 1 << 64))
    lo = data.draw(st.integers(0, 300))
    hi = data.draw(st.integers(lo, lo + 40))
    expected = (sampled_coin_masks(n, seed, lo, hi) if e is None
                else [mask for mask, _ in sampled_subsets(n, e, seed, lo, hi)])
    assert metrics._sampled_masks(n, e, seed, lo, hi) == expected


@pytest.mark.parametrize("cuts", [(0, 30), (0, 1, 2, 30), (0, 11, 19, 30), (7, 8, 29)])
def test_sampled_chunks_draw_what_a_generator_per_trial_draws(monkeypatch, cuts):
    """One generator reseeded per trial gives the patterns of a fresh
    random.Random(trial_seed(seed, i)) per trial, wherever chunks are cut."""
    seed, n, e = 20260808, 70, 11
    drawn = []
    lanes_of = metrics.transpose
    monkeypatch.setattr(metrics, "transpose",
                        lambda masks, width: drawn.extend(masks) or lanes_of(masks, width))
    cols = (1,) * n
    for lo, hi in zip(cuts, cuts[1:]):
        fresh = [random.Random(trial_seed(seed, i)) for i in range(lo, hi)]
        erased = [tuple(sorted(rng.sample(range(n), e))) for rng in fresh]
        assert metrics._sampled_masks(n, e, seed, lo, hi) == [sum(1 << j for j in x) for x in erased]
        drawn.clear()
        metrics._sampled_chunk(cols, 1, easy_table(cols), seed, lo, hi)
        assert drawn == [random.Random(trial_seed(seed, i)).getrandbits(n) for i in range(lo, hi)]


def test_easy_repair_holds_for_short_horizon_stream_code():
    code = um_block_code(2, 1)
    report = verify_easy_repair_property(code, Exhaustive(max_erasures=8))
    assert report.verdict
    assert report.counterexample is None
