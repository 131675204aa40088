import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from oracles import (
    codeword,
    easy_closure_scalar,
    easy_steps_by_value,
    is_correctable_via_parity,
    max_disjoint_groups_by_clique,
    simplex_parity_check,
)
from simplexor.codes import (
    LinearCode,
    c1_code,
    c2_code,
    simplex_code,
    um_block_code,
)
from simplexor.gf2 import BitMatrix, DimensionMismatch
from simplexor.metrics import um_census, um_node_index
from simplexor import repair
from simplexor.repair import (
    ErasurePattern,
    InvalidBound,
    LocalityUndefined,
    PairRows,
    RepairFailure,
    RepairPlan,
    availability_profile,
    easy_repair_plan,
    easy_steps,
    easy_table,
    enumerate_repair_groups,
    format_plan,
    is_correctable,
    locality,
    mask_indices,
    max_disjoint_groups,
    parallel_repair_plan,
    _PackingSolver,
    _index_mask,
    _max_packing,
    _group_table,
    _projection_bound,
)

# four erasures in seven nodes: correctable, but past the (n-1)/2 guarantee
HARD_CORRECTABLE = frozenset({0, 1, 3, 5})


def _pattern(code, erased):
    return ErasurePattern.from_erased(code.n, erased)


def _custom_code(rows, family="custom", code_id="custom"):
    g = BitMatrix.from_rows(rows)
    return LinearCode(code_id, family, g.rows, g.cols, g)


# One weight-3 relation only: node 3 is repairable but never by two nodes.
NO_EASY_ROWS = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]


def test_pattern_validation():
    p = ErasurePattern.from_erased(7, [3, 0])
    assert p.erased_sorted() == (0, 3)
    with pytest.raises(Exception):
        ErasurePattern.from_erased(3, [5])


def test_is_correctable_beyond_guaranteed_capability():
    code = simplex_code(3)
    assert is_correctable(code, _pattern(code, HARD_CORRECTABLE))
    assert is_correctable(code, _pattern(code, []))
    assert not is_correctable(code, _pattern(code, range(7)))


@pytest.mark.parametrize(
    "code", [simplex_code(3), c1_code(3), c2_code(3)], ids=lambda c: c.code_id
)
def test_correctability_criteria_agree_exhaustively(code):
    """Full-rank live columns, independent erased parity columns, and
    unique decode are one and the same condition."""
    parity = simplex_parity_check(code.k) if code.family == "simplex" else None
    g = code.generator
    for mask in range(1 << code.n):
        erased = frozenset(j for j in range(code.n) if (mask >> j) & 1)
        pattern = ErasurePattern(code.n, erased)
        via_g = is_correctable(code, pattern)
        via_h = is_correctable_via_parity(code, erased, parity)
        assert via_g == via_h
        # unique decode: no two distinct messages agree on the live nodes
        live_mask = ((1 << code.n) - 1) & ~mask
        seen = set()
        ambiguous = False
        for ubits in range(1 << code.k):
            key = codeword(g, ubits) & live_mask
            if key in seen:
                ambiguous = True
                break
            seen.add(key)
        assert via_g == (not ambiguous)


# The first step of an easy-repair plan repairs the lowest erased node that
# is repairable from at most two live nodes.


def test_find_easy_repairable_on_hard_pattern():
    code = simplex_code(3)
    plan = easy_repair_plan(code, _pattern(code, HARD_CORRECTABLE))
    first = plan.steps[0]
    assert (first.target, first.helpers, first.order) == (0, (2, 4), 0)


def test_find_easy_repairable_nothing_erased():
    code = simplex_code(3)
    assert easy_repair_plan(code, _pattern(code, [])).steps == ()


def test_find_easy_repairable_prefers_replication():
    code = c2_code(3)
    plan = easy_repair_plan(code, _pattern(code, [0]))
    assert (plan.steps[0].target, plan.steps[0].helpers) == (0, (1,))


def test_easy_repair_plan_on_hard_pattern():
    code = simplex_code(3)
    plan = easy_repair_plan(code, _pattern(code, HARD_CORRECTABLE))
    assert isinstance(plan, RepairPlan)
    assert plan.mode == "sequential"
    assert plan.r_bound <= 2
    targets = [s.target for s in plan.steps]
    assert sorted(targets) == [0, 1, 3, 5]
    # node 5 has no two live helpers at the start, so it cannot come first
    assert targets.index(5) > targets.index(1)
    _assert_replay_recovers(code, plan, HARD_CORRECTABLE)


def _assert_replay_recovers(code, plan, erased):
    g = code.generator
    rng = random.Random(13)
    for _ in range(10):
        word = codeword(g, rng.getrandbits(code.k))
        c = [(word >> j) & 1 for j in range(code.n)]
        have = {j: c[j] for j in range(code.n) if j not in erased}
        for step in plan.steps:
            assert step.target not in have
            val = 0
            for h in step.helpers:
                val ^= have[h]
            have[step.target] = val
        assert [have[j] for j in range(code.n)] == c


def test_easy_repair_plan_empty_pattern():
    code = simplex_code(3)
    plan = easy_repair_plan(code, _pattern(code, []))
    assert isinstance(plan, RepairPlan)
    assert plan.steps == ()
    assert plan.r_bound == 0


def test_easy_repair_plan_succeeds_on_every_correctable_pattern():
    code = simplex_code(3)
    for mask in range(1 << 7):
        pattern = ErasurePattern(7, frozenset(j for j in range(7) if (mask >> j) & 1))
        outcome = easy_repair_plan(code, pattern)
        if is_correctable(code, pattern):
            assert isinstance(outcome, RepairPlan)
            assert len(outcome.steps) == len(pattern.erased)
        else:
            assert isinstance(outcome, RepairFailure)
            assert not outcome.theorem_violation


def test_easy_repair_failure_flags_theorem_violation_only_for_easy_families():
    plain = _custom_code(NO_EASY_ROWS)
    outcome = easy_repair_plan(plain, _pattern(plain, [3]))
    assert isinstance(outcome, RepairFailure)
    assert outcome.residual.erased == frozenset({3})
    assert not outcome.theorem_violation

    mislabeled = _custom_code(NO_EASY_ROWS, family="simplex", code_id="bogus")
    outcome = easy_repair_plan(mislabeled, _pattern(mislabeled, [3]))
    assert isinstance(outcome, RepairFailure)
    assert outcome.theorem_violation


CLOSURE_CODES = [c2_code(4), simplex_code(4), um_block_code(2, 1), _custom_code(NO_EASY_ROWS)]


@given(st.sampled_from(CLOSURE_CODES), st.integers(0, (1 << 18) - 1))
def test_easy_closure_verdict_matches_plan(code, bits):
    mask = bits & ((1 << code.n) - 1)
    pattern = _pattern(code, [j for j in range(code.n) if (mask >> j) & 1])
    plan = easy_repair_plan(code, pattern)
    pairs = easy_table(code.cols)
    assert easy_closure_scalar(pairs, mask) == isinstance(plan, RepairPlan)


def test_parallel_plan_within_capability():
    code = simplex_code(3)
    for e in range(4):
        for erased in itertools.combinations(range(7), e):
            plan = parallel_repair_plan(code, _pattern(code, erased), 2)
            assert isinstance(plan, RepairPlan)
            assert plan.mode == "parallel"
            for step in plan.steps:
                assert not set(step.helpers) & set(erased)


def test_parallel_plan_fails_beyond_capability():
    code = simplex_code(3)
    outcome = parallel_repair_plan(code, _pattern(code, HARD_CORRECTABLE), 2)
    assert isinstance(outcome, RepairFailure)
    assert 5 in outcome.residual.erased


@pytest.mark.parametrize("k", range(2, 6))
def test_parallel_3_repair_for_chain_codes(k):
    code = c2_code(k)
    for erased in itertools.combinations(range(code.n), 2):
        plan = parallel_repair_plan(code, _pattern(code, erased), 3)
        assert isinstance(plan, RepairPlan)


def test_enumerate_groups_simplex3_target0():
    code = simplex_code(3)
    groups = enumerate_repair_groups(code, 0, 2)
    assert [tuple(sorted(g.helpers)) for g in groups] == [(1, 3), (2, 4), (5, 6)]


def test_enumerate_groups_replication():
    code = c2_code(3)
    groups = enumerate_repair_groups(code, 0, 1)
    assert [tuple(sorted(g.helpers)) for g in groups] == [(1,)]


@pytest.mark.parametrize(
    "code", [simplex_code(3), c1_code(4), c2_code(4), um_block_code(2, 1)],
    ids=lambda c: c.code_id,
)
def test_enumerated_groups_xor_to_target_and_are_minimal(code):
    cols = code.cols
    for target in range(0, code.n, 3):
        for group in enumerate_repair_groups(code, target, 3):
            helpers = sorted(group.helpers)
            assert target not in helpers
            acc = 0
            for h in helpers:
                acc ^= cols[h]
            assert acc == cols[target]
            for r in range(1, len(helpers)):
                for sub in itertools.combinations(helpers, r):
                    sub_acc = 0
                    for h in sub:
                        sub_acc ^= cols[h]
                    assert sub_acc != cols[target]


def _no_zero_subset(vals):
    """Brute-force minimality: walk all 2^m subset XORs, none of them
    nonempty and proper may be zero."""
    m = len(vals)
    sub = [0] * (1 << m)
    for mask in range(1, (1 << m) - 1):
        low = (mask & -mask).bit_length() - 1
        sub[mask] = sub[mask & (mask - 1)] ^ vals[low]
        if sub[mask] == 0:
            return False
    return True


def _brute_force_groups(cols, target, cap):
    """Every minimal group of at most cap helpers, in (size, indices) order."""
    others = [j for j in range(len(cols)) if j != target]
    expected = []
    for size in range(1, cap + 1):
        for group in itertools.combinations(others, size):
            acc = 0
            for h in group:
                acc ^= cols[h]
            if acc == cols[target] and _no_zero_subset([cols[h] for h in group]):
                expected.append(group)
    return expected


@pytest.mark.parametrize(
    "code, cap",
    [(simplex_code(3), 6), (c2_code(4), 6), (um_block_code(2, 1), 4), (um_block_code(2, 2), 4)],
    ids=lambda v: getattr(v, "code_id", v),
)
def test_enumerated_groups_match_brute_force(code, cap):
    # um:2:2 has zero columns (zero targets among them) and duplicate columns
    cols = code.cols
    for target in range(code.n):
        got = [tuple(sorted(g.helpers)) for g in enumerate_repair_groups(code, target, cap)]
        assert got == _brute_force_groups(cols, target, cap)


@st.composite
def columns_with_repeats(draw):
    """Columns of a random matrix of at most 4 rows and 12 columns, with
    at least one zero column and at least one duplicated column."""
    k = draw(st.integers(1, 4))
    base = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=9))
    copies = draw(st.lists(st.sampled_from(base), min_size=1, max_size=2))
    cols = base + copies + [0]
    return tuple(draw(st.permutations(cols)))


@given(columns_with_repeats(), st.integers(1, 5))
def test_minimal_groups_match_brute_force_on_random_columns(cols, cap):
    table = _group_table(cols, cap)
    for target in range(len(cols)):
        assert [mask_indices(g) for g in table[target]] == _brute_force_groups(cols, target, cap)


@st.composite
def columns_with_units(draw):
    """At most 14 columns of 1 to 5 rows: random ones, a unit column, one or
    two repeats of those and a zero column, shuffled."""
    k = draw(st.integers(1, 5))
    base = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=10))
    base.append(1 << draw(st.integers(0, k - 1)))
    copies = draw(st.lists(st.sampled_from(base), min_size=1, max_size=2))
    return tuple(draw(st.permutations(base + copies + [0])))


@given(columns_with_units(), st.integers(0, (1 << 14) - 1))
def test_easy_repair_over_the_group_table_matches_the_value_scan(cols, bits):
    erased_mask = bits & ((1 << len(cols)) - 1)
    erased = mask_indices(erased_mask)
    table, rows = _group_table(cols, 2), PairRows(cols)
    assert [tuple(rows[t]) for t in range(len(cols))] == list(table)
    expected = easy_steps_by_value(cols, erased)
    for pairs in (table, rows):
        assert easy_steps(pairs, erased) == expected
        assert easy_closure_scalar(pairs, erased_mask) == (not expected[1])
        one_lane = [erased_mask >> t & 1 for t in range(len(cols))]
        assert repair.easy_closure_for_mask(pairs, one_lane) == bool(expected[1])


def test_easy_plan_on_a_long_code_makes_no_group_table(monkeypatch):
    """simplex:14 has n = 16,383: its whole size-<=2 table would hold about
    134M masks of 16,383 bits, so a plan reads PairRows rows only."""
    code = simplex_code(14)
    cols = code.cols
    monkeypatch.setattr(repair, "_group_table", None)
    erased = (0, 1, 2, 5, 700, code.n - 1)
    plan = easy_repair_plan(code, _pattern(code, erased))
    assert [(s.target, s.helpers) for s in plan.steps] == list(easy_steps_by_value(cols, erased)[0])


@st.composite
def wide_columns(draw):
    """Columns of a random matrix of 5 to 7 rows and at most 10 columns,
    with at least one zero column and at least one duplicated column.  The
    other columns are uniform, and one is the XOR of 5 to 7 of them, so
    circuits of 6 and 7 columns, split 3 + 3 and 3 + 1 + 3, are common."""
    k = draw(st.integers(5, 7))
    rng = draw(st.randoms(use_true_random=False))
    base = [rng.randrange(1 << k) for _ in range(draw(st.integers(5, 7)))]
    total = 0
    for c in base:
        total ^= c
    cols = base + [total, rng.choice(base), 0]
    rng.shuffle(cols)
    return tuple(cols)


@given(wide_columns())
def test_group_table_matches_brute_force_on_wide_columns(cols):
    for target in range(len(cols)):
        expected = _brute_force_groups(cols, target, 6)
        for cap in range(1, 7):
            got = [mask_indices(g) for g in _group_table(cols, cap)[target]]
            assert got == [g for g in expected if len(g) <= cap]


def test_group_tables_are_pinned():
    """sha256 over every node, then every cap, of the repr of the node's
    groups as ascending helper tuples: a change to the enumerator that
    adds, drops or reorders a single group shows here."""
    digest = hashlib.sha256()
    for code, top in ((simplex_code(4), 6), (c2_code(5), 6), (um_block_code(2, 3), 5),
                      (um_block_code(3, 3), 5)):
        for target in range(code.n):
            for cap in range(1, top + 1):
                groups = enumerate_repair_groups(code, target, cap)
                digest.update(repr(tuple(tuple(sorted(g.helpers)) for g in groups)).encode())
    assert digest.hexdigest() == "5de9d32be807f73ba756f8de477de73da5db25ec58f921d01500ee335eaf8c8d"


def test_enumerate_groups_bound_validation():
    code = simplex_code(3)
    with pytest.raises(InvalidBound):
        enumerate_repair_groups(code, 0, 0)
    with pytest.raises(InvalidBound):
        enumerate_repair_groups(code, 0, 7)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_max_disjoint_pairs_simplex(k):
    code = simplex_code(k)
    n = code.n
    for target in range(n):
        count, witness = max_disjoint_groups(code, target, 2)
        assert count == (n - 1) // 2
        _assert_packing_valid(code, target, witness)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_max_disjoint_pairs_weight2_code(k):
    code = c1_code(k)
    for target in range(code.n):
        count, witness = max_disjoint_groups(code, target, 2)
        assert count == k - 1
        _assert_packing_valid(code, target, witness)


def _assert_packing_valid(code, target, witness):
    cols = code.cols
    seen = set()
    for group in witness:
        helpers = set(group.helpers)
        assert target not in helpers
        assert not helpers & seen
        seen |= helpers
        acc = 0
        for h in helpers:
            acc ^= cols[h]
        assert acc == cols[target]


def test_max_disjoint_groups_trivial_code():
    code = simplex_code(1)
    assert max_disjoint_groups(code, 0, 2) == (0, [])


@pytest.mark.parametrize("target", [-1, 7])
def test_max_disjoint_groups_rejects_an_out_of_range_target(target):
    with pytest.raises(DimensionMismatch, match="target index out of range"):
        max_disjoint_groups(simplex_code(3), target, 2)


def test_max_disjoint_groups_lex_witness():
    code = _custom_code([[1, 1, 1]])
    count, witness = max_disjoint_groups(code, 0, 2)
    assert count == 2
    assert [tuple(sorted(g.helpers)) for g in witness] == [(1,), (2,)]
    assert max_disjoint_groups(code, 0, 2) == (count, witness)


def _disjoint_families(groups, used=0, start=0):
    """Every pairwise-disjoint subfamily of groups, each in list order."""
    yield []
    for i in range(start, len(groups)):
        mask = _index_mask(groups[i])
        if not mask & used:
            for rest in _disjoint_families(groups, used | mask, i + 1):
                yield [groups[i], *rest]


_GROUP_LISTS = st.lists(
    st.sets(st.integers(0, 11), min_size=1, max_size=3).map(lambda s: tuple(sorted(s))),
    min_size=0,
    max_size=14,
    unique=True,
)


@given(_GROUP_LISTS)
def test_max_packing_matches_brute_force(groups):
    families = list(_disjoint_families(sorted(groups)))
    best = max(len(f) for f in families)
    got = [mask_indices(m) for m in _max_packing([_index_mask(g) for g in groups])]
    assert len(got) == best
    assert set(got) <= set(groups)
    assert not any(set(a) & set(b) for a, b in itertools.combinations(got, 2))
    assert got == sorted(got)


@given(
    st.lists(
        st.sets(st.integers(0, 9), min_size=1, max_size=4).map(lambda s: tuple(sorted(s))),
        max_size=14,
        unique=True,
    )
)
@example([])
@example([(0,), (1,), (2,), (0, 1, 2)])
def test_clique_of_finds_want_disjoint_groups_exactly_when_they_exist(groups):
    """Every want up to one past the number of groups, so also the wants
    above the maximum that the descending packer never asks."""
    solver = _PackingSolver([_index_mask(g) for g in groups])
    best = max(len(f) for f in _disjoint_families(sorted(groups)))
    for want in range(1, len(groups) + 2):
        found = solver.clique_of(want)
        if want > best:
            assert found == 0
            continue
        picked = [solver.masks[v] for v in mask_indices(found)]
        assert len(picked) == want
        assert not any(a & b for a, b in itertools.combinations(picked, 2))


@given(_GROUP_LISTS)
def test_packing_solver_graph_and_cover_match_the_groups(groups):
    masks = [_index_mask(g) for g in groups]
    solver = _PackingSolver(masks)
    assert sorted(solver.masks) == sorted(masks)
    for i, mi in enumerate(solver.masks):
        for j, mj in enumerate(solver.masks):
            assert (solver.adj[i] >> j) & 1 == (not mi & mj)
    through = {
        node: sum(1 << i for i, m in enumerate(solver.masks) if (m >> node) & 1)
        for node in range(12)
    }
    for verts in solver.cover_verts:
        assert verts in through.values()
    for i in range(len(masks)):
        assert any((verts >> i) & 1 for verts in solver.cover_verts)


def test_projection_bound_is_a_valid_upper_bound():
    for code in (simplex_code(3), c2_code(4), um_block_code(2, 2)):
        cols = code.cols
        for target in range(0, code.n, 2):
            window = _projection_bound(cols, target, code.k)
            count, _ = max_disjoint_groups(code, target, 4)
            if window is not None:
                assert count <= window[0]


@pytest.mark.parametrize(
    "code", [simplex_code(4), c1_code(4), c2_code(5), um_block_code(2, 1)],
    ids=lambda c: c.code_id,
)
def test_projection_hint_never_changes_the_packing(code):
    """The search must reach the same maximum with and without the
    row-projection upper bound, else the bound would be cutting below
    the true optimum."""
    cols = code.cols
    for target in range(0, code.n, 3):
        for cap in (2, 3, 4):
            groups = _group_table(cols, cap)[target]
            assert _max_packing(groups) == _max_packing(
                groups, _projection_bound(cols, target, code.k)
            )


def _columns_code(cols, k):
    return _custom_code([[(c >> i) & 1 for c in cols] for i in range(k)])


def _cover_verdict(solver, window, want):
    """The cover search's verdict on want groups and its search node count."""
    steps = solver.cover_steps(window[1], window[2], want)
    count = 0
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value, count
        count += 1


@st.composite
def cover_generators(draw):
    """A generator of 1 to 6 rows and at most 14 columns with a zero and a
    repeated column; its rows need not be independent."""
    k = draw(st.integers(1, 6))
    base = draw(st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=11))
    copies = draw(st.lists(st.sampled_from(base), min_size=1, max_size=2))
    return _columns_code(draw(st.permutations(base + copies + [0])), k)


@given(cover_generators(), st.integers(1, 4))
def test_cover_search_decides_packings_as_brute_force_does(code, cap):
    """Under its target's window every group weighs at least 2 half-units,
    the cover search says a packing of want groups exists exactly when one
    does, for each want up to one past the window's bound, and the packer
    returns what the clique search alone returns."""
    cols = code.cols
    for target in range(code.n):
        if not cols[target]:
            continue
        groups = _group_table(cols, cap)[target]
        bound, exact, other = _projection_bound(cols, target, code.k)
        for g in groups:
            assert 2 * (g & exact).bit_count() + (g & other).bit_count() >= 2
        best = max(len(f) for f in _disjoint_families([mask_indices(g) for g in groups]))
        solver = _PackingSolver(groups)
        for want in range(1, bound + 2):
            assert _cover_verdict(solver, (bound, exact, other), want)[0] == (want <= best)
        assert max_disjoint_groups(code, target, cap) == max_disjoint_groups_by_clique(code, target, cap)


@pytest.mark.parametrize("s, budget", [(4, 500), (3, 900)])
def test_census_refutations_at_cap_4_come_from_the_cover_search(s, budget):
    """Node 28, the first of um:3:s time block 2, has projection bound 11
    and packs 10 groups at cap 4.  The cover search proves that 11 do not
    fit within budget search nodes, where the clique search alone takes
    over 20,000; run in step, it ends the clique search there."""
    code = um_block_code(3, s)
    node = um_node_index(3, 2, 0, 0)
    groups = _group_table(code.cols, 4)[node]
    window = _projection_bound(code.cols, node, code.k)
    assert window[0] == 11
    solver = _PackingSolver(groups)
    verdict, steps = _cover_verdict(solver, window, 11)
    assert not verdict and steps <= budget
    ticks = []
    refuter = repair._refuter(solver.cover_steps(window[1], window[2], 11))

    def tick():
        ticks.append(None)
        next(refuter)

    with pytest.raises(repair._Refuted):
        solver.clique_of(11, tick)
    assert len(ticks) == steps + 1
    assert max_disjoint_groups(code, node, 4)[0] == 10


def test_census_witnesses_are_pinned():
    """The witnesses of the refuted census nodes and of um:3:3 node 14,
    where the clique search finds 11 groups, as the clique search alone
    returned them."""
    digest = hashlib.sha256()
    for s, node, cap in ((4, 28, 4), (3, 28, 4), (3, 14, 4), (3, 14, 5)):
        count, witness = max_disjoint_groups(um_block_code(3, s), node, cap)
        digest.update(repr((s, node, cap, count, [tuple(sorted(g.helpers)) for g in witness])).encode())
    assert digest.hexdigest() == "e44b77ab429e10d12690d97402ae8c960c89f40a28018ed146ee563ce1d28a6c"


@st.composite
def small_generators(draw):
    """A generator of 1 to 4 rows and at most 11 columns with a zero, a unit
    and a duplicated column; its rows need not be independent."""
    k = draw(st.integers(1, 4))
    base = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=7))
    copies = draw(st.lists(st.sampled_from(base), min_size=1, max_size=2))
    unit = 1 << draw(st.integers(0, k - 1))
    return _columns_code(draw(st.permutations(base + copies + [unit, 0])), k)


# node 8, the zero column, packs 3 groups at cap 3, where the greedy lower
# bound stops at 2: only an exact count passes here
@example(_columns_code((2, 5, 4, 6, 5, 7, 3, 5, 0, 1), 3), 3)
@given(small_generators(), st.integers(1, 4))
def test_packing_count_is_the_brute_force_maximum_and_the_witness_a_maximum_packing(code, cap):
    for target in range(code.n):
        count, witness = max_disjoint_groups(code, target, cap)
        groups = [tuple(sorted(g.helpers)) for g in enumerate_repair_groups(code, target, cap)]
        assert count == max(len(f) for f in _disjoint_families(groups))
        assert len(witness) == count
        assert {tuple(sorted(g.helpers)) for g in witness} <= set(groups)
        _assert_packing_valid(code, target, witness)


def test_time_block_one_cap5_witnesses_complete():
    """Every node of um:3:3 time block 1 gets a maximum packing at cap 5,
    of the size the census counts."""
    code = um_block_code(3, 3)
    census = um_census(3, 3, 1, caps=(5,))
    (_, first, second), = census.by_cap
    for half, counts in enumerate((first, second)):
        for j, expected in enumerate(counts):
            node = um_node_index(3, 1, half, j)
            count, witness = max_disjoint_groups(code, node, 5)
            assert count == len(witness) == expected
            _assert_packing_valid(code, node, witness)
            assert all(len(g.helpers) <= 5 for g in witness)


def test_availability_profile_simplex3():
    code = simplex_code(3)
    profile = availability_profile(code, 2)
    assert profile.code_level == ((1, 0), (2, 3))
    assert all(counts[1] == 3 for counts in profile.per_node)
    cols = code.cols
    for node in range(code.n):
        for r in (1, 2):
            count, witness = max_disjoint_groups(code, node, r)
            assert count == profile.per_node[node][r - 1]
            used = set()
            for group in witness:
                helpers = tuple(sorted(group.helpers))
                assert len(helpers) <= r
                assert node not in helpers
                assert not set(helpers) & used
                used |= set(helpers)
                acc = 0
                for h in helpers:
                    acc ^= cols[h]
                assert acc == cols[node]


def test_availability_profile_chain():
    profile = availability_profile(c2_code(3), 3)
    assert profile.code_level[2] == (3, 2)


def test_availability_interior_um_node():
    code = um_block_code(2, 2)
    profile = availability_profile(code, 2)
    # a first-half node in time block 1 sits at index n_block + j
    assert profile.per_node[6][2 - 1] == 2


def test_locality_of_the_easy_repair_families():
    assert locality(simplex_code(3)) == 2
    assert locality(c1_code(4)) == 2
    assert locality(c2_code(4)) == 2


def test_locality_undefined_for_independent_columns():
    code = _custom_code([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(LocalityUndefined):
        locality(code)


def test_locality_three_comes_from_the_cap_six_table():
    # e1, e2, e3, e1+e2+e3: no pair XORs to a column, each node's group is the other three
    assert locality(_columns_code((1, 2, 4, 7), 3)) == 3


def test_locality_rejects_a_node_whose_groups_all_exceed_the_size_bound():
    # e1..e7 plus their sum: every node's only group has 7 helpers
    code = _columns_code((*(1 << i for i in range(7)), 127), 7)
    with pytest.raises(InvalidBound, match="node 0: no repair group within size 6"):
        locality(code)


@pytest.mark.parametrize(
    "code",
    [simplex_code(3), c1_code(4), c2_code(4), um_block_code(2, 1)],
    ids=lambda c: c.code_id,
)
def test_plan_replay_recovers_random_codewords(code):
    rng = random.Random(2718)
    for _ in range(200):
        erased = frozenset(j for j in range(code.n) if rng.random() < 0.4)
        pattern = ErasurePattern(code.n, erased)
        plan = easy_repair_plan(code, pattern)
        if isinstance(plan, RepairFailure):
            assert not is_correctable(code, pattern)
            continue
        _assert_replay_recovers(code, plan, erased)


def test_parity_route_agrees_on_stream_code():
    code = um_block_code(2, 1)
    for e in range(5):
        for erased in itertools.combinations(range(code.n), e):
            pattern = _pattern(code, erased)
            assert is_correctable(code, pattern) == is_correctable_via_parity(code, erased)


def test_format_plan_golden():
    code = simplex_code(3)
    plan = easy_repair_plan(code, _pattern(code, HARD_CORRECTABLE))
    assert format_plan(plan) == (
        "# mode: sequential\n"
        "repair 0 <- 2+4\n"
        "repair 1 <- 4+6\n"
        "repair 3 <- 0+1\n"
        "repair 5 <- 0+6"
    )
    par = parallel_repair_plan(code, _pattern(code, [0]), 2)
    assert format_plan(par) == "# mode: parallel r=2\nrepair 0 <- 1+3"
