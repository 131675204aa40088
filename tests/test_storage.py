import dataclasses
import hashlib
import json
import random
import time
import tracemalloc
import zlib
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from oracles import decode_by_solving, encode_by_columns, select_columns, solve_right, um_taps, xor_bytes
from simplexor import storage
from simplexor.codes import LinearCode, parse_code_id, simplex_code, um_block_code
from simplexor.gf2 import BitMatrix
from simplexor.repair import (
    RepairFailure,
    ErasurePattern,
    easy_repair_plan,
    is_correctable,
)
from simplexor.storage import (
    EmptyPayload,
    NotCorrectable,
    Shard,
    StorageError,
    _live_recipe,
    _run_xor_steps,
    decode_object,
    encode_object,
    manifest_from_json,
    manifest_to_json,
    read_available_shards,
    read_manifest,
    repair_shards,
    shard_filename,
    write_object_dir,
    write_shards,
)

FAMILIES = ["simplex:3", "c1:3", "c2:3", "um:2:1", "um2p4", "c0:4:2"]


class _Counted:
    """Patches storage's int conversion and CRC-32 to record the bytes
    objects converted to ints and hashed, and to count the int XORs and the
    ints converted back to bytes."""

    def __init__(self, monkeypatch):
        self.converted, self.hashed = [], []
        self.xors = self.made = 0
        counted = self

        class CountingInt(int):
            @classmethod
            def from_bytes(cls, data, byteorder):
                counted.converted.append(data)
                return super().from_bytes(data, byteorder)

            def __xor__(self, other):
                counted.xors += 1
                return CountingInt(int(self) ^ int(other))

            def to_bytes(self, length, byteorder):
                counted.made += 1
                return int(self).to_bytes(length, byteorder)

        def counting_crc32(data, value=0):
            counted.hashed.append(data)
            return zlib.crc32(data, value)

        monkeypatch.setattr(storage, "int", CountingInt, raising=False)
        monkeypatch.setattr(storage, "zlib", SimpleNamespace(crc32=counting_crc32))


def _distinct_copies(shards):
    """The shards with a bytes object of their own each (a shard that copies
    one fragment shares its object), so a recorded object names one shard."""
    return [Shard(sh.index, bytes(bytearray(sh.data))) for sh in shards]


def _indices(recorded, shards):
    """The sorted indices of the shards whose bytes objects were recorded."""
    by_id = {id(sh.data): sh.index for sh in shards}
    return sorted(by_id[id(data)] for data in recorded)


def test_encode_applies_the_column_rule():
    manifest, shards = encode_object(simplex_code(3), b"abc")
    # column 3 is the sum of the first two unit columns
    assert shards[3].data == bytes([ord("a") ^ ord("b")])
    assert shards[0].data == b"a"
    assert manifest.fragment_length == 1
    assert manifest.payload_length == 3


def test_encode_identity_generator_reproduces_fragments():
    code = LinearCode("ident", "custom", 3, 3, BitMatrix.identity(3))
    _, shards = encode_object(code, b"xyz")
    assert [s.data for s in shards] == [b"x", b"y", b"z"]


def test_encode_zero_payload_gives_zero_shards():
    _, shards = encode_object(simplex_code(3), bytes(6))
    assert all(s.data == bytes(2) for s in shards)


def test_encode_rejects_empty_payload():
    with pytest.raises(EmptyPayload):
        encode_object(simplex_code(3), b"")


def test_decode_from_all_and_from_minimal_live_sets():
    payload = bytes(random.Random(3).randrange(256) for _ in range(100))
    manifest, shards = encode_object(simplex_code(3), payload)
    assert decode_object(manifest, shards) == payload
    assert decode_object(manifest, [shards[j] for j in (2, 4, 6)]) == payload


def test_decode_not_correctable():
    manifest, shards = encode_object(simplex_code(3), b"hello")
    with pytest.raises(NotCorrectable):
        decode_object(manifest, [shards[0], shards[1]])


def test_decode_checksum_and_length_validation():
    """A shard failing its checksum or length test counts as erased."""
    payload = b"hello world"
    manifest, shards = encode_object(simplex_code(3), payload)
    bad = Shard(2, bytes([shards[2].data[0] ^ 1]) + shards[2].data[1:])
    short = Shard(2, shards[2].data[:-1])
    for corrupt in (bad, short):
        supplied = [shards[0], shards[1], corrupt] + list(shards[3:])
        assert decode_object(manifest, supplied) == payload
        result = repair_shards(manifest, supplied[1:], {0})
        assert {sh.index: sh.data for sh in result.shards} == {0: shards[0].data, 2: shards[2].data}
        with pytest.raises(NotCorrectable):
            decode_object(manifest, supplied[:3])
    with pytest.raises(StorageError, match="out of range"):
        decode_object(manifest, [Shard(7, shards[0].data)])
    with pytest.raises(StorageError, match="duplicate"):
        repair_shards(manifest, [shards[1], shards[1]], {0})


def test_cached_code_resolution_still_checks_each_manifest(monkeypatch):
    parsed = []

    def counting_parse(code_id):
        parsed.append(code_id)
        return parse_code_id(code_id)

    monkeypatch.setattr(storage, "parse_code_id", counting_parse)
    storage._code_for_id.cache_clear()
    payload = b"cached code"
    manifest, shards = encode_object(simplex_code(3), payload)
    assert decode_object(manifest, shards) == payload
    assert repair_shards(manifest, shards[1:], {0}).shards == (shards[0],)
    assert parsed == ["simplex:3"]
    wrong_n = dataclasses.replace(manifest, n=8, checksums=manifest.checksums + ("0" * 8,))
    with pytest.raises(StorageError, match="does not match code"):
        decode_object(wrong_n, shards)
    with pytest.raises(StorageError, match="does not match code"):
        repair_shards(wrong_n, shards[1:], {0})
    with pytest.raises(StorageError, match="does not match code"):
        decode_object(dataclasses.replace(manifest, k=2), shards)
    storage._code_for_id.cache_clear()


@pytest.mark.parametrize("code_id", ["simplex:20", "c2:100000", "um:10:30"])
def test_a_manifest_naming_a_large_code_is_refused_before_it_is_built(monkeypatch, code_id):
    manifest, shards = encode_object(simplex_code(3), b"a small object")
    wrong = dataclasses.replace(manifest, code=code_id)
    built = []
    monkeypatch.setattr(storage, "parse_code_id", built.append)
    storage._code_for_id.cache_clear()
    start = time.process_time()
    with pytest.raises(StorageError, match=code_id):
        decode_object(wrong, shards)
    with pytest.raises(StorageError, match=code_id):
        repair_shards(wrong, shards[1:], {0})
    assert time.process_time() - start < 0.5
    assert built == []
    storage._code_for_id.cache_clear()


def test_simplex_16_plans_encodes_decodes_and_repairs():
    """The first plan on 65,535 nodes, then a 3 KB payload byte for byte
    through encode, a decode without shards 0 and 1, and their repair."""
    code = parse_code_id("simplex:16")
    plan = easy_repair_plan(code, ErasurePattern(code.n, frozenset({0, 1})))
    assert [(step.target, step.helpers) for step in plan.steps] == [(0, (2, 17)), (1, (0, 16))]
    payload = random.Random(16).randbytes(3 << 10)
    manifest, shards = encode_object(code, payload)
    live = shards[2:]
    assert decode_object(manifest, live) == payload
    result = repair_shards(manifest, live, {0, 1})
    assert result.shards == tuple(shards[:2]) and not result.via_decode


def test_the_decode_recipe_cache_keeps_little_per_live_set():
    """Decoding a simplex:12 object (4,095 shards) from 40 live sets, two
    erasures each, retains a few KB: a cache keyed by the 4,093 live
    indices of each set would hold about 33 KB per set."""
    manifest, shards = encode_object(parse_code_id("simplex:12"), random.Random(12).randbytes(240))
    assert decode_object(manifest, shards[2:]) == random.Random(12).randbytes(240)
    _live_recipe.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(40):
            decode_object(manifest, shards[:i] + shards[i + 2 :])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 40 * 4096, retained


@pytest.mark.parametrize(
    "code_id, k, s", [("c1:6", 2, 2), ("c1:6", -3, -3), ("um:2:2", 6, None), ("simplex:3", 1, 2)]
)
def test_a_manifest_whose_k_and_s_contradict_its_code_id_is_rejected(code_id, k, s):
    """Each pair keeps the fragment count, (s + 1) * k, of what encode wrote."""
    manifest, shards = encode_object(parse_code_id(code_id), b"k and s come from the code id")
    wrong = dataclasses.replace(manifest, k=k, s=s)
    with pytest.raises(StorageError, match="does not match code"):
        decode_object(wrong, shards)
    with pytest.raises(StorageError, match="does not match code"):
        repair_shards(wrong, shards[1:], {0})


def test_repair_hard_pattern_uses_only_easy_steps():
    payload = b"the quick brown fox jumps over the lazy dog"
    manifest, shards = encode_object(simplex_code(3), payload)
    available = [s for s in shards if s.index not in {0, 1, 3, 5}]
    result = repair_shards(manifest, available, {0, 1, 3, 5})
    assert not result.via_decode
    assert result.plan is not None
    assert all(len(step.helpers) <= 2 for step in result.plan.steps)
    by_index = {s.index: s for s in result.shards}
    for j in (0, 1, 3, 5):
        assert by_index[j].data == shards[j].data


def test_repair_nothing_missing():
    manifest, shards = encode_object(simplex_code(3), b"data")
    result = repair_shards(manifest, shards, set())
    assert result.shards == ()
    assert result.plan is not None and result.plan.steps == ()


def _check_repair_matches_reencoding(code_id, missing):
    payload = bytes(range(256)) * 3
    code = parse_code_id(code_id)
    manifest, shards = encode_object(code, payload)
    available = [s for s in shards if s.index not in missing]
    result = repair_shards(manifest, available, missing)
    assert not result.via_decode
    decoded = decode_object(manifest, available)
    _, fresh = encode_object(code, decoded)
    for shard in result.shards:
        assert shard.data == fresh[shard.index].data == shards[shard.index].data


def test_repair_matches_reencoding_route():
    _check_repair_matches_reencoding("c2:4", {0, 4})


def test_repair_chain_matches_reencoding_route():
    # simplex:4 repairs 0 <- 1+4, then 7 <- 0+10: a repaired node helps a later step
    _check_repair_matches_reencoding("simplex:4", {0, 7})


def _always_stall(code, pattern):
    return RepairFailure(ErasurePattern(pattern.n, pattern.erased))


def test_repair_falls_back_to_decode_when_steps_stall(monkeypatch):
    manifest, shards = encode_object(simplex_code(3), b"payload!")
    missing = {0, 1, 3, 5}
    available = [s for s in shards if s.index not in missing]
    monkeypatch.setattr(storage, "easy_repair_plan", _always_stall)
    counted = _Counted(monkeypatch)
    result = repair_shards(manifest, available, missing)
    # every supplied shard once, then each regenerated shard; the decode
    # fallback hashes nothing again
    assert len(counted.hashed) == len(available) + len(missing)
    assert result.via_decode
    assert result.plan is None
    by_index = {s.index: s for s in result.shards}
    for j in missing:
        assert by_index[j].data == shards[j].data


def test_repair_fallback_rebuilds_a_column_from_an_erased_earlier_one(monkeypatch):
    """simplex:4's encode schedule builds shard 10 (column 7) as shard 7
    (column 6) XOR fragment 0.  With both erased and the plan stalled, the
    decode fallback rebuilds shard 7 before it reads it for shard 10."""
    code = parse_code_id("simplex:4")
    cols = code.cols
    assert (cols[7], cols[10]) == (6, 7)
    assert dict(storage._encode_steps(code.generator))[10] == (7, code.n)
    manifest, shards = encode_object(code, random.Random(8).randbytes(1000))
    monkeypatch.setattr(storage, "easy_repair_plan", _always_stall)
    result = repair_shards(manifest, [sh for sh in shards if sh.index not in {7, 10}], {7, 10})
    assert result.via_decode
    assert result.shards == (shards[7], shards[10])


def test_repair_not_correctable():
    manifest, shards = encode_object(simplex_code(3), b"payload!")
    with pytest.raises(NotCorrectable):
        repair_shards(manifest, shards[:2], set(range(2, 7)))


def test_um_horizon_zero_matches_tap_pair_block():
    payload = b"streaming bits"
    manifest, shards = encode_object(um_block_code(2, 0), payload)
    assert manifest.code == "um:2:0"
    assert manifest.s == 0
    assert len(shards) == 12
    assert decode_object(manifest, shards) == payload


def test_um_shard_count_and_convolution_identity():
    g0, g1 = um_taps(2)
    rng = random.Random(17)
    payload = bytes(rng.randrange(256) for _ in range(64))
    manifest, shards = encode_object(um_block_code(2, 1), payload)
    assert len(shards) == 18
    # the trailing half block of zero columns stores zero shards
    assert all(shards[j].data == bytes(manifest.fragment_length) for j in (15, 16, 17))
    frag_len = manifest.fragment_length
    padded = payload.ljust(4 * frag_len, b"\x00")
    frags = [padded[i * frag_len : (i + 1) * frag_len] for i in range(4)]

    def block_encode(tap, u):
        out = []
        for col in tap:
            acc = 0
            for i in range(2):
                if (col >> i) & 1:
                    acc ^= int.from_bytes(u[i], "little")
            out.append(acc)
        return out

    zero = [bytes(frag_len)] * 2
    blocks = [frags[0:2], frags[2:4]]
    for t in range(3):
        u_now = blocks[t] if t < 2 else zero
        u_prev = blocks[t - 1] if 1 <= t <= 2 else zero
        now = block_encode(g0, u_now)
        prev = block_encode(g1, u_prev)
        for j in range(6):
            expect = (now[j] ^ prev[j]).to_bytes(frag_len, "little")
            assert shards[t * 6 + j].data == expect


@pytest.mark.parametrize("code_id", FAMILIES)
def test_round_trip_over_random_correctable_subsets(code_id):
    code = parse_code_id(code_id)
    rng = random.Random(zlib.crc32(code_id.encode()))
    for length in (1, max(code.k - 1, 1), code.k, 1000):
        payload = bytes(rng.randrange(256) for _ in range(length))
        manifest, shards = encode_object(code, payload)
        for _ in range(5):
            while True:
                live = [j for j in range(code.n) if rng.random() < 0.7]
                pattern = ErasurePattern(code.n, frozenset(set(range(code.n)) - set(live)))
                if is_correctable(code, pattern):
                    break
            assert decode_object(manifest, [shards[j] for j in live]) == payload


@pytest.mark.parametrize("code_id", ["simplex:4", "um:2:2"])
def test_decode_recipe_matches_solve_right(code_id):
    """Fragment i of the recipe is the unique solution of live_sub @ x = e_i
    supported on the first independent live columns in (weight, index)
    order, which solve_right finds with its free variables set to zero."""
    code = parse_code_id(code_id)
    cols = code.cols
    rng = random.Random(31)
    for _ in range(20):
        while True:
            live = tuple(j for j in range(code.n) if rng.random() < 0.5)
            pattern = ErasurePattern(code.n, frozenset(set(range(code.n)) - set(live)))
            if is_correctable(code, pattern):
                break
        order = sorted(live, key=lambda j: (cols[j].bit_count(), j))
        live_sub = select_columns(code.generator, order)
        transposed = BitMatrix(live_sub.cols, live_sub.rows, live_sub.columns_bits())
        for i, indices in enumerate(_live_recipe(code_id, tuple(sorted(pattern.erased)))):
            x = solve_right(transposed, 1 << i)
            assert indices == tuple(order[p] for p in range(len(order)) if (x >> p) & 1)
        kept = live[: code.k - 1]
        assert _live_recipe(code_id, tuple(j for j in range(code.n) if j not in kept)) is None


@given(st.data())
def test_xor_steps_match_a_step_by_step_reference(data):
    """Chained steps, where a target is a source of later steps, give what
    XORing each step's byte strings afresh gives."""
    length = data.draw(st.integers(1, 12))
    chunk = st.binary(min_size=length, max_size=length)
    pool = dict(enumerate(data.draw(st.lists(chunk, min_size=1, max_size=5))))
    expected = dict(pool)
    steps = []
    for target in range(len(pool), len(pool) + data.draw(st.integers(0, 8))):
        sources = data.draw(st.lists(st.sampled_from(sorted(expected)), unique=True, max_size=4))
        sources = tuple(sources)
        steps.append((target, sources))
        expected[target] = xor_bytes((expected[s] for s in sources), length)
    _run_xor_steps(pool, steps, length)
    assert pool == expected


def _custom_code(k: int, columns: list[int]) -> LinearCode:
    rows = tuple(sum(((c >> i) & 1) << j for j, c in enumerate(columns)) for i in range(k))
    code_id = f"test:{k}:" + ",".join(map(str, columns))
    return LinearCode(code_id, "custom", k, len(columns), BitMatrix(k, len(columns), rows))


@st.composite
def generators_with_odd_columns(draw):
    """A k-row generator mixing random, zero, unit and repeated columns."""
    k = draw(st.integers(1, 4))
    columns: list[int] = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["random", "zero", "unit", "repeat"]))
        if kind == "zero":
            columns.append(0)
        elif kind == "unit":
            columns.append(1 << draw(st.integers(0, k - 1)))
        elif kind == "repeat" and columns:
            columns.append(draw(st.sampled_from(columns)))
        else:
            columns.append(draw(st.integers(0, (1 << k) - 1)))
    return _custom_code(k, columns)


@given(generators_with_odd_columns(), st.binary(min_size=1, max_size=300), st.data())
def test_encode_decode_repair_match_the_column_rule(code, payload, data):
    """Encode equals the byte-by-byte column rule; decode from a random live
    set returns the payload when the set is correctable; repair rebuilds
    the erased shards of the encoding."""
    manifest, shards = encode_object(code, payload)
    assert [sh.data for sh in shards] == encode_by_columns(code.generator, payload)
    assert manifest.checksums == tuple(f"{zlib.crc32(sh.data):08x}" for sh in shards)
    live = data.draw(st.lists(st.sampled_from(range(code.n)), unique=True))
    erased = frozenset(range(code.n)) - set(live)
    available = [shards[j] for j in live]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(storage, "code_shape", lambda code_id: (code.n, code.k))
        mp.setattr(storage, "_code_for_id", lambda code_id: code)
        if not is_correctable(code, ErasurePattern(code.n, erased)):
            with pytest.raises(NotCorrectable):
                decode_object(manifest, available)
            return
        assert decode_object(manifest, available) == payload
        result = repair_shards(manifest, available, erased)
    assert result.shards == tuple(shards[j] for j in sorted(erased))


_CODE_ID_PIECES = st.one_of(
    st.sampled_from(["simplex", "c1", "c2", "um", "c0", "umx", "um2p4", "bogus"]),
    st.integers(-1, 5).map(str),
    st.text("abcxyz _-", max_size=4),
)
# one JSON value of each type but int
_WRONG_TYPES = (None, True, 1.5, "7", [7], {"7": 7})


def _another_code_of_the_same_shape(manifest: storage.ShardManifest, code_id: str) -> bool:
    """True iff code_id names a different generator with the manifest's n
    and fragment count: the manifest holds no payload digest, so such an
    id decodes to other bytes without any error."""
    try:
        other = parse_code_id(code_id)
    except ValueError:
        return False
    return (other.n == manifest.n and other.generator.rows == manifest.fragment_count()
            and other.generator != parse_code_id(manifest.code).generator)


@given(
    st.sampled_from(["simplex:2", "simplex:3", "c1:3", "c2:3", "um:2:1", "um2p4"]),
    st.binary(min_size=1, max_size=64),
    st.sampled_from(["flip", "truncate", "delete", "drop-key", "add-key", "mistype-key", "code"]),
    st.data(),
)
def test_one_injected_fault_gives_the_exact_payload_or_a_storage_error(code_id, payload, fault, data):
    """One shard or manifest fault: decode returns the exact payload and
    repair the exact shards, or each raises StorageError."""
    manifest, shards = encode_object(parse_code_id(code_id), payload)
    doc = json.loads(manifest_to_json(manifest))
    available = list(shards)
    i = data.draw(st.integers(0, manifest.n - 1), label="shard")
    if fault == "flip":
        bit = data.draw(st.integers(0, 8 * manifest.fragment_length - 1), label="bit")
        flipped = bytearray(shards[i].data)
        flipped[bit // 8] ^= 1 << bit % 8
        available[i] = Shard(i, bytes(flipped))
    elif fault == "truncate":
        cut = data.draw(st.integers(0, manifest.fragment_length - 1), label="length")
        available[i] = Shard(i, shards[i].data[:cut])
    elif fault == "delete":
        del available[i]
    elif fault == "add-key":
        doc[data.draw(st.text(max_size=8).filter(lambda key: key not in doc), label="key")] = 0
    else:
        key = "code" if fault == "code" else data.draw(st.sampled_from(sorted(doc)), label="key")
        if fault == "drop-key":
            del doc[key]
        elif fault == "mistype-key":
            doc[key] = data.draw(st.sampled_from([v for v in _WRONG_TYPES if type(v) is not type(doc[key])]))
        else:
            doc[key] = ":".join(data.draw(st.lists(_CODE_ID_PIECES, max_size=3), label="code"))
    try:
        tampered = manifest_from_json(json.dumps(doc))
    except StorageError:
        return
    try:
        got = decode_object(tampered, available)
    except StorageError:
        pass
    else:
        # the same-shape case is the known gap xfailed below
        assert got == payload or _another_code_of_the_same_shape(manifest, doc["code"])
    try:
        result = repair_shards(tampered, available, ())
    except StorageError:
        return
    assert all(sh == shards[sh.index] for sh in result.shards)


@pytest.mark.xfail(strict=True, reason="the manifest holds no payload digest")
def test_a_code_id_swapped_for_one_of_the_same_shape_is_caught():
    payload = bytes(range(1, 31))
    manifest, shards = encode_object(parse_code_id("simplex:3"), payload)
    swapped = dataclasses.replace(manifest, code="c2:3")
    with pytest.raises(StorageError):
        decode_object(swapped, shards)  # returns other bytes of the payload's length


@pytest.mark.parametrize("code_id, hashed, xors, made",
                         [("simplex:4", 5, 11, 11), ("um:2:3", 9, 19, 13)])
def test_encode_hashes_the_fragments_and_builds_columns_from_earlier_ones(
        monkeypatch, code_id, hashed, xors, made):
    """Encode hashes the fragments and one run of zeros, not the shards.  Each
    column of weight 2 or more that no earlier column equals is converted
    to bytes once, from an earlier column XOR one fragment where it can:
    simplex:4 has 11 such columns, each one XOR; um:2:3 has 13, of which
    15, 60 and 240 are built from their 4 fragments."""
    payload = random.Random(7).randbytes(4000)
    counted = _Counted(monkeypatch)
    manifest, shards = encode_object(parse_code_id(code_id), payload)
    assert (len(counted.hashed), counted.xors, counted.made) == (hashed, xors, made)
    assert manifest.checksums == tuple(f"{zlib.crc32(sh.data):08x}" for sh in shards)


def test_decode_converts_each_shard_at_most_once(monkeypatch):
    """um:2:3 with {9, 10, 15, 16} erased names 6 distinct shards 10 times in
    the recipe's XORs of two or more shards; each is converted to an int once."""
    payload = random.Random(5).randbytes(4000)
    manifest, shards = encode_object(parse_code_id("um:2:3"), payload)
    live = _distinct_copies(sh for sh in shards if sh.index not in {9, 10, 15, 16})
    counted = _Counted(monkeypatch)
    assert decode_object(manifest, live) == payload
    recipe = _live_recipe("um:2:3", (9, 10, 15, 16))
    xored = {j for indices in recipe if len(indices) > 1 for j in indices}
    assert sum(len(indices) for indices in recipe if len(indices) > 1) == 10
    assert _indices(counted.converted, live) == sorted(xored)
    assert len(xored) == 6


def test_decode_hashes_only_the_shards_it_reads(monkeypatch):
    """Intact um:2:3 passes the first shard of each unit column through,
    hashing those 8 and converting none.  With {0, 13} erased the recipe
    reads shard 3; a flipped bit there drops it, and the rebuilt recipe
    hashes one shard more, none twice."""
    payload = random.Random(6).randbytes(4000)
    code = parse_code_id("um:2:3")
    manifest, shards = encode_object(code, payload)
    shards = _distinct_copies(shards)
    cols = code.cols
    units = [min(j for j, col in enumerate(cols) if col == 1 << i) for i in range(code.k)]
    counted = _Counted(monkeypatch)
    assert decode_object(manifest, shards) == payload
    assert _indices(counted.hashed, shards) == units == [0, 1, 9, 10, 15, 16, 21, 22]
    assert counted.converted == []

    counted.hashed.clear()
    flipped = bytearray(shards[3].data)
    flipped[0] ^= 1
    live = [Shard(3, bytes(flipped)) if sh.index == 3 else sh
            for sh in shards if sh.index not in {0, 13}]
    assert decode_object(manifest, live) == payload
    assert _indices(counted.hashed, live) == [1, 2, 3, 9, 10, 15, 16, 21, 22]


def _outcome(call):
    """call()'s result, or the type and message of the StorageError it raised."""
    try:
        return call()
    except StorageError as exc:
        return type(exc), str(exc)


@given(st.sampled_from(FAMILIES), st.binary(min_size=1, max_size=200), st.data())
def test_decode_matches_the_eager_reference_under_shard_faults(code_id, payload, data):
    """Decode that hashes only what its recipe reads gives the bytes, or the
    error type and message, of a reference that hashes every shard first:
    on a correctable live set with 0-3 shards bit-flipped or truncated."""
    code = parse_code_id(code_id)
    manifest, shards = encode_object(code, payload)
    order = data.draw(st.permutations(range(code.n)), label="order")
    size = next(e for e in range(code.n + 1)
                if is_correctable(code, ErasurePattern(code.n, frozenset(order[e:]))))
    live = sorted(order[: data.draw(st.integers(size, code.n), label="live")])
    reads = sorted({j for indices in _live_recipe(code_id, tuple(sorted(order[len(live):]))) for j in indices})
    targets = data.draw(st.lists(st.sampled_from(reads) | st.sampled_from(live),
                                 unique=True, max_size=3), label="faulty")
    available = {j: shards[j] for j in live}
    for j in targets:
        if data.draw(st.booleans(), label="flip"):
            bit = data.draw(st.integers(0, 8 * manifest.fragment_length - 1), label="bit")
            flipped = bytearray(shards[j].data)
            flipped[bit // 8] ^= 1 << bit % 8
            available[j] = Shard(j, bytes(flipped))
        else:
            cut = data.draw(st.integers(0, manifest.fragment_length - 1), label="length")
            available[j] = Shard(j, shards[j].data[:cut])
    supplied = list(available.values())
    expected = _outcome(lambda: decode_by_solving(manifest, code.generator, supplied))
    assert _outcome(lambda: decode_object(manifest, supplied)) == expected
    assert expected == payload or expected[0] is NotCorrectable


# sha256 of the manifest JSON and every shard's bytes of a 1001-byte payload,
# a length no code's fragment count divides: the shard bytes are the on-disk
# format, so a change to the data path must leave them unchanged
PINNED_ENCODINGS = {
    "simplex:3": "d7c02d9cb449f8a356e74ead0ff514b2b13cb22b4e44c1641f4207220c202980",
    "c1:4": "112b43291fcfe8bb3f14618c58359c3382e763793cc6c3dc7d87b13eac5b6749",
    "c2:5": "4c3202e792bf8b8b7a537737c3133fce9aba40c68ceebe9584a60100b450317e",
    "um:2:2": "39acd34b9479b74f136ab0d981f88322bfe96e258aee86918d193db338ff9a2b",
    "umx:6:3": "d15492dbff55b751b97756a73bcebe04d11f3f56032b7104261aaffe13dbf10b",
    "c0:6:2": "979ff1f0a75547f79d10bb53949c410dd9a2eae5b672f54b5c2807af96781c5e",
    "um2p4": "85b8575fd0e08ff0661302f90146d20f4d8b9d0c715b2e7b25bbba97894f8b94",
}


def test_shard_bytes_are_pinned():
    rng = random.Random(10)
    payload = bytes(rng.randrange(256) for _ in range(1001))
    for code_id, digest in PINNED_ENCODINGS.items():
        manifest, shards = encode_object(parse_code_id(code_id), payload)
        h = hashlib.sha256(manifest_to_json(manifest).encode())
        for sh in shards:
            h.update(sh.data)
        assert h.hexdigest() == digest, code_id


@pytest.mark.parametrize("length", [1, 4095, 65536, 65537, 3 * 65536 + 5])
def test_zero_crc_matches_the_crc_of_a_zero_string(length):
    assert storage._zero_crc(length) == zlib.crc32(bytes(length))


def _traced_peak(call):
    """call()'s result and the peak traced memory while it ran, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Peak traced memory over the payload size may not pass that of the earlier
# per-column XOR loops: 5.100/4.818 encode, 3.267/3.134 decode and
# 1.050/0.525 repair on simplex:4/um:2:3, rounded up to two decimals.
# simplex:8 (255 columns) guards how long a long encode keeps ints alive;
# its bounds are the peaks of encode from whole columns, 33.020 encode,
# 1.279 decode and 3.155 repair on a 1 MiB payload, rounded up likewise.
PEAK_PAYLOAD_BYTES = {"simplex:4": 8 << 20, "um:2:3": 8 << 20, "simplex:8": 1 << 20}


@pytest.mark.parametrize(
    "code_id, erased, bounds",
    [
        ("simplex:4", {0, 7}, (5.11, 3.27, 1.06)),
        ("um:2:3", {0, 13}, (4.82, 3.14, 0.53)),
        ("simplex:8", {0, 7}, (33.03, 1.28, 3.16)),
    ],
)
def test_peak_memory_stays_under_the_per_column_loops(code_id, erased, bounds):
    payload = random.Random(1).randbytes(PEAK_PAYLOAD_BYTES[code_id])
    code = parse_code_id(code_id)
    (manifest, shards), encode_peak = _traced_peak(lambda: encode_object(code, payload))
    live = [sh for sh in shards if sh.index not in erased]
    _, decode_peak = _traced_peak(lambda: decode_object(manifest, live))
    _, repair_peak = _traced_peak(lambda: repair_shards(manifest, live, erased))
    peaks = (encode_peak, decode_peak, repair_peak)
    assert all(peak <= bound * len(payload) for peak, bound in zip(peaks, bounds)), peaks


@given(st.binary(min_size=1, max_size=40), st.binary(min_size=1, max_size=40))
def test_encoding_is_linear(p1, p2):
    code = simplex_code(3)
    n = max(len(p1), len(p2))
    a = p1.ljust(n, b"\x00")
    b = p2.ljust(n, b"\x00")
    xored = bytes(x ^ y for x, y in zip(a, b))
    _, sa = encode_object(code, a)
    _, sb = encode_object(code, b)
    _, sx = encode_object(code, xored)
    for j in range(code.n):
        assert sx[j].data == bytes(x ^ y for x, y in zip(sa[j].data, sb[j].data))


def test_checksums_catch_every_single_bit_flip():
    manifest, shards = encode_object(simplex_code(3), b"abcdef")
    for shard in shards:
        for byte_pos in range(len(shard.data)):
            for bit in range(8):
                flipped = bytearray(shard.data)
                flipped[byte_pos] ^= 1 << bit
                crc = f"{zlib.crc32(bytes(flipped)) & 0xFFFFFFFF:08x}"
                assert crc != manifest.checksums[shard.index]


def test_manifest_json_schema():
    manifest, _ = encode_object(simplex_code(3), b"abc")
    doc = json.loads(manifest_to_json(manifest))
    assert list(doc) == [
        "format_version",
        "code",
        "n",
        "k",
        "s",
        "payload_length",
        "fragment_length",
        "checksums",
    ]
    assert doc["format_version"] == 1
    assert doc["s"] is None
    assert len(doc["checksums"]) == 7
    assert all(len(c) == 8 for c in doc["checksums"])
    assert manifest_from_json(manifest_to_json(manifest)) == manifest


def test_manifest_records_horizon_for_stream_codes():
    manifest, _ = encode_object(um_block_code(2, 2), b"abcdefgh")
    doc = json.loads(manifest_to_json(manifest))
    assert doc["s"] == 2
    assert doc["k"] == 2
    assert manifest.fragment_count() == 6


def test_directory_layout(tmp_path):
    manifest, shards = encode_object(simplex_code(3), b"on disk")
    write_object_dir(tmp_path, manifest, shards)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["manifest.json"] + [shard_filename(i) for i in range(7)]
    assert read_manifest(tmp_path) == manifest
    got = read_available_shards(tmp_path, manifest)
    assert [s.data for s in got] == [s.data for s in shards]
    (tmp_path / shard_filename(3)).unlink()
    got = read_available_shards(tmp_path, manifest, exclude=[0])
    assert [s.index for s in got] == [1, 2, 4, 5, 6]
    write_shards(tmp_path, [shards[3]])
    assert (tmp_path / shard_filename(3)).read_bytes() == shards[3].data
    assert not list(tmp_path.glob("*.tmp"))


def test_atomic_write_syncs_before_rename(tmp_path, monkeypatch):
    pending_at_sync = []
    real_fsync = storage.os.fsync

    def fsync(fd):
        pending_at_sync.append([p.name for p in tmp_path.glob("*.tmp")])
        real_fsync(fd)

    monkeypatch.setattr(storage.os, "fsync", fsync)
    manifest, shards = encode_object(simplex_code(3), b"durable")
    write_object_dir(tmp_path, manifest, shards)
    expected = ["manifest.json.tmp"] + [shard_filename(i) + ".tmp" for i in range(7)]
    assert pending_at_sync == [[name] for name in expected]
    assert not list(tmp_path.glob("*.tmp"))
