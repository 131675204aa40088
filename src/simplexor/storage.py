"""Byte-payload encoding, decoding and shard repair on disk.

Each byte position of the payload is treated as an independent symbol
vector, so the whole pipeline is XOR of equal-length byte strings driven
by the generator's 0/1 columns.  Fragments are zero-padded to a common
length and the manifest records the true payload length for exact-length
recovery.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

from .codes import InvalidCodeId, LinearCode, code_shape, parse_code_id
from .gf2 import BitMatrix, reduce_rows, transpose
from .repair import (
    ErasurePattern,
    RepairFailure,
    RepairPlan,
    easy_repair_plan,
    is_correctable,
)

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1


class StorageError(Exception):
    pass


class EmptyPayload(StorageError, ValueError):
    pass


class NotCorrectable(StorageError):
    """The available shard set cannot determine the payload."""


class ChecksumMismatch(StorageError):
    pass


@dataclass(frozen=True)
class Shard:
    index: int
    data: bytes


@dataclass(frozen=True)
class ShardManifest:
    format_version: int
    code: str
    n: int
    k: int
    s: int | None
    payload_length: int
    fragment_length: int
    checksums: tuple[str, ...]

    def fragment_count(self) -> int:
        return self.k if self.s is None else (self.s + 1) * self.k


@dataclass(frozen=True)
class RepairResult:
    shards: tuple[Shard, ...]
    plan: RepairPlan | None
    via_decode: bool


def _crc(data: bytes) -> str:
    return f"{zlib.crc32(data):08x}"


_ZEROS = memoryview(bytes(1 << 16))


def _zero_crc(length: int) -> int:
    """zlib.crc32(bytes(length)), chained over one fixed block of zeros."""
    crc = 0
    full, rest = divmod(length, len(_ZEROS))
    for _ in range(full):
        crc = zlib.crc32(_ZEROS, crc)
    return zlib.crc32(_ZEROS[:rest], crc)


_MANIFEST_TYPES = {
    "format_version": int,
    "code": str,
    "n": int,
    "k": int,
    "s": int,
    "payload_length": int,
    "fragment_length": int,
    "checksums": list,
}


def manifest_to_json(m: ShardManifest) -> str:
    return json.dumps(asdict(m), indent=2) + "\n"


def manifest_from_json(text: str) -> ShardManifest:
    """Parse and validate a manifest; any defect raises StorageError."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise StorageError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StorageError("manifest is not a JSON object")
    for key, kind in _MANIFEST_TYPES.items():
        if key not in doc:
            raise StorageError(f"manifest lacks {key!r}")
        value = doc[key]
        if type(value) is not kind and not (key == "s" and value is None):
            raise StorageError(f"manifest {key!r} must be of type {kind.__name__}")
    checksums = doc["checksums"]
    if not all(type(c) is str for c in checksums):
        raise StorageError("manifest checksums must be strings")
    fields = {key: doc[key] for key in _MANIFEST_TYPES}
    fields["checksums"] = tuple(checksums)
    m = ShardManifest(**fields)
    if m.format_version != FORMAT_VERSION:
        raise StorageError(f"unsupported manifest format_version {m.format_version}")
    if len(m.checksums) != m.n:
        raise StorageError(f"manifest has {len(m.checksums)} checksums for n={m.n}")
    if not 0 < m.payload_length <= m.fragment_count() * m.fragment_length:
        raise StorageError(f"manifest payload_length {m.payload_length} does not fit its fragments")
    return m


def _run_xor_steps(
    pool: dict[int, bytes], steps: Sequence[tuple[int, tuple[int, ...]]], length: int
) -> None:
    """For each (target, sources) step in order, set pool[target] to the XOR
    of the sources' ``length``-byte strings.  Each source becomes an int at
    most once, kept only until the last step that XORs it; one source
    passes through as bytes and none gives zero bytes."""
    last_read = {s: t for t, (_, sources) in enumerate(steps) if len(sources) > 1
                 for s in sources}
    ints: dict[int, int] = {}
    for t, (target, sources) in enumerate(steps):
        if len(sources) < 2:
            pool[target] = pool[sources[0]] if sources else bytes(length)
            continue
        acc = value = None
        for s in sources:
            value = ints.pop(s, None)
            if value is None:
                value = int.from_bytes(pool[s], "little")
            if last_read[s] > t:
                ints[s] = value
            acc = value if acc is None else acc ^ value
        value = None  # a dropped source's int is freed before to_bytes allocates
        pool[target] = acc.to_bytes(length, "little")
        if last_read.get(target, -1) > t:
            ints[target] = acc


@lru_cache(maxsize=32)
def _encode_steps(generator: BitMatrix) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Shard j holds column j, the XOR of the fragments (keys n + i) in it,
    built in column order.  A column equal to a fragment or an earlier
    column passes that key through; one that is an earlier column plus its
    lowest fragment XORs those two; any other XORs its fragments."""
    n, count = generator.cols, generator.rows
    built = {1 << i: n + i for i in range(count)}  # column value -> key holding it
    steps = []
    for j, col in enumerate(generator.columns_bits()):
        low = col & -col
        if col in built:
            sources = (built[col],)
        elif col ^ low in built:
            sources = (built[col ^ low], n + low.bit_length() - 1)
        else:
            sources = tuple(n + i for i in range(count) if (col >> i) & 1)
        built.setdefault(col, j)
        steps.append((j, sources))
    return tuple(steps)


def _manifest_k(code: LinearCode) -> int:
    """The manifest's k: a stream code records its block dimension (and its
    horizon as s)."""
    return code.k if code.s is None else code.base_k


def encode_object(code: LinearCode, payload: bytes) -> tuple[ShardManifest, list[Shard]]:
    """Split the payload into zero-padded fragments, one per generator row,
    and emit one shard per node: the XOR of the fragments in its column.

    Only the fragments and the zeros (``_zero_crc``) are hashed.  CRC-32 is
    affine over GF(2): for equal lengths crc(a ^ b) = crc(a) ^ crc(b) ^
    crc(zeros), so a shard's CRC is the XOR of its sources' CRCs, and of the
    zeros' when the sources are even in number (none included)."""
    if not payload:
        raise EmptyPayload("payload must be nonempty")
    n, count = code.generator.cols, code.generator.rows
    frag_len = -(-len(payload) // count)
    # fragment i sits at key n + i, after the shard keys 0..n-1
    pool = {
        n + i: payload[i * frag_len : (i + 1) * frag_len].ljust(frag_len, b"\x00")
        for i in range(count)
    }
    crcs = {key: zlib.crc32(data) for key, data in pool.items()}
    zero_crc = _zero_crc(frag_len)
    steps = _encode_steps(code.generator)
    for target, sources in steps:
        crc = 0 if len(sources) % 2 else zero_crc
        for s in sources:
            crc ^= crcs[s]
        crcs[target] = crc
    _run_xor_steps(pool, steps, frag_len)
    shards = [Shard(j, pool[j]) for j in range(n)]
    manifest = ShardManifest(
        format_version=FORMAT_VERSION,
        code=code.code_id,
        n=n,
        k=_manifest_k(code),
        s=code.s,
        payload_length=len(payload),
        fragment_length=frag_len,
        checksums=tuple(f"{crcs[j]:08x}" for j in range(n)),
    )
    return manifest, shards


@lru_cache(maxsize=32)
def _code_for_id(code_id: str) -> LinearCode:
    return parse_code_id(code_id)


def _resolve_code(manifest: ShardManifest) -> LinearCode:
    """The manifest's code, built only once the n and k its id names match
    the manifest's n and fragment count."""
    try:
        fits = code_shape(manifest.code) == (manifest.n, manifest.fragment_count())
        code = _code_for_id(manifest.code) if fits else None
    except InvalidCodeId as exc:
        raise StorageError(f"manifest code: {exc}") from exc
    if code is None or (manifest.k, manifest.s) != (_manifest_k(code), code.s):
        raise StorageError(f"manifest n={manifest.n}, k={manifest.k}, s={manifest.s} "
                           f"does not match code {manifest.code}")
    return code


def _sized_shards(manifest: ShardManifest, available: Iterable[Shard]) -> dict[int, bytes]:
    """Shard data by index, leaving out every shard of the wrong length: a
    short or long shard counts as erased.  Checksums are left to the caller."""
    seen: set[int] = set()
    pool: dict[int, bytes] = {}
    for sh in available:
        if not 0 <= sh.index < manifest.n:
            raise StorageError(f"shard index {sh.index} out of range")
        if sh.index in seen:
            raise StorageError(f"duplicate shard index {sh.index}")
        seen.add(sh.index)
        if len(sh.data) == manifest.fragment_length:
            pool[sh.index] = sh.data
    return pool


@lru_cache(maxsize=256)
def _live_recipe(code_id: str, erased: tuple[int, ...]) -> tuple[tuple[int, ...], ...] | None:
    """Per fragment, the shard indices outside ``erased`` whose XOR gives it, or None.

    One elimination of [live_sub | I], its columns in (weight, index) order,
    finds pivot positions p_t and the transform T with T @ live_sub in
    reduced form; fragment i is then the XOR of the live shards at the
    pivots selected by column i of T.  So a live unit column passes its
    shard through, and an erased fragment comes from low-weight columns.
    Built once per code and erased set, a key that stays small on long codes.
    """
    code = _code_for_id(code_id)
    cols = code.cols
    live = sorted(set(range(code.n)).difference(erased), key=lambda j: (cols[j].bit_count(), j))
    live_sub = transpose([cols[j] for j in live], code.k)
    k, width = code.k, len(live)
    aug = [row | 1 << (width + i) for i, row in enumerate(live_sub)]
    pivots = reduce_rows(aug, width)
    if len(pivots) < k:
        return None
    return tuple(
        tuple(live[pivots[t]] for t in range(k) if (aug[t] >> (width + i)) & 1)
        for i in range(k)
    )


def decode_object(manifest: ShardManifest, available: Iterable[Shard]) -> bytes:
    """Recover the exact payload from any correctable shard subset.

    Shards that fail their length or checksum test are treated as erased;
    only the shards the decode recipe reads are checksummed.
    """
    shards = _sized_shards(manifest, available)
    _resolve_code(manifest)
    frag_len, n, length = manifest.fragment_length, manifest.n, manifest.payload_length
    _decode_fragments(manifest, shards, set())
    needed = -(-length // frag_len)  # the fragments the payload reaches
    tail = memoryview(shards[n + needed - 1])[: length - (needed - 1) * frag_len]
    return b"".join([*(shards[n + i] for i in range(needed - 1)), tail])


def _decode_fragments(manifest: ShardManifest, shards: dict[int, bytes], checked: set[int]) -> None:
    """Set shards[n + i] to fragment i, from length-checked shards, ``checked``
    holding those known to match their checksums.  Each other shard the
    recipe reads is hashed once; one that fails is dropped and the recipe
    rebuilt for the smaller live set."""
    while True:
        recipe = _live_recipe(manifest.code, tuple(j for j in range(manifest.n) if j not in shards))
        reads = {j for indices in recipe for j in indices} if recipe else set(shards)
        bad = {j for j in reads - checked if _crc(shards[j]) != manifest.checksums[j]}
        if not bad:
            break
        checked |= reads
        for j in bad:
            del shards[j]
    if recipe is None:
        raise NotCorrectable(f"{len(shards)} shards do not span the message space")
    steps = [(manifest.n + i, indices) for i, indices in enumerate(recipe)]
    _run_xor_steps(shards, steps, manifest.fragment_length)


def repair_shards(
    manifest: ShardManifest, available: Iterable[Shard], missing: Iterable[int]
) -> RepairResult:
    """Regenerate erased shards, preferring XOR repair steps over a decode.

    Every index without a sound supplied shard counts as erased and is
    regenerated: absent shards, shards failing their length or checksum
    test, and every index listed in ``missing`` (a stale shard file can be
    forced erased that way).  Falls back to decode-and-re-encode when the
    greedy XOR repair stalls on a correctable pattern.
    """
    missing = set(missing)
    pool = _sized_shards(manifest, (sh for sh in available if sh.index not in missing))
    code = _resolve_code(manifest)
    pool = {j: data for j, data in pool.items() if _crc(data) == manifest.checksums[j]}
    erased = frozenset(set(range(manifest.n)) - set(pool))
    if not missing <= erased:
        raise StorageError("missing index out of range")
    pattern = ErasurePattern(manifest.n, erased)
    if not is_correctable(code, pattern):
        raise NotCorrectable("erasure pattern is beyond the code's capability")
    plan = easy_repair_plan(code, pattern)
    if isinstance(plan, RepairFailure):
        plan = None
        _decode_fragments(manifest, pool, set(pool))
        steps = [step for step in _encode_steps(code.generator) if step[0] in erased]
    else:
        steps = [(step.target, step.helpers) for step in plan.steps]
    _run_xor_steps(pool, steps, manifest.fragment_length)
    result = RepairResult(tuple(Shard(i, pool[i]) for i in sorted(erased)), plan, plan is None)
    for sh in result.shards:
        if _crc(sh.data) != manifest.checksums[sh.index]:
            raise ChecksumMismatch(f"repaired shard {sh.index} fails the manifest checksum")
    return result


# ---------------------------------------------------------------------------
# Directory layout


def shard_filename(index: int) -> str:
    return f"shard_{index:04d}.bin"


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def write_object_dir(dirpath: str | Path, manifest: ShardManifest, shards: Iterable[Shard]) -> None:
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    _atomic_write(d / MANIFEST_NAME, manifest_to_json(manifest).encode())
    for sh in shards:
        _atomic_write(d / shard_filename(sh.index), sh.data)


def read_manifest(dirpath: str | Path) -> ShardManifest:
    return manifest_from_json((Path(dirpath) / MANIFEST_NAME).read_text())


def read_available_shards(
    dirpath: str | Path, manifest: ShardManifest, exclude: Iterable[int] = ()
) -> list[Shard]:
    """All shard files present on disk, skipping excluded indices."""
    d = Path(dirpath)
    skip = set(exclude)
    out = []
    for index in range(manifest.n):
        if index in skip:
            continue
        p = d / shard_filename(index)
        if p.is_file():
            out.append(Shard(index, p.read_bytes()))
    return out


def write_shards(dirpath: str | Path, shards: Iterable[Shard]) -> None:
    d = Path(dirpath)
    for sh in shards:
        _atomic_write(d / shard_filename(sh.index), sh.data)
