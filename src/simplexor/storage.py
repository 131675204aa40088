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
from typing import Iterable

from .codes import LinearCode, parse_code_id
from .gf2 import BitMatrix, reduce_rows
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
    return f"{zlib.crc32(data) & 0xFFFFFFFF:08x}"


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


def _split_fragments(payload: bytes, count: int) -> tuple[list[int], int]:
    frag_len = -(-len(payload) // count)
    padded = payload.ljust(count * frag_len, b"\x00")
    frags = [
        int.from_bytes(padded[i * frag_len : (i + 1) * frag_len], "little")
        for i in range(count)
    ]
    return frags, frag_len


def _encode(generator: BitMatrix, code_id: str, k: int, s: int | None, payload: bytes):
    if not payload:
        raise EmptyPayload("payload must be nonempty")
    frags, frag_len = _split_fragments(payload, generator.rows)
    shards = []
    for j in range(generator.cols):
        colbits = generator.column_bits(j)
        acc = 0
        i = 0
        while colbits:
            if colbits & 1:
                acc ^= frags[i]
            colbits >>= 1
            i += 1
        shards.append(Shard(j, acc.to_bytes(frag_len, "little")))
    manifest = ShardManifest(
        format_version=FORMAT_VERSION,
        code=code_id,
        n=generator.cols,
        k=k,
        s=s,
        payload_length=len(payload),
        fragment_length=frag_len,
        checksums=tuple(_crc(sh.data) for sh in shards),
    )
    return manifest, shards


def encode_object(code: LinearCode, payload: bytes) -> tuple[ShardManifest, list[Shard]]:
    """Split the payload into k fragments and emit one shard per node."""
    if code.family == "um":
        return _encode(code.generator, code.code_id, code.base_k, code.s, payload)
    return _encode(code.generator, code.code_id, code.k, None, payload)


@lru_cache(maxsize=32)
def _code_for_id(code_id: str) -> LinearCode:
    return parse_code_id(code_id)


def _resolve_code(manifest: ShardManifest) -> LinearCode:
    code = _code_for_id(manifest.code)
    if code.n != manifest.n:
        raise StorageError(f"manifest n={manifest.n} does not match code {manifest.code}")
    if code.generator.rows != manifest.fragment_count():
        raise StorageError("manifest fragment count does not match code dimension")
    return code


def _sound_shards(manifest: ShardManifest, available: Iterable[Shard]) -> dict[int, bytes]:
    """Shard data by index, leaving out every shard that fails its length
    or checksum test: a corrupt shard counts as erased."""
    seen: set[int] = set()
    pool: dict[int, bytes] = {}
    for sh in available:
        if not 0 <= sh.index < manifest.n:
            raise StorageError(f"shard index {sh.index} out of range")
        if sh.index in seen:
            raise StorageError(f"duplicate shard index {sh.index}")
        seen.add(sh.index)
        if len(sh.data) == manifest.fragment_length and _crc(sh.data) == manifest.checksums[sh.index]:
            pool[sh.index] = sh.data
    return pool


def _decode_recipe(live_sub: BitMatrix) -> list[list[int]] | None:
    """Per-fragment XOR recipe over live column positions, or None.

    One elimination of [live_sub | I] finds pivot positions p_t and the
    transform T with T @ live_sub in reduced form; fragment i is then the
    XOR of the live shards at the pivots selected by column i of T.
    """
    k, width = live_sub.rows, live_sub.cols
    aug = [live_sub.row_bits[i] | (1 << (width + i)) for i in range(k)]
    pivots = reduce_rows(aug, width)
    if len(pivots) < k:
        return None
    recipe: list[list[int]] = [[] for _ in range(k)]
    for t in range(k):
        transform = aug[t] >> width
        for i in range(k):
            if (transform >> i) & 1:
                recipe[i].append(pivots[t])
    return recipe


@lru_cache(maxsize=256)
def _live_recipe(code_id: str, live: tuple[int, ...]) -> tuple[tuple[int, ...], ...] | None:
    """Per fragment, the live shard indices whose XOR gives it, or None;
    it depends only on the code and the live set, so it is built once."""
    recipe = _decode_recipe(_code_for_id(code_id).generator.select_columns(live))
    if recipe is None:
        return None
    return tuple(tuple(live[p] for p in positions) for positions in recipe)


def decode_object(manifest: ShardManifest, available: Iterable[Shard]) -> bytes:
    """Recover the exact payload from any correctable shard subset.

    Shards that fail their length or checksum test are treated as erased.
    """
    shards = _sound_shards(manifest, available)
    _resolve_code(manifest)
    recipe = _live_recipe(manifest.code, tuple(sorted(shards)))
    if recipe is None:
        raise NotCorrectable(f"{len(shards)} shards do not span the message space")
    frag_len = manifest.fragment_length
    out = bytearray()
    for indices in recipe:
        acc = 0
        for j in indices:
            acc ^= int.from_bytes(shards[j], "little")
        out += acc.to_bytes(frag_len, "little")
    return bytes(out[: manifest.payload_length])


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
    pool = _sound_shards(manifest, (sh for sh in available if sh.index not in missing))
    code = _resolve_code(manifest)
    erased = frozenset(set(range(manifest.n)) - set(pool))
    if not missing <= erased:
        raise StorageError("missing index out of range")
    pattern = ErasurePattern(manifest.n, erased)
    if not is_correctable(code, pattern):
        raise NotCorrectable("erasure pattern is beyond the code's capability")
    outcome = easy_repair_plan(code, pattern)
    if isinstance(outcome, RepairFailure):
        payload = decode_object(
            manifest, [Shard(i, data) for i, data in pool.items()]
        )
        _, fresh = encode_object(code, payload)
        repaired = tuple(fresh[i] for i in sorted(erased))
        result = RepairResult(repaired, None, True)
    else:
        for step in outcome.steps:
            acc = 0
            for h in step.helpers:
                acc ^= int.from_bytes(pool[h], "little")
            pool[step.target] = acc.to_bytes(manifest.fragment_length, "little")
        repaired = tuple(Shard(i, pool[i]) for i in sorted(erased))
        result = RepairResult(repaired, outcome, False)
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
