"""Command-line interface.

One verb per capability: gen, encode, decode, repair, plan, availability,
distance, verify, simulate, table.  Exit status 0 on success or a true
verdict, 1 on a failed verification, an uncorrectable pattern, a storage
error or running out of memory, 2 on usage errors.  Randomized commands
require an explicit --seed.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from itertools import chain
from pathlib import Path

from . import metrics, storage
from .codes import InvalidCodeId, parse_code_id, simplex_parity_rows
from .gf2 import TooLarge, format_matrix
from .metrics import Exhaustive, Sampled
from .repair import (
    ErasurePattern,
    RepairFailure,
    availability_profile,
    easy_repair_plan,
    format_plan,
    parallel_repair_plan,
)


def _parse_csv_indices(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(tok) for tok in text.split(",")]


def _add_code(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--code", required=required, help="code id, e.g. simplex:3 or um:2:3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simplexor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="print a generator matrix (and parity check for simplex)")
    _add_code(p)
    p.add_argument("--print", action="store_true", dest="do_print",
                   help="print to stdout (default when --out is absent)")
    p.add_argument("--out", help="write the matrix text to this file")

    p = sub.add_parser("encode", help="encode a payload file into a shard directory")
    _add_code(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dir", required=True)

    p = sub.add_parser("decode", help="recover the payload from available shards")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--erased", default="", help="csv of indices to treat as erased")

    p = sub.add_parser("repair", help="regenerate missing shard files in place")
    _add_code(p, required=False)
    p.add_argument("--dir", required=True)
    p.add_argument("--missing", required=True, help="csv of shard indices to regenerate")

    p = sub.add_parser("plan", help="print a repair plan for an erasure pattern")
    _add_code(p)
    p.add_argument("--erased", required=True, help="csv of erased node indices")
    p.add_argument("--r", type=int, help="parallel repair with this helper bound")

    p = sub.add_parser("availability", help="disjoint repair-group availability")
    _add_code(p)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--format", choices=("tsv", "text"), default="text")

    p = sub.add_parser("distance", help="exact minimum distance by brute force")
    _add_code(p)

    p = sub.add_parser("verify", help="sweep a repair theorem; exit 0 iff it holds")
    _add_code(p)
    p.add_argument("--r", type=int, help="verify parallel r-repair instead of easy repair")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--max-erasures", type=int, dest="max_erasures",
                   help="erasure-count cap (easy repair) or exact count (parallel)")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("simulate", help="seeded Monte Carlo repair statistics")
    _add_code(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-erasures", type=int, dest="max_erasures", required=True,
                   help="number of erasures drawn per trial")
    p.add_argument("--r", type=int, default=2, help="largest parallel bound to report")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("table", help="n/d/ratio comparison table for dimension k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("tsv", "text"), default="tsv")

    return parser


def _usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _cmd_gen(args) -> int:
    code = parse_code_id(args.code)
    g = code.generator
    lines = format_matrix(g.rows, g.cols, g.row_bits)
    if code.family == "simplex":
        parity = format_matrix(code.n - code.k, code.n, simplex_parity_rows(code.k))
        lines = chain(lines, [""], parity)
    with open(args.out, "w") if args.out else nullcontext() as out:
        for line in lines:
            if out:
                out.write(line + "\n")
            if args.do_print or not out:
                sys.stdout.write(line + "\n")
    return 0


def _cmd_encode(args) -> int:
    code = parse_code_id(args.code)
    payload = Path(args.infile).read_bytes()
    manifest, shards = storage.encode_object(code, payload)
    storage.write_object_dir(args.dir, manifest, shards)
    print(f"wrote {len(shards)} shards to {args.dir}")
    return 0


def _cmd_decode(args) -> int:
    manifest = storage.read_manifest(args.dir)
    erased = _parse_csv_indices(args.erased)
    if not all(0 <= i < manifest.n for i in erased):
        raise storage.StorageError("erased index out of range")
    shards = storage.read_available_shards(args.dir, manifest, exclude=erased)
    try:
        payload = storage.decode_object(manifest, shards)
    except storage.NotCorrectable as exc:
        print(f"not correctable: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_bytes(payload)
    print(f"recovered {len(payload)} bytes")
    return 0


def _cmd_repair(args) -> int:
    manifest = storage.read_manifest(args.dir)
    if args.code and args.code != manifest.code:
        return _usage(f"--code {args.code} does not match manifest code {manifest.code}")
    missing = _parse_csv_indices(args.missing)
    shards = storage.read_available_shards(args.dir, manifest, exclude=missing)
    try:
        result = storage.repair_shards(manifest, shards, missing)
    except storage.NotCorrectable as exc:
        print(f"not correctable: {exc}", file=sys.stderr)
        return 1
    storage.write_shards(args.dir, result.shards)
    if result.plan is not None:
        print(format_plan(result.plan))
    else:
        print("# mode: decode")
    return 0


def _cmd_plan(args) -> int:
    code = parse_code_id(args.code)
    erased = _parse_csv_indices(args.erased)
    pattern = ErasurePattern.from_erased(code.n, erased)
    outcome = (
        parallel_repair_plan(code, pattern, args.r)
        if args.r is not None
        else easy_repair_plan(code, pattern)
    )
    if isinstance(outcome, RepairFailure):
        residual = ",".join(str(i) for i in outcome.residual.erased_sorted())
        print(f"# failure residual={residual}", file=sys.stderr)
        return 1
    print(format_plan(outcome))
    return 0


def _cmd_availability(args) -> int:
    code = parse_code_id(args.code)
    profile = availability_profile(code, args.r)
    if args.format == "tsv":
        print("r\tt")
        for r, t in profile.code_level:
            print(f"{r}\t{t}")
    else:
        for r, t in profile.code_level:
            print(f"r={r} t={t}")
    return 0


def _cmd_distance(args) -> int:
    code = parse_code_id(args.code)
    print(metrics.min_distance(code))
    return 0


def _cmd_verify(args) -> int:
    code = parse_code_id(args.code)
    sampled = args.seed is not None or args.trials is not None
    if sampled:
        if args.exhaustive:
            return _usage("--exhaustive takes no --seed or --trials")
        if args.seed is None or args.trials is None:
            return _usage("sampled verification requires both --seed and --trials")
        if args.r is None and args.max_erasures is not None:
            return _usage("sampled easy-repair verification takes no --max-erasures")
        mode = Sampled(args.seed, args.trials)
    elif args.exhaustive:
        mode = Exhaustive(args.max_erasures if args.r is None else None)
    else:
        return _usage("choose --exhaustive or --seed/--trials")
    try:
        if args.r is not None:
            if args.max_erasures is None:
                return _usage("parallel verification requires --max-erasures")
            report = metrics.verify_parallel_capacity(
                code, args.r, args.max_erasures, mode, workers=args.workers
            )
        else:
            report = metrics.verify_easy_repair_property(code, mode, workers=args.workers)
    except TooLarge as exc:
        return _usage(str(exc))
    verdict = "PASS" if report.verdict else "FAIL"
    print(
        f"{verdict} {report.code_id} {report.checked}: examined={report.patterns_examined}"
        f" correctable={report.correctable} repaired={report.repaired}"
    )
    if report.counterexample is not None:
        print("# counterexample erased=" + ",".join(str(i) for i in report.counterexample))
        pattern = ErasurePattern.from_erased(code.n, report.counterexample)
        if args.r is not None:
            attempt = parallel_repair_plan(code, pattern, args.r)
            header = f"# mode: parallel r={args.r} (stalled)"
        else:
            attempt = easy_repair_plan(code, pattern)
            header = "# mode: sequential (stalled)"
        if isinstance(attempt, RepairFailure):
            print(header)
            for step in attempt.steps:
                print(f"repair {step.target} <- " + "+".join(str(h) for h in step.helpers))
    return 0 if report.verdict else 1


def _cmd_simulate(args) -> int:
    code = parse_code_id(args.code)
    if args.r < 1:
        return _usage("--r must be >= 1")
    r_values = tuple(range(1, args.r + 1))
    report = metrics.monte_carlo_repair(
        code,
        args.trials,
        args.max_erasures,
        args.seed,
        r_values=r_values,
        workers=args.workers,
    )
    print(metrics.format_simulation(report))
    return 0


def _cmd_table(args) -> int:
    rows = metrics.comparison_table(args.k)
    if args.format == "tsv":
        print(metrics.format_table_tsv(rows))
    else:
        print(metrics.format_table_text(rows))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "repair": _cmd_repair,
    "plan": _cmd_plan,
    "availability": _cmd_availability,
    "distance": _cmd_distance,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "table": _cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InvalidCodeId, ValueError) as exc:
        return _usage(str(exc))
    except (storage.StorageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # print only once the handler is left: until then its traceback
        # holds the failed command's frames and all the memory they took
        pass
    print(f"error: out of memory in {args.command}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
