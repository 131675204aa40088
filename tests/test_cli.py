import hashlib
import json
import time
import tracemalloc
import weakref

import pytest

from simplexor import cli
from simplexor.cli import main

SIMPLEX3_GEN_OUTPUT = """\
3 7
1001101
0101011
0010111

4 7
1101000
1010100
0110010
1110001
"""


def run(capsys, *args):
    status = main(list(args))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_gen_simplex3_prints_generator_and_parity_check(capsys):
    status, out, _ = run(capsys, "gen", "--code", "simplex:3")
    assert status == 0
    assert out == SIMPLEX3_GEN_OUTPUT


def test_gen_writes_file(tmp_path, capsys):
    target = tmp_path / "g.txt"
    status, out, _ = run(capsys, "gen", "--code", "c1:3", "--out", str(target))
    assert status == 0
    assert out == ""
    assert target.read_text().startswith("3 6\n")


def test_gen_prints_what_it_writes(tmp_path, capsys):
    target = tmp_path / "g.txt"
    status, out, _ = run(capsys, "gen", "--code", "simplex:4", "--out", str(target), "--print")
    assert status == 0
    assert out == target.read_text()
    assert out.startswith("4 15\n") and "\n\n11 15\n" in out


def test_gen_streams_a_long_parity_check(tmp_path):
    """gen writes each line as it is made: the 4,083 x 4,095 parity check of
    simplex:12, 16 MB of text, is never held whole."""
    target = tmp_path / "g.txt"
    tracemalloc.start()
    try:
        status = main(["gen", "--code", "simplex:12", "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert target.stat().st_size == (12 + 4083) * 4096 + len("12 4095\n\n4083 4095\n")
    assert peak < 4 << 20


def test_gen_rejects_unknown_code(capsys):
    status, _, err = run(capsys, "gen", "--code", "nope:3")
    assert status == 2
    assert "nope:3" in err


@pytest.mark.parametrize("code", ["c2:100000", "um:2:1000000"])
def test_a_code_over_the_size_bound_is_usage_error_at_once(capsys, code):
    start = time.process_time()
    status, out, err = run(capsys, "plan", "--code", code, "--erased", "0")
    assert time.process_time() - start < 0.5
    assert status == 2
    assert err.startswith("error:") and code in err and "bound" in err
    assert out == ""


def test_encode_decode_repair_cycle(tmp_path, capsys):
    payload = tmp_path / "payload.bin"
    payload.write_bytes(bytes(range(200)))
    shard_dir = tmp_path / "shards"

    status, *_ = run(capsys, "encode", "--code", "simplex:3",
                     "--in", str(payload), "--dir", str(shard_dir))
    assert status == 0

    for index in (0, 1, 3, 5):
        (shard_dir / f"shard_{index:04d}.bin").unlink()
    status, out, _ = run(capsys, "repair", "--code", "simplex:3",
                         "--dir", str(shard_dir), "--missing", "0,1,3,5")
    assert status == 0
    assert out.splitlines()[0] == "# mode: sequential"
    assert len(out.splitlines()) == 5

    recovered = tmp_path / "out.bin"
    status, *_ = run(capsys, "decode", "--dir", str(shard_dir), "--out", str(recovered))
    assert status == 0
    assert recovered.read_bytes() == payload.read_bytes()


def test_decode_with_forced_erasures(tmp_path, capsys):
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"forced erasure test")
    shard_dir = tmp_path / "s"
    run(capsys, "encode", "--code", "simplex:3", "--in", str(payload), "--dir", str(shard_dir))
    out_file = tmp_path / "r.bin"
    status, *_ = run(capsys, "decode", "--dir", str(shard_dir),
                     "--out", str(out_file), "--erased", "0,1,3,5")
    assert status == 0
    assert out_file.read_bytes() == payload.read_bytes()


@pytest.mark.parametrize("command, flag", [("decode", "--erased"), ("repair", "--missing")])
@pytest.mark.parametrize("index", ["-1", "7"])
def test_shard_index_outside_the_code_is_an_error(tmp_path, capsys, command, flag, index):
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"index range")
    shard_dir = tmp_path / "s"
    run(capsys, "encode", "--code", "simplex:3", "--in", str(payload), "--dir", str(shard_dir))
    extra = ["--out", str(tmp_path / "r.bin")] if command == "decode" else []
    status, out, err = run(capsys, command, "--dir", str(shard_dir), *extra, flag, index)
    assert status == 1
    assert out == ""
    assert err.startswith("error: ") and "index out of range" in err
    assert not (tmp_path / "r.bin").exists()


def test_decode_uncorrectable_exits_one(tmp_path, capsys):
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"not enough shards")
    shard_dir = tmp_path / "s"
    run(capsys, "encode", "--code", "simplex:3", "--in", str(payload), "--dir", str(shard_dir))
    status, _, err = run(capsys, "decode", "--dir", str(shard_dir),
                         "--out", str(tmp_path / "r.bin"), "--erased", "2,3,4,5,6")
    assert status == 1
    assert "not correctable" in err


def test_corrupt_shard_is_decoded_around_and_rewritten(tmp_path, capsys):
    payload = tmp_path / "p.bin"
    payload.write_bytes(bytes(range(100)))
    shard_dir = tmp_path / "s"
    run(capsys, "encode", "--code", "simplex:3", "--in", str(payload), "--dir", str(shard_dir))
    shard2 = shard_dir / "shard_0002.bin"
    good = shard2.read_bytes()
    shard2.write_bytes(bytes([good[0] ^ 1]) + good[1:])
    out_file = tmp_path / "r.bin"
    status, *_ = run(capsys, "decode", "--dir", str(shard_dir), "--out", str(out_file))
    assert status == 0
    assert out_file.read_bytes() == payload.read_bytes()
    status, out, _ = run(capsys, "repair", "--dir", str(shard_dir), "--missing", "0")
    assert status == 0
    assert out.splitlines()[0] == "# mode: sequential"
    assert shard2.read_bytes() == good


@pytest.mark.parametrize(
    "tamper",
    [
        lambda doc: {key: v for key, v in doc.items() if key != "fragment_length"},
        lambda doc: {**doc, "checksums": doc["checksums"][:3]},
        lambda doc: {**doc, "format_version": 99},
        lambda doc: {**doc, "payload_length": 10**6},
        lambda doc: {**doc, "code": "bogus:3"},
        lambda doc: {**doc, "code": "simplex:0"},
        lambda doc: {**doc, "k": 1, "s": 2},
        None,
    ],
    ids=["missing-key", "three-checksums", "format-version-99", "oversized-payload",
         "unknown-code", "out-of-range-code", "k-and-s-of-another-code", "not-json"],
)
def test_decode_rejects_tampered_manifest(tmp_path, capsys, tamper):
    shard_dir = _tampered_object(tmp_path, capsys, tamper)
    status, _, err = run(capsys, "decode", "--dir", str(shard_dir),
                         "--out", str(tmp_path / "r.bin"))
    assert status == 1
    assert err.startswith("error: ")
    assert not (tmp_path / "r.bin").exists()


def _tampered_object(tmp_path, capsys, tamper):
    """A simplex:3 object of 1000 zero bytes whose manifest tamper rewrote,
    or made invalid JSON when tamper is None."""
    payload = tmp_path / "p.bin"
    payload.write_bytes(bytes(1000))
    shard_dir = tmp_path / "s"
    run(capsys, "encode", "--code", "simplex:3", "--in", str(payload), "--dir", str(shard_dir))
    manifest = shard_dir / "manifest.json"
    if tamper is None:
        manifest.write_text("not json {")
    else:
        manifest.write_text(json.dumps(tamper(json.loads(manifest.read_text()))))
    return shard_dir


@pytest.mark.parametrize("code", ["bogus:3", "simplex:0"])
def test_repair_rejects_a_manifest_with_an_unknown_code(tmp_path, capsys, code):
    shard_dir = _tampered_object(tmp_path, capsys, lambda doc: {**doc, "code": code})
    (shard_dir / "shard_0000.bin").unlink()
    status, out, err = run(capsys, "repair", "--dir", str(shard_dir), "--missing", "0")
    assert status == 1
    assert err.startswith("error: ") and code in err
    assert out == ""
    assert not (shard_dir / "shard_0000.bin").exists()


def test_repair_code_mismatch_is_usage_error(tmp_path, capsys):
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"x")
    shard_dir = tmp_path / "s"
    run(capsys, "encode", "--code", "simplex:3", "--in", str(payload), "--dir", str(shard_dir))
    status, _, err = run(capsys, "repair", "--code", "c1:3",
                         "--dir", str(shard_dir), "--missing", "0")
    assert status == 2
    assert "does not match" in err


def test_plan_sequential_golden(capsys):
    status, out, _ = run(capsys, "plan", "--code", "simplex:3", "--erased", "0,1,3,5")
    assert status == 0
    assert out == (
        "# mode: sequential\n"
        "repair 0 <- 2+4\n"
        "repair 1 <- 4+6\n"
        "repair 3 <- 0+1\n"
        "repair 5 <- 0+6\n"
    )


def test_plan_parallel(capsys):
    status, out, _ = run(capsys, "plan", "--code", "simplex:3", "--erased", "0,2", "--r", "2")
    assert status == 0
    assert out.splitlines()[0] == "# mode: parallel r=2"


def test_plan_failure_exits_one(capsys):
    status, _, err = run(capsys, "plan", "--code", "simplex:3",
                         "--erased", "0,1,3,5", "--r", "2")
    assert status == 1
    assert "residual" in err


def test_availability_output(capsys):
    status, out, _ = run(capsys, "availability", "--code", "simplex:3", "--r", "2")
    assert status == 0
    assert out.splitlines() == ["r=1 t=0", "r=2 t=3"]
    status, out, _ = run(capsys, "availability", "--code", "c2:3", "--r", "3",
                         "--format", "tsv")
    assert status == 0
    assert out.splitlines()[0] == "r\tt"


def test_distance_output(capsys):
    status, out, _ = run(capsys, "distance", "--code", "c1:5")
    assert status == 0
    assert out.strip() == "5"


def test_table_tsv_golden(capsys):
    status, out, _ = run(capsys, "table", "--k", "4")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "code\tn\td\td_over_n"
    pairs = [tuple(line.split("\t")[1:3]) for line in lines[1:]]
    assert pairs == [
        ("15", "8"), ("15", "6"), ("10", "4"), ("9", "4"), ("9", "3"), ("6", "2")
    ]


def test_verify_easy_repair_passes(capsys):
    status, out, _ = run(capsys, "verify", "--code", "simplex:3", "--exhaustive")
    assert status == 0
    assert out.startswith("PASS simplex:3")


def test_verify_parallel_failure_dumps_counterexample(capsys):
    status, out, _ = run(capsys, "verify", "--code", "simplex:3", "--r", "2",
                         "--max-erasures", "4", "--exhaustive")
    assert status == 1
    assert out.startswith("FAIL")
    assert "# counterexample erased=" in out


def test_verify_sampled_requires_seed_and_trials(capsys):
    status, _, err = run(capsys, "verify", "--code", "simplex:3", "--trials", "10")
    assert status == 2
    assert "--seed" in err


def test_verify_requires_some_mode(capsys):
    status, _, err = run(capsys, "verify", "--code", "simplex:3")
    assert status == 2


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--code", "c2:3", "--r", "0", "--max-erasures", "1", "--exhaustive"],
        ["verify", "--code", "simplex:3", "--r", "7", "--max-erasures", "1", "--exhaustive"],
        ["simulate", "--code", "simplex:3", "--trials", "10", "--seed", "1",
         "--max-erasures", "2", "--r", "7"],
    ],
    ids=["verify-r0", "verify-r7", "simulate-r7"],
)
def test_group_size_bound_out_of_range_is_usage_error(capsys, args):
    status, out, err = run(capsys, *args)
    assert status == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--code", "simplex:3", "--seed", "1", "--trials", "0"],
        ["verify", "--code", "simplex:3", "--seed", "1", "--trials", "-5"],
        ["simulate", "--code", "simplex:3", "--seed", "1", "--trials", "0",
         "--max-erasures", "2"],
    ],
    ids=["verify-0", "verify-minus-5", "simulate-0"],
)
def test_sampling_without_trials_is_usage_error(capsys, args):
    status, out, err = run(capsys, *args)
    assert status == 2
    assert "trials must be >= 1" in err
    assert out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--code", "simplex:3", "--exhaustive", "--max-erasures", "-1"],
        ["simulate", "--code", "simplex:3", "--trials", "10", "--seed", "1",
         "--max-erasures", "2", "--r", "0"],
        ["simulate", "--code", "simplex:3", "--trials", "10", "--seed", "1",
         "--max-erasures", "2", "--r", "-1"],
        # flags the chosen mode would drop without a word
        ["verify", "--code", "simplex:3", "--exhaustive", "--seed", "1", "--trials", "10"],
        ["verify", "--code", "simplex:3", "--seed", "1", "--trials", "10", "--max-erasures", "2"],
        ["verify", "--code", "simplex:3", "--exhaustive", "--seed", "1"],
    ],
    ids=["verify-max-erasures-minus-1", "simulate-r0", "simulate-r-minus-1",
         "verify-exhaustive-sampled", "verify-sampled-capped", "verify-exhaustive-seed"],
)
def test_vacuous_verdict_is_usage_error(capsys, args):
    status, out, err = run(capsys, *args)
    assert status == 2
    assert err.startswith("error:")
    assert out == ""


def test_max_erasures_above_n_stays_clamped(capsys):
    args = ["verify", "--code", "simplex:3", "--exhaustive"]
    _, full, _ = run(capsys, *args)
    status, capped, _ = run(capsys, *args, "--max-erasures", "99")
    assert status == 0
    assert capped.replace(" <=99 erasures", "") == full


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--code", "simplex:3", "--exhaustive"],
        ["verify", "--code", "simplex:3", "--seed", "1", "--trials", "10"],
        ["simulate", "--code", "simplex:3", "--trials", "10", "--seed", "1",
         "--max-erasures", "2"],
        ["verify", "--code", "simplex:3", "--r", "2", "--max-erasures", "2", "--exhaustive"],
    ],
    ids=["verify-exhaustive", "verify-sampled", "simulate", "verify-parallel-exhaustive"],
)
def test_workers_below_one_is_usage_error(capsys, args, workers):
    status, out, err = run(capsys, *args, "--workers", workers)
    assert status == 2
    assert err.startswith("error:")
    assert out == ""


# sha256 of each command's stdout: a refactor must leave every byte unchanged
PINNED_OUTPUTS = {
    "gen --code simplex:3":
        "f5ef48c1f2435942efd84c593d059eff25cf93faa47726aab8a6b2f25277eb8c",
    "gen --code um:2:1":
        "c45634f305a11c16835db23af450e5af6a11de40d86abaed28c589720e87e73d",
    "plan --code simplex:3 --erased 0,1,3,5":
        "46ffd2701877869911319cf07fe3f4bb7fee73d4b16ab4d1f840a4bc1c5dbc10",
    "simulate --code simplex:3 --trials 10000 --seed 7 --max-erasures 3":
        "54f5146e008b4c719d34b5cd515083b1262297740dc6295fd357cdda4c25e0f5",
    "availability --code c2:3 --r 3":
        "1ea5f2d01505cb16c2f7f5195b12acb70756b190018b94b312983c8beacc8676",
    "verify --code um:2:3 --r 5 --max-erasures 5 --exhaustive":
        "a9992f0b9cd7f017a737f5ca32d883e1e42d551e5a821e32cf035c8a08c3f6a3",
    # a failing exhaustive sweep: its lex-first counterexample and stalled plan
    "verify --code um:2:2 --r 2 --max-erasures 5 --exhaustive":
        "af1d8e66b8b2cad40d34b75e7c744d62a072181b19503d0f9f259793a1406f7e",
    "table --k 4":
        "b480c2ae6a48e206a98f35878f45c2cba23e172a90d3d3f7cefd9a21bf135548",
    # sampled sweeps and a simulation whose fractions are not all 1
    "verify --code um:2:2 --seed 7 --trials 2000":
        "62087c90fdef48cd0312e370dd26555706671caf98bac02baf430ae9fa2072f7",
    "verify --code um:3:3 --r 3 --max-erasures 7 --seed 5 --trials 500":
        "40711231229218ec55a97a2c982c57b25b023a25d5ea1ccd69c7461d22d990bb",
    "simulate --code um:2:1 --trials 2000 --seed 11 --max-erasures 10 --r 3":
        "03c6bd26261d6d28a7110e2a97d5407a793f0ac2332132bf1d796f40bfbc40f2",
}


# the pinned commands that report a FAIL verdict and so exit 1
PINNED_FAILURES = {"verify --code um:2:2 --r 2 --max-erasures 5 --exhaustive"}


def test_cli_outputs_are_pinned(capsys):
    for command, digest in PINNED_OUTPUTS.items():
        status, out, _ = run(capsys, *command.split())
        assert status == (1 if command in PINNED_FAILURES else 0), command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_running_out_of_memory_is_one_error_line(capsys, monkeypatch):
    """The line is written once what the failed command held is freed:
    printing it while the traceback keeps that memory can itself run out."""
    class Held:
        pass

    held = []
    freed_when_written = []

    def exhausted(args):
        big = Held()
        held.append(weakref.ref(big))
        raise MemoryError

    def recording_print(*args, **kwargs):
        freed_when_written.append(held[0]() is None)
        print(*args, **kwargs)

    monkeypatch.setitem(cli._COMMANDS, "plan", exhausted)
    monkeypatch.setattr(cli, "print", recording_print, raising=False)
    status, out, err = run(capsys, "plan", "--code", "simplex:9", "--erased", "0,1", "--r", "3")
    assert status == 1
    assert out == ""
    assert err == "error: out of memory in plan\n"
    assert freed_when_written == [True]


def test_simulate_requires_seed():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--code", "simplex:3", "--trials", "10", "--max-erasures", "2"])
    assert exc.value.code == 2


def test_simulate_deterministic_output(capsys):
    args = ["simulate", "--code", "simplex:3", "--trials", "150",
            "--seed", "4", "--max-erasures", "3"]
    status, first, _ = run(capsys, *args)
    assert status == 0
    status, second, _ = run(capsys, *args)
    assert first == second
    status, multi, _ = run(capsys, *args, "--workers", "4")
    assert multi == first
    assert "fraction_correctable\t1.000000" in first


def test_verify_workers_match(capsys):
    args = ["verify", "--code", "um:2:1", "--seed", "8", "--trials", "300"]
    _, solo, _ = run(capsys, *args, "--workers", "1")
    _, multi, _ = run(capsys, *args, "--workers", "4")
    assert solo == multi


def test_encode_output_files_are_deterministic(tmp_path, capsys):
    payload = tmp_path / "p.bin"
    payload.write_bytes(bytes(range(64)) * 3)
    dirs = []
    for name in ("a", "b"):
        d = tmp_path / name
        status, *_ = run(capsys, "encode", "--code", "um:2:1",
                         "--in", str(payload), "--dir", str(d))
        assert status == 0
        dirs.append(d)
    files_a = sorted(p.name for p in dirs[0].iterdir())
    assert files_a == sorted(p.name for p in dirs[1].iterdir())
    for name in files_a:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
