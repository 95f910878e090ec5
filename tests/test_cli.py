import hashlib
import json
import os
import pathlib
import re
import select
import signal
import subprocess
import sys
import time

import pytest

from localcorrect import acceptance, cli, harness
from localcorrect.oracle import random_flip_set


def run(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestCorrect:
    def test_clean_cube_run(self, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        rc, stdout, _ = run(
            ["correct", "--algo", "cube", "--k", "2", "--n", "8",
             "--trials", "25", "--seed", "1", "--out", str(out)],
            capsys,
        )
        assert rc == 0
        summary = json.loads(stdout)["summary"]
        assert summary["success_rate"] == 1.0
        assert len(out.read_text().splitlines()) == 26

    def test_unwritable_out_exit_1(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = harness.cube_sum_correct

        def counted(*args):
            calls.append(args)
            return real(*args)

        # One chunk, so every trial would run in this process.
        monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
        monkeypatch.setattr(harness, "cube_sum_correct", counted)
        rc, _, err = run(
            ["correct", "--algo", "cube", "--k", "2", "--n", "8",
             "--trials", "5", "--seed", "1",
             "--out", str(tmp_path / "missing" / "x.jsonl")],
            capsys,
        )
        assert rc == 1
        assert calls == []

    def test_config_error_keeps_existing_out(self, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        out.write_bytes(b"an earlier report\n")
        rc, _, _ = run(
            ["correct", "--algo", "cube", "--k", "2", "--n", "8",
             "--trials", "0", "--seed", "1", "--out", str(out)],
            capsys,
        )
        assert rc == 2
        assert out.read_bytes() == b"an earlier report\n"

    def test_internal_fault_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError("internal")

        monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
        monkeypatch.setattr(harness, "cube_sum_correct", broken)
        with pytest.raises(ValueError, match="internal"):
            cli.main(["correct", "--algo", "cube", "--k", "2", "--n", "8",
                      "--trials", "5", "--seed", "1", "--out", str(tmp_path / "x")])
        # The report file that the run made is removed.
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, digest", [
        ("--algo cube --k 3 --n 12 --corruption iid:1/64:5 --trials 200 --seed 42",
         "f1d1f605481722fe9c9d751a037ab1e86b028252e8e836587acd953789616e5c"),
        ("--algo cube --k 2 --n 8 --corruption iid:1/32:3 --repeat-t 3 --trials 300 --seed 3",
         "9ab2b46610939971288c82eda8d628853e6741041efd5721b7114d8cd9f324d2"),
        ("--algo influence --k 3 --n 24 --corruption iid:1/64:3 --repeat-t 3 --trials 4 --seed 3",
         "a54e060afbfb47bcee913195c89b55695cba69fd432e02ba6382c2c7291ea091"),
        ("--algo symmetric --k 40 --n 40 --repeat-t 5 --trials 50 --seed 9",
         "425ebd21cd9f47386dcb1d9e0b09697b157d52d5fe554a8c29b4917364380905"),
        ("--algo influence --k 8 --n 128 --corruption iid:2^-12:99 --trials 4 --seed 5"
         " --x-mode adversarial-flipped",
         "80899e562bca92e15aace7dfec8ccd8b48140b1630690bdd9633845c5bc6fd1a"),
        ("--algo cube --k 3 --n 12 --corruption iid:1/64:5 --trials 200 --seed 4"
         " --x-mode fixed-hex --x a5f",
         "9592e13644a107cb23731767df2f0c6abafb0813adda4d5b0febee9074647c3b"),
    ], ids=["cube-iid", "cube-repeat-3", "influence-iid-repeat-3", "symmetric-repeat-5",
            "influence-iid-adversarial", "cube-iid-fixed-hex"])
    def test_pinned_report_bytes(self, argv, digest, tmp_path, capsys):
        # The sha256 of the --out file; the first run is criterion 10's.
        out = tmp_path / "report.jsonl"
        rc, _, _ = run(["correct"] + argv.split() + ["--out", str(out)], capsys)
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_pinned_flips_report_bytes(self, tmp_path, capsys, monkeypatch):
        # The perfbench cube-k4-flips shape: a 256-point flip file in
        # perfbench's layout, named by a relative path because the summary
        # echoes the descriptor.
        monkeypatch.chdir(tmp_path)
        flips = random_flip_set(16, 256, 0xF1)
        (tmp_path / "flips.hex").write_text("".join("%04x\n" % b for b in sorted(flips.flips)))
        rc, _, _ = run(["correct", "--algo", "cube", "--k", "4", "--n", "16",
                        "--corruption", "flips:flips.hex", "--x-mode", "adversarial-flipped",
                        "--trials", "500", "--seed", "17", "--out", "report.jsonl"], capsys)
        assert rc == 0
        assert hashlib.sha256((tmp_path / "report.jsonl").read_bytes()).hexdigest() == (
            "f92e52b76e74127650a06a5c479d94b28bba0a9434f4fbe57ac3cdaa2d0c1e18")

    def test_unknown_algo_argparse_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["correct", "--algo", "quantum", "--k", "2", "--n", "8",
                      "--trials", "5", "--seed", "1", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestLowerbound:
    def test_uniform_run(self, tmp_path, capsys):
        out = tmp_path / "lb.json"
        rc, stdout, _ = run(
            ["lowerbound", "--strategy", "uniform-random-queries", "--n", "40",
             "--k", "4", "--queries", "20", "--trials", "100", "--seed", "3",
             "--out", str(out)],
            capsys,
        )
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["strategy"] == "uniform-random-queries"
        assert rep["trials"] == 100


class TestAmbiguity:
    def test_n8(self, capsys):
        rc, stdout, _ = run(["ambiguity", "--n", "8"], capsys)
        assert rc == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "77f71e92f0e60df6ede539b99d44494ab60f27974e762491c8fa473cb65e1872")
        data = json.loads(stdout)
        assert data["truncated_all_identical"] is True
        assert data["layer_fraction"] == "35/128"


@pytest.mark.parametrize("argv, digest", [
    ("lowerbound --strategy cube-sum-at-x_star --n 40 --k 3 --queries 15 --trials 200"
     " --seed 5", "406e4677612abfead1db27acd3b6502b11dae5dbfe9d80d6295294ee97daba8a"),
    ("influence --k 3 --samples 50 --seed 7",
     "fa89a8a8da033403cd0b4b96bf7c6a48d75dc8628a37a9ee007fed8b6ac923cd"),
    ("ambiguity --n 6", "3aaf3231dde1ddf42bb8e7cab18cddc66592e23f0dad35e6edd292e3cc0f2a21"),
], ids=["lowerbound", "influence", "ambiguity"])
def test_pinned_stdout(argv, digest, tmp_path, capsys):
    # The sha256 of stdout; lowerbound writes the same line to --out.
    out = tmp_path / "out.json"
    argv = argv.split() + (["--out", str(out)] if argv.startswith("lowerbound") else [])
    rc, stdout, _ = run(argv, capsys)
    assert rc == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest
    if argv[0] == "lowerbound":
        assert out.read_text() == stdout


CORRECT = ["correct", "--algo", "cube", "--k", "2", "--n", "8", "--trials", "5"]
FLIPS = CORRECT + ["--seed", "1", "--x-mode", "adversarial-flipped", "--corruption"]
LOWERBOUND = ["lowerbound", "--strategy", "uniform-random-queries", "--n", "40",
              "--k", "4", "--queries", "20"]


@pytest.mark.parametrize("argv, field, fragment", [
    pytest.param(CORRECT + ["--seed", "-1"], "seed", "", id="correct-seed-negative"),
    pytest.param(CORRECT + ["--seed", str(1 << 64)], "seed", "", id="correct-seed-too-large"),
    pytest.param(CORRECT + ["--seed", "1", "--corruption", "iid:1/64:-3"],
                 "corruption", "iid seed", id="iid-seed-negative"),
    pytest.param(CORRECT + ["--seed", "1", "--corruption", "iid:1/0:3"],
                 "corruption", "iid eps", id="iid-eps-zero-denominator"),
    pytest.param(CORRECT + ["--seed", "1", "--corruption", "iid:2^-5000:3"],
                 "corruption", "exponent", id="iid-eps-power-exponent-too-large"),
    pytest.param(CORRECT + ["--seed", "1", "--corruption", "iid:1e-5000:3"],
                 "corruption", "exponent", id="iid-eps-decimal-exponent-too-large"),
    # base 2^100: 100 bits times exponent 1024 is above the 65,536-bit bound.
    pytest.param(CORRECT + ["--seed", "1", "--corruption",
                            "iid:%d^-1024:3" % (1 << 100)],
                 "corruption", "bits", id="iid-eps-power-too-many-bits"),
    pytest.param(CORRECT + ["--seed", "1", "--corruption", "bogus:1"],
                 "corruption", "unknown corruption descriptor", id="corruption-unknown"),
    pytest.param(CORRECT + ["--seed", "1", "--corruption", "trunc:-3"],
                 "corruption", "unknown corruption descriptor", id="trunc-negative"),
    pytest.param(CORRECT + ["--seed", "1", "--corruption", "trunc:6"],
                 "corruption", "unknown corruption descriptor", id="trunc-unknown"),
    pytest.param(CORRECT + ["--seed", "1", "--corruption", "layer"],
                 "corruption", "unknown corruption descriptor", id="layer-unknown"),
    pytest.param(CORRECT + ["--seed", "1", "--repeat-t", "4"], "repeat_t", "",
                 id="correct-repeat-t-even"),
    pytest.param(CORRECT + ["--seed", "1", "--x-mode", "fixed-hex", "--x", "zz"],
                 "x_hex", "", id="correct-x-not-hex"),
    pytest.param(CORRECT + ["--seed", "1", "--x-mode", "fixed-hex", "--x", "1ff"],
                 "x_hex", "", id="correct-x-too-wide"),
    pytest.param(CORRECT + ["--seed", "1", "--x-mode", "fixed-hex", "--x", "0xa5"],
                 "x_hex", "", id="correct-x-0x-prefix"),
    pytest.param(CORRECT + ["--seed", "1", "--x-mode", "fixed-hex", "--x", "a_5"],
                 "x_hex", "", id="correct-x-underscore"),
    pytest.param(CORRECT + ["--seed", "1", "--x-mode", "fixed-hex", "--x", " a5"],
                 "x_hex", "", id="correct-x-space"),
    pytest.param(CORRECT + ["--seed", "1", "--x", "a5"],
                 "x_hex", "fixed-hex", id="correct-x-random-mode"),
    pytest.param(FLIPS[:-1] + ["--x", "zz"],
                 "x_hex", "fixed-hex", id="correct-x-adversarial-mode"),
    pytest.param(["correct", "--algo", "symmetric", "--k", "3", "--n", "40", "--trials", "5",
                  "--seed", "9"], "k", "equal n", id="symmetric-k-not-n"),
    # Nothing is flipped, so no adversarial x exists: refused at once.
    pytest.param(FLIPS + ["none"], "x_mode", "flips no point", id="adversarial-none"),
    pytest.param(FLIPS + ["iid:0:3"], "x_mode", "flips no point", id="adversarial-iid-eps-zero"),
    # "flips:<line>" rows: the test writes a flips file holding " 2 ", a
    # blank line and <line>, and passes its path instead.  A "flips:/<path>"
    # row reads that path itself.
    pytest.param(FLIPS + ["flips:0x1_0"], "corruption", "hex digits", id="flips-0x-underscore"),
    pytest.param(FLIPS + ["flips:1_0"], "corruption", "hex digits", id="flips-underscore"),
    pytest.param(FLIPS + ["flips:+1"], "corruption", "hex digits", id="flips-sign"),
    pytest.param(FLIPS + ["flips:\u0661"], "corruption", "hex digits", id="flips-non-ascii-digit"),
    # An endless device: refused as not a regular file, before any read.
    pytest.param(FLIPS + ["flips:/dev/zero"], "corruption", "regular file", id="flips-endless-file"),
    pytest.param(["correct", "--algo", "cube", "--k", "25", "--n", "30", "--trials", "5",
                  "--seed", "1"], "k", "", id="correct-k-above-table-limit"),
    pytest.param(LOWERBOUND + ["--trials", "10", "--seed", "-1"], "seed", "",
                 id="lowerbound-seed-negative"),
    pytest.param(LOWERBOUND + ["--trials", "0", "--seed", "3"], "trials", "",
                 id="lowerbound-trials-zero"),
    pytest.param(LOWERBOUND[:2] + ["fixed-point-list"] + LOWERBOUND[3:]
                 + ["--trials", "10", "--seed", "3"], "strategy", "",
                 id="lowerbound-fixed-point-list-unknown"),
    pytest.param(["influence", "--k", "2", "--samples", "0", "--seed", "5"],
                 "samples", "", id="influence-samples-zero"),
    pytest.param(["influence", "--k", "0", "--samples", "5", "--seed", "5"],
                 "k", "", id="influence-k-zero"),
    pytest.param(["influence", "--k", "-1", "--samples", "5", "--seed", "5"],
                 "k", "", id="influence-k-negative"),
    pytest.param(["influence", "--k", "3", "--samples", "50", "--seed", "-7"],
                 "seed", "", id="influence-seed-negative"),
    pytest.param(LOWERBOUND[:-2] + ["--queries", "-4", "--trials", "10", "--seed", "3"],
                 "queries", "", id="lowerbound-queries-negative"),
    pytest.param(["lowerbound", "--strategy", "cube-sum-at-x_star", "--n", "40",
                  "--k", "3", "--queries", "5", "--trials", "10", "--seed", "3"],
                 "queries", "", id="lowerbound-cube-sum-queries-not-subcube"),
    pytest.param(["lowerbound", "--strategy", "cube-sum-at-x_star", "--n", "40",
                  "--k", "-2", "--queries", "1", "--trials", "10", "--seed", "3"],
                 "k", "", id="lowerbound-k-negative"),
    pytest.param(["lowerbound", "--strategy", "cube-sum-at-x_star", "--n", "100",
                  "--k", "40", "--queries", str((1 << 41) - 1), "--trials", "1",
                  "--seed", "3"], "k", "<= 24", id="lowerbound-cube-sum-k-above-table-limit"),
    pytest.param(["lowerbound", "--strategy", "uniform-random-queries", "--n", "41",
                  "--k", "4", "--queries", "20", "--trials", "10", "--seed", "3"],
                 "n", "", id="lowerbound-n-odd"),
    pytest.param(["correct", "--algo", "cube", "--k", "2", "--n", "65537", "--trials", "5",
                  "--seed", "1"], "n", "<= 65536", id="correct-n-above-limit"),
    pytest.param(["lowerbound", "--strategy", "uniform-random-queries", "--n", "65538",
                  "--k", "4", "--queries", "20", "--trials", "10", "--seed", "3"],
                 "n", "<= 65536", id="lowerbound-n-above-limit"),
    pytest.param(["ambiguity", "--n", "7"], "n", "", id="ambiguity-n-odd"),
    pytest.param(["ambiguity", "--n", "0"], "n", "", id="ambiguity-n-zero"),
    pytest.param(["ambiguity", "--n", "-2"], "n", "", id="ambiguity-n-negative"),
])
def test_bad_numeric_input_exit_2(argv, field, fragment, tmp_path, capsys):
    if argv[0] in ("correct", "lowerbound"):
        argv = argv + ["--out", str(tmp_path / "x")]
    flips = tmp_path / "flips.hex"
    written = [a for a in argv if a.startswith("flips:") and not a.startswith("flips:/")]
    for arg in written:
        flips.write_text(" 2 \n\n%s\n" % arg[len("flips:"):], encoding="utf-8")
    argv = ["flips:%s" % flips if a in written else a for a in argv]
    rc, _, err = run(argv, capsys)
    assert rc == 2
    assert err.startswith("config error: %s: " % field) and fragment in err


@pytest.mark.parametrize("argv", [
    ["correct", "--algo", "cube", "--k", "3", "--n", "2", "--trials", "5", "--seed", "1"],
    LOWERBOUND[:2] + ["nope"] + LOWERBOUND[3:] + ["--trials", "10", "--seed", "3"],
], ids=["correct", "lowerbound"])
def test_config_error_leaves_no_new_out(argv, tmp_path, capsys):
    out = tmp_path / "new.json"
    rc, _, _ = run(argv + ["--out", str(out)], capsys)
    assert rc == 2
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
def test_config_error_keeps_dangling_out_link(tmp_path, capsys):
    # Opening the link creates its target; a bad config removes that
    # target, the one file the run made, and keeps the link.
    link, target = tmp_path / "link.json", tmp_path / "target.json"
    link.symlink_to(target.name)
    rc, _, _ = run(["correct", "--algo", "cube", "--k", "3", "--n", "2", "--trials", "5",
                    "--seed", "1", "--out", str(link)], capsys)
    assert rc == 2
    assert link.is_symlink() and os.readlink(link) == target.name
    assert not target.exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_interrupt_exits_130_without_a_report(tmp_path):
    # SIGINT reaches a chunked run and its forked chunk, which share a
    # process group: one line and exit 130, no traceback from either, no
    # report file and no process left.  Each corrector call logs its
    # process id and sleeps, and the signal is sent once both chunks run.
    out, log = tmp_path / "r.jsonl", tmp_path / "pids"
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = "\n".join([
        "import os, sys, time",
        "sys.path.insert(0, %r)" % str(src),
        "from localcorrect import cli, harness",
        "harness._cpu_count = lambda: 2",
        "harness.FORK_MIN_QUERIES = 1",
        "real = harness.cube_sum_correct",
        "def slow(*args):",
        "    with open(%r, 'a') as fh:" % str(log),
        "        fh.write(str(os.getpid()) + '\\n')",
        "    time.sleep(0.01)",
        "    return real(*args)",
        "harness.cube_sum_correct = slow",
        "sys.exit(cli.main(sys.argv[1:]))"])
    proc = subprocess.Popen([sys.executable, "-I", "-c", code, "correct", "--algo", "cube",
                             "--k", "2", "--n", "8", "--trials", "2000", "--seed", "1",
                             "--out", str(out)],
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        while len(set(log.read_text().split()) if log.exists() else ()) < 2:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        err = proc.communicate(timeout=30)[1]
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130
    assert "Traceback" not in err and err == "interrupted\n"
    assert not out.exists()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_flips_fifo_exit_2(tmp_path):
    # A FIFO with no writer used to block in open().  The run is a
    # subprocess with a timeout, so a regression fails instead of stalling.
    fifo = tmp_path / "flips.fifo"
    os.mkfifo(fifo)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, %r); from localcorrect import cli; "
            "sys.exit(cli.main(sys.argv[1:]))" % str(src))
    proc = subprocess.run([sys.executable, "-I", "-c", code] + FLIPS
                          + ["flips:%s" % fifo, "--out", str(tmp_path / "x")],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: corruption: ")
    assert "regular file" in proc.stderr


@pytest.mark.parametrize("second, rc", [(True, 0), (False, 1)])
def test_bench_exits_1_on_a_failed_criterion(second, rc, capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [
        ("first", lambda: (True, "one")), ("second", lambda: (second, "two"))])
    assert run(["bench"], capsys) == (rc, (
        "PASS criterion 1: first (0.0s) one\n"
        "%s criterion 2: second (0.0s) two\n" % ("PASS" if second else "FAIL")), "")


def test_bench_flushes_each_line_into_a_pipe():
    # Without PYTHONUNBUFFERED a pipe is block-buffered.  The second
    # criterion waits for stdin to close, so criterion 1's line must reach
    # the pipe while the process still runs; the read has a timeout, so a
    # held line fails instead of stalling.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, %r); from localcorrect import acceptance, cli; "
            "acceptance.ALL_CRITERIA = [('fast', lambda: (True, 'a')), "
            "('waits', lambda: (sys.stdin.read() == '', 'b'))]; "
            "sys.exit(cli.main(['bench']))" % str(src))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen([sys.executable, "-c", code], env=env,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        readable, _, _ = select.select([proc.stdout], [], [], 30)
        first = proc.stdout.readline() if readable else b""
        proc.stdin.close()
        rest = proc.stdout.read()
        assert proc.wait(timeout=30) == 0
    assert first == b"PASS criterion 1: fast (0.0s) a\n"
    assert re.fullmatch(rb"PASS criterion 2: waits \(\d+\.\ds\) b\n", rest)
