import hashlib
import json

import pytest

from localcorrect import cli, harness


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

    def test_config_error_exit_2(self, tmp_path, capsys):
        rc, _, err = run(
            ["correct", "--algo", "cube", "--k", "2", "--n", "8",
             "--corruption", "bogus", "--trials", "5", "--seed", "1",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert rc == 2
        assert "corruption" in err

    def test_even_repeat_t_exit_2(self, tmp_path, capsys):
        rc, _, err = run(
            ["correct", "--algo", "cube", "--k", "2", "--n", "8",
             "--trials", "5", "--seed", "1", "--repeat-t", "4",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert rc == 2
        assert "repeat_t" in err

    def test_unwritable_out_exit_1(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = harness.cube_sum_correct

        def counted(*args):
            calls.append(args)
            return real(*args)

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

        monkeypatch.setattr(harness, "cube_sum_correct", broken)
        with pytest.raises(ValueError, match="internal"):
            cli.main(["correct", "--algo", "cube", "--k", "2", "--n", "8",
                      "--trials", "5", "--seed", "1", "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("argv, digest", [
        ("--algo cube --k 3 --n 12 --corruption iid:1/64:5 --trials 200 --seed 42",
         "f1d1f605481722fe9c9d751a037ab1e86b028252e8e836587acd953789616e5c"),
        ("--algo cube --k 2 --n 8 --corruption iid:1/32:3 --repeat-t 3 --trials 300 --seed 3",
         "9ab2b46610939971288c82eda8d628853e6741041efd5721b7114d8cd9f324d2"),
        ("--algo influence --k 3 --n 24 --corruption trunc:6 --repeat-t 3 --trials 4 --seed 3",
         "fba1cbeefe4ded5637c0cbadb7ba2d2947e448ecd4d82fbb599effb307b66c4c"),
        ("--algo symmetric --k 40 --n 40 --corruption layer --repeat-t 5 --trials 50 --seed 9",
         "45e555100f2e12f930479c5b2f440baa11c0afc7e8d0280ce6fef895d185b108"),
        ("--algo influence --k 8 --n 128 --corruption iid:2^-12:99 --trials 4 --seed 5"
         " --x-mode adversarial-flipped",
         "80899e562bca92e15aace7dfec8ccd8b48140b1630690bdd9633845c5bc6fd1a"),
    ], ids=["cube-iid", "cube-repeat-3", "influence-trunc-repeat-3", "symmetric-layer-repeat-5",
            "influence-iid-adversarial"])
    def test_pinned_report_bytes(self, argv, digest, tmp_path, capsys):
        # The sha256 of the --out file; the first run is criterion 10's.
        out = tmp_path / "report.jsonl"
        rc, _, _ = run(["correct"] + argv.split() + ["--out", str(out)], capsys)
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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

    def test_unknown_strategy_exit_2(self, tmp_path, capsys):
        rc, _, err = run(
            ["lowerbound", "--strategy", "psychic", "--n", "40", "--k", "4",
             "--queries", "20", "--trials", "10", "--seed", "3",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert rc == 2


class TestInfluence:
    def test_reports_fraction(self, capsys):
        rc, stdout, _ = run(["influence", "--k", "1", "--samples", "400",
                             "--seed", "5"], capsys)
        assert rc == 0
        data = json.loads(stdout)
        assert 0.4 < data["low_influence_fraction"] < 0.6


class TestAmbiguity:
    def test_n8(self, capsys):
        rc, stdout, _ = run(["ambiguity", "--n", "8"], capsys)
        assert rc == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "77f71e92f0e60df6ede539b99d44494ab60f27974e762491c8fa473cb65e1872")
        data = json.loads(stdout)
        assert data["truncated_all_identical"] is True
        assert data["layer_fraction"] == "35/128"

    def test_odd_n_exit_2(self, capsys):
        rc, _, _ = run(["ambiguity", "--n", "7"], capsys)
        assert rc == 2


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
    pytest.param(CORRECT + ["--seed", "1", "--corruption", "trunc:-3"],
                 "corruption", "threshold", id="trunc-negative"),
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
    pytest.param(["correct", "--algo", "cube", "--k", "2", "--n", "9", "--corruption",
                  "layer", "--trials", "5", "--seed", "1"],
                 "corruption", "even n", id="layer-n-odd"),
    # "flips:<line>" rows: the test writes a flips file holding " 2 ", a
    # blank line and <line>, and passes its path instead.
    pytest.param(FLIPS + ["flips:0x1_0"], "corruption", "hex digits", id="flips-0x-underscore"),
    pytest.param(FLIPS + ["flips:1_0"], "corruption", "hex digits", id="flips-underscore"),
    pytest.param(FLIPS + ["flips:+1"], "corruption", "hex digits", id="flips-sign"),
    pytest.param(FLIPS + ["flips:\u0661"], "corruption", "hex digits", id="flips-non-ascii-digit"),
    pytest.param(["correct", "--algo", "cube", "--k", "25", "--n", "30", "--trials", "5",
                  "--seed", "1"], "k", "", id="correct-k-above-table-limit"),
    pytest.param(LOWERBOUND + ["--trials", "10", "--seed", "-1"], "seed", "",
                 id="lowerbound-seed-negative"),
    pytest.param(LOWERBOUND + ["--trials", "0", "--seed", "3"], "trials", "",
                 id="lowerbound-trials-zero"),
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
    pytest.param(["ambiguity", "--n", "0"], "n", "", id="ambiguity-n-zero"),
    pytest.param(["ambiguity", "--n", "-2"], "n", "", id="ambiguity-n-negative"),
])
def test_bad_numeric_input_exit_2(argv, field, fragment, tmp_path, capsys):
    if argv[0] in ("correct", "lowerbound"):
        argv = argv + ["--out", str(tmp_path / "x")]
    flips = tmp_path / "flips.hex"
    for arg in argv:
        if arg.startswith("flips:"):
            flips.write_text(" 2 \n\n%s\n" % arg[len("flips:"):], encoding="utf-8")
    argv = ["flips:%s" % flips if a.startswith("flips:") else a for a in argv]
    rc, _, err = run(argv, capsys)
    assert rc == 2
    assert err.startswith("config error: %s: " % field) and fragment in err
