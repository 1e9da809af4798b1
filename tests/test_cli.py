"""Command-line interface: envelopes, exit codes, determinism, batch mode."""

import io
import json
import sys
from pathlib import Path

import pytest

from morphrec import decider
from morphrec.catalog import get
from morphrec.cli import FORMAT_VERSION, main
from morphrec.decider import Certificate, Verdict, verify_certificate


@pytest.fixture
def fib_file(tmp_path):
    p = tmp_path / "fib.txt"
    p.write_text(get("fibonacci").text)
    return str(p)


@pytest.fixture
def tm_file(tmp_path):
    p = tmp_path / "tm.txt"
    p.write_text(get("thue_morse").text)
    return str(p)


@pytest.fixture
def nonur_file(tmp_path):
    p = tmp_path / "nonur.txt"
    p.write_text(get("nonur_block").text)
    return str(p)


# a census draw whose growing stage is not primitive, so the low-power chain
# settles it: a repetition at sigma, n = 2, m = 3
CHAIN_DRAW = (
    "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a b\nb -> b c\nc -> c b\n"
    "phi:\na -> 0\nb -> 1\nc -> 0\n"
)


@pytest.fixture
def chain_file(tmp_path):
    p = tmp_path / "chain.txt"
    p.write_text(CHAIN_DRAW)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- decide-ur -------------------------------------------------------------------------


def test_decide_ur_text(capsys, fib_file, chain_file, tmp_path, monkeypatch):
    code, out, err = run(capsys, "decide-ur", fib_file)
    assert code == 0
    assert "verdict: uniformly recurrent" in out
    assert "certificate: primitive" in out
    # neither a primitive stage nor a low-power repetition needs the factor
    # count, so K1 and the cap are not computed and not printed
    line = next(x for x in out.splitlines() if x.startswith("constants:"))
    assert line.startswith("constants: K=27 R=")
    assert "K2=" in line and "K1" not in line and "cap" not in line and "None" not in line
    code, out, err = run(capsys, "decide-ur", chain_file)
    assert code == 0
    assert "verdict: uniformly recurrent" in out
    assert "certificate: repetition" in out
    line = next(x for x in out.splitlines() if x.startswith("constants:"))
    assert line.startswith("constants: K=16 K2=")
    assert "K1" not in line and "cap" not in line and "None" not in line
    # a stage that no check settles ends inconclusive on the count-free
    # sheet, with the named last step; its sigma is not primitive, so R is
    # not computed.  No image ends in c, so it has no primitive tail
    p = tmp_path / "full.txt"
    p.write_text(
        "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a c\nb -> b c b\nc -> b\n"
        "phi:\na -> 1\nb -> 1\nc -> 0\n"
    )
    monkeypatch.setattr(decider, "PRACTICAL_CAP", 2)
    code, out, err = run(capsys, "decide-ur", "--budget", "1048576", str(p))
    assert code == 0
    assert "verdict: inconclusive" in out and "certificate: none" in out
    line = next(x for x in out.splitlines() if x.startswith("constants:"))
    assert line.startswith("constants: K=70 K2=") and "R=" not in line, line
    assert "K1" not in line and "cap" not in line and "None" not in line, line
    code, out, err = run(capsys, "decide-ur", "--json", str(p))
    assert json.loads(out)["trace"][-1] == {"step": "unsettled",
                                            "reason": "no check settles the stage"}
    # a transient start letter with a Thue-Morse tail settles before the
    # full-power chain, on the count-free sheet
    p.write_text(
        "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a b c\nb -> b c\nc -> c b\n"
        "phi:\na -> 1\nb -> 1\nc -> 0\n"
    )
    code, out, err = run(capsys, "decide-ur", str(p))
    assert code == 0
    assert "certificate: primitive_tail" in out
    line = next(x for x in out.splitlines() if x.startswith("constants:"))
    assert line.startswith("constants: K=16 K2=") and "K1" not in line and "cap" not in line


def test_decide_ur_json_envelope(capsys, fib_file, chain_file):
    for path, kind, K in ((fib_file, "primitive", 27), (chain_file, "repetition", 16)):
        code, out, _ = run(capsys, "decide-ur", "--json", path)
        assert code == 0
        env = json.loads(out)
        assert env["format"] == 8
        assert env["command"] == "decide-ur"
        assert env["input"] == path
        assert env["verdict"] == "uniformly_recurrent"
        assert env["certificate"]["kind"] == kind
        assert env["constants"]["K"] == K
        assert env["options"]["cap"] == 64


def test_an_issued_repetition_envelope_still_verifies(capsys, tmp_path, monkeypatch):
    # fibonacci's `decide-ur --json` envelope as issued when the low-power
    # chain ran before the primitive check: a format-7 repetition, which
    # must keep verifying.  Today's envelope differs only in the
    # certificate, the trace and the format
    issued = json.loads((Path(__file__).parent / "fibonacci_repetition_envelope.json").read_text())
    data = dict(issued["certificate"])
    kind = data.pop("kind")
    assert (issued["format"], kind) == (7, "repetition")
    verdict = Verdict(issued["verdict"], Certificate(kind, data), None, ())
    ok, detail = verify_certificate(get("fibonacci").build(), verdict)
    assert ok and detail == {"checked": "repetition", "n": 1, "m": 2}, detail
    monkeypatch.chdir(tmp_path)
    (tmp_path / issued["input"]).write_text(get("fibonacci").text)
    code, out, _ = run(capsys, "decide-ur", "--json", issued["input"])
    env = json.loads(out)
    assert code == 0 and env["certificate"]["kind"] == "primitive"
    assert env["format"] == FORMAT_VERSION
    for key in ("certificate", "trace", "format"):
        env.pop(key), issued.pop(key)
    assert env == issued


def test_decide_ur_json_round_trips_byte_identically(capsys, fib_file):
    _, out1, _ = run(capsys, "decide-ur", "--json", fib_file)
    assert json.dumps(json.loads(out1), indent=2) + "\n" == out1
    _, out2, _ = run(capsys, "decide-ur", "--json", fib_file)
    assert out1 == out2


def test_decide_ur_verify_does_not_change_verdict(capsys, fib_file):
    _, plain, _ = run(capsys, "decide-ur", "--json", fib_file)
    code, verified, _ = run(capsys, "decide-ur", "--json", "--verify", fib_file)
    assert code == 0
    a, b = json.loads(plain), json.loads(verified)
    assert b["verification"]["ok"] is True
    b.pop("verification")
    assert a == b


def test_decide_ur_not_ur_is_still_exit_zero(capsys, nonur_file):
    code, out, _ = run(capsys, "decide-ur", "--json", nonur_file)
    assert code == 0
    env = json.loads(out)
    assert env["verdict"] == "not_uniformly_recurrent"
    assert env["certificate"]["kind"] == "periodic_mismatch"


def test_decide_ur_multi_file_text_headers(capsys, fib_file, tm_file):
    code, out, _ = run(capsys, "decide-ur", fib_file, tm_file)
    assert code == 0
    assert out.index(f"== {fib_file}") < out.index(f"== {tm_file}")


def test_decide_ur_multi_file_json_array_keeps_order(capsys, fib_file, tm_file):
    code, out, _ = run(capsys, "decide-ur", "--json", fib_file, tm_file)
    assert code == 0
    envs = json.loads(out)
    assert [e["input"] for e in envs] == [fib_file, tm_file]


class _ClosedStdout(io.StringIO):
    """A standard output whose reader has gone away, as under `| head`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("flags", [["--json"], []])
def test_closed_stdout_keeps_the_exit_code(monkeypatch, capsys, fib_file, tmp_path, flags):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(["decide-ur", "--verify", *flags, fib_file]) == 0
    assert main(["decide-ur", "--verify", *flags, fib_file, str(tmp_path / "missing.txt")]) == 1
    assert "missing.txt" in capsys.readouterr().err


def test_missing_file_is_reported(capsys, tmp_path):
    code, _, err = run(capsys, "decide-ur", str(tmp_path / "absent.txt"))
    assert code == 1
    assert "absent.txt" in err


def test_parse_error_reports_line(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("alphabet: a b\nstart: a\nsigma:\na -> a b\nb -> ???\n")
    code, _, err = run(capsys, "decide-ur", str(p))
    assert code == 1
    assert "line" in err


def test_batch_isolates_per_file_errors(capsys, fib_file, tmp_path):
    bad = tmp_path / "absent.txt"
    code, out, err = run(capsys, "decide-ur", "--json", fib_file, str(bad))
    assert code == 1
    envs = json.loads(out)
    assert envs[0]["verdict"] == "uniformly_recurrent"
    assert "error" in envs[1]
    assert "absent.txt" in err


# -- other subcommands -----------------------------------------------------------------


def test_classify_json(capsys, fib_file):
    code, out, _ = run(capsys, "classify", "--json", fib_file)
    assert code == 0
    env = json.loads(out)
    assert env["command"] == "classify"
    assert env["letters"] == ["a", "b"]
    growth = {row["letter"]: row for row in env["growth"]}
    assert growth["a"]["growing"] is True
    assert growth["a"]["theta"]["poly"] == [1, -1, -1]
    assert env["primitive"] is True
    assert env["sigma"]["prolongable_on"] == ["a"]


def test_return_words_table(capsys, fib_file):
    code, out, _ = run(capsys, "return-words", "--word", "a", fib_file)
    assert code == 0
    assert "1: ab" in out
    assert "2: a" in out


def test_return_words_json(capsys, tm_file):
    code, out, _ = run(capsys, "return-words", "--json", "--word", "0", tm_file)
    env = json.loads(out)
    assert env["words"] == ["011", "01", "0"]
    assert env["derived_prefix"][:4] == [1, 2, 3, 1]


def test_return_words_rejects_foreign_letter(capsys, fib_file):
    code, _, err = run(capsys, "return-words", "--word", "z", fib_file)
    assert code == 1
    assert "not in the alphabet" in err


def test_return_words_reject_a_negative_budget_per_file(capsys, fib_file, tmp_path):
    # one file: an error envelope, not a traceback
    code, out, err = run(capsys, "return-words", "--word", "a", "--budget", "-5", "--json", fib_file)
    assert code == 1
    assert json.loads(out)["error"] == "scan budget must be at least 1 letter, got -5"
    assert "Traceback" not in err
    # two files: each gets its own error envelope, none is lost
    other = tmp_path / "fib2.txt"
    other.write_text(get("fibonacci").text)
    files = [fib_file, str(other)]
    code, out, err = run(capsys, "return-words", "--word", "a", "--budget", "-5", "--json", *files)
    assert code == 1
    envs = json.loads(out)
    assert [e["input"] for e in envs] == files
    assert all(e["error"] == "scan budget must be at least 1 letter, got -5" for e in envs)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["decide-ur", "--budget", "0"],
                                  ["decide-ur", "--verify", "--budget", "-5"],
                                  ["derive", "--depth", "2", "--budget", "-5"]])
def test_a_work_budget_below_one_is_an_error_envelope(capsys, fib_file, argv):
    code, out, err = run(capsys, *argv, "--json", fib_file)
    assert code == 1
    env = json.loads(out)
    budget = argv[-1]
    assert env == {"format": env["format"], "command": argv[0], "input": fib_file,
                   "error": f"work budget must be at least 1 letter, got {budget}"}
    assert "Traceback" not in err


def test_derive_json(capsys, tm_file):
    code, out, _ = run(capsys, "derive", "--json", "--depth", "2", tm_file)
    assert code == 0
    env = json.loads(out)
    by_level = {lv["level"]: lv for lv in env["levels"]}
    assert by_level[2]["u"] == "0110"
    assert ["011010", "0110"] in by_level[2]["pairs"]


def test_derive_keeps_its_levels_on_a_budget_exit(capsys, tmp_path):
    # the closure at level 4 runs past 2^20 letters: derive lists the three
    # levels it built and reports the budget like any other driver exit
    p = tmp_path / "budget.txt"
    p.write_text(
        "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a c\nb -> a b\nc -> b c\n"
        "phi:\na -> 1\nb -> 0\nc -> 0\n"
    )
    code, out, err = run(capsys, "derive", "--json", "--depth", "8", "--budget", "1048576", str(p))
    assert code == 0 and err == ""
    env = json.loads(out)
    assert [lv["level"] for lv in env["levels"]] == [1, 2, 3]
    assert env["driver_exit"]["level"] == 4
    assert env["driver_exit"]["kind"] == "budget"
    assert env["driver_exit"]["unconditional"] is False
    code, out, _ = run(capsys, "derive", "--depth", "8", "--budget", "1048576", str(p))
    assert code == 0
    assert "driver exit at level 4: budget (unconditional=False)" in out


def test_constants_json(capsys, fib_file):
    code, out, _ = run(capsys, "constants", "--json", fib_file)
    env = json.loads(out)
    assert env["constants"]["K"] == 27
    assert env["constants"]["P"] == "89/55"
    assert env["constants"]["cap"] == "7485570325464^9037568592183102050"


def test_constants_rejects_nongrowing(capsys, tmp_path):
    p = tmp_path / "tfc.txt"
    p.write_text(get("tail_fin_const").text)
    code, _, err = run(capsys, "constants", str(p))
    assert code == 1
    assert "growing" in err


def test_periodic_check_json(capsys, tmp_path):
    p = tmp_path / "tfc.txt"
    p.write_text(get("tail_fin_const").text)
    code, out, _ = run(capsys, "periodic-check", "--json", "--word", "b", str(p))
    assert code == 0
    env = json.loads(out)
    assert env["periodic"] is True
    assert env["anchored"] is True
    assert env["period_word"] == ["z"]


def test_oracle_json(capsys, nonur_file):
    code, out, _ = run(capsys, "oracle", "--json", "--max-factor", "1",
                       "--prefix", "10000", "--bound", "5", nonur_file)
    assert code == 0
    env = json.loads(out)
    assert env["conclusive"] is True
    assert env["ur_consistent"] is False
    assert env["violations"][0]["factor"] == "0"


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_oracle_rejects_a_bound_below_one(capsys, fib_file, bound):
    code, out, err = run(capsys, "oracle", "--json", "--max-factor", "8",
                         "--prefix", "10000", "--bound", bound, fib_file)
    assert code == 1
    env = json.loads(out)
    assert (env["command"], env["error"]) == ("oracle", f"linear bound must be at least 1, got {bound}")
    assert "conclusive" not in env
    assert "Traceback" not in err


# -- argument handling -----------------------------------------------------------------


def test_no_subcommand_fails(capsys):
    assert main([]) == 1


def test_unknown_flag_fails(capsys, fib_file):
    assert main(["decide-ur", "--frobnicate", fib_file]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
