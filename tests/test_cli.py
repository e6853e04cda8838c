"""The command-line surface: dispatch, output formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import carrymagma
from carrymagma import decode, format
from carrymagma.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSetVerbs:
    def test_oplus_annihilation(self, capsys):
        code, out, err = invoke(capsys, "oplus", "{0}", "{0,1}")
        assert (code, out, err) == (0, "{}\n", "")

    def test_invert_figure_example(self, capsys):
        code, out, _ = invoke(capsys, "invert", "{3,4,5,10,12}")
        assert code == 0
        assert out == "{3,5,6,10,11,12,13}\n"

    def test_solve_then_oplus_round_trip(self, capsys):
        code, out, _ = invoke(capsys, "solve", "{3,5}", "{2,4}")
        assert code == 0
        x = out.strip()
        code, out, _ = invoke(capsys, "oplus", "{3,5}", x)
        assert code == 0
        assert out.strip() == "{2,4}"

    def test_stretch(self, capsys):
        code, out, _ = invoke(capsys, "stretch", "{3,4,5,10,12}", "5")
        assert (code, out) == (0, "3\n")

    def test_large_inputs_finish_at_once(self, capsys):
        code, out, _ = invoke(capsys, "stretch", "{1}", "99999999999")
        assert (code, out) == (0, "0\n")
        run = "{" + ",".join(map(str, range(100_000))) + "}"
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "invert", run)
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out == "{" + ",".join(map(str, range(0, 100_000, 2))) + "}\n"

    def test_encode_decode(self, capsys):
        code, out, _ = invoke(capsys, "encode", "{0,2}")
        assert (code, out) == (0, "5\n")
        code, out, _ = invoke(capsys, "decode", "6")
        assert (code, out) == (0, "{1,2}\n")
        # a zero-led integer is valid, as a zero-led element is
        code, out, _ = invoke(capsys, "decode", "05")
        assert (code, out) == (0, "{0,2}\n")

    def test_orbit_lines(self, capsys):
        code, out, _ = invoke(capsys, "orbit", "{0}", "--iterations", "4")
        assert code == 0
        assert out == "{0}\n{1}\n{0,1}\n{}\n"

    def test_json_mode(self, capsys):
        code, out, _ = invoke(capsys, "oplus", "{0}", "{0,1}", "--json")
        assert code == 0
        assert json.loads(out) == {"result": "{}"}
        code, out, _ = invoke(capsys, "stretch", "{3,4,5}", "4", "--json")
        assert json.loads(out) == {"result": 2}


class TestExplorerVerbs:
    def test_assoc_plain(self, capsys):
        code, out, _ = invoke(capsys, "assoc", "{0}", "{0}", "{1}")
        assert code == 0
        assert out == "non-associative left={2} right={}\n"
        code, out, _ = invoke(capsys, "assoc", "{}", "{1}", "{2}")
        assert out == "associative\n"

    def test_scan_assoc_json(self, capsys):
        code, out, _ = invoke(capsys, "scan-assoc", "--bound", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_triples"] == 64
        assert payload["failing_triples"] == 12
        assert payload["first_witness"]["a"] == "{0}"

    @pytest.mark.parametrize("bound, total, failing", [
        (0, 1, 0), (1, 8, 0), (2, 64, 12), (3, 512, 168), (4, 4096, 1824),
        (5, 32768, 17760), (6, 262144, 163008)])
    def test_scan_assoc_bytes_pinned(self, capsys, bound, total, failing):
        # stdout as the triple-walking scan first printed it, byte for byte
        witness = bound >= 2
        code, out, err = invoke(capsys, "scan-assoc", "--bound", str(bound))
        assert (code, err) == (0, "")
        assert out == (f"total_triples: {total}\nfailing_triples: {failing}\n"
                       + ("first_witness: a={0} b={0} c={1} left={2} "
                          "right={}\n" if witness else ""))
        code, out, err = invoke(capsys, "scan-assoc", "--bound", str(bound),
                                "--json")
        assert (code, err) == (0, "")
        assert out == (
            f'{{"bound": {bound}, "total_triples": {total}, '
            f'"failing_triples": {failing}, "first_witness": '
            + ('{"a": "{0}", "b": "{0}", "c": "{1}", "left": "{2}", '
               '"right": "{}"}' if witness else "null") + "}\n")

    def test_search_subgroups_json_lines(self, capsys):
        code, out, _ = invoke(capsys, "search-subgroups", "--bound", "3",
                              "--max-size", "2")
        assert code == 0
        lines = out.strip().split("\n")
        *reports, summary = [json.loads(line) for line in lines]
        assert len(reports) == 8
        assert reports[0] == {"size": 1, "members": ["{}"],
                              "status": "subgroup", "witness": None}
        assert summary["candidates"] == 8
        assert summary["subgroup"] == 1

    def test_search_subgroups_default_max_size(self, capsys):
        code, out, _ = invoke(capsys, "search-subgroups", "--bound", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert json.loads(lines[-1])["candidates"] == 8

    def test_search_subgroups_bound_four_bytes_pinned(self, capsys):
        # the full sweep's output as first recorded, byte for byte
        code = run(["search-subgroups", "--bound", "4"])
        out = capsys.readouterr().out.encode()
        assert code == 0
        assert len(out) == 6_762_020
        assert hashlib.sha256(out).hexdigest() == (
            "aa855a1ce8ce987ada2df4a0ef84daec78af976567e57c2dd0314425c5b0391e")

    def test_search_subgroups_bound_five_bytes_pinned(self, capsys):
        # the one pin whose literals reach sets 32-63 of the table
        code = run(["search-subgroups", "--bound", "5", "--max-size", "3"])
        out = capsys.readouterr().out.encode()
        assert code == 0
        assert len(out) == 80_869
        assert hashlib.sha256(out).hexdigest() == (
            "879113183bf38e5c33d16abd9aa599287d3b54211d861c1705a346d1ed2b96b6")

    def test_adder_stats_object_and_key_order(self, capsys):
        code, out, _ = invoke(capsys, "adder-stats", "2")
        assert code == 0
        pairs = json.loads(out, object_pairs_hook=list)
        assert [k for k, _ in pairs] == ["width", "total_pairs", "exact_pairs",
                                         "max_abs_error", "iterations_max"]
        assert dict(pairs) == {"width": 2, "total_pairs": 16,
                               "exact_pairs": 14, "max_abs_error": 4,
                               "iterations_max": 2}


class TestExitCodes:
    def test_malformed_literal_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "oplus", "{0}", "oops")
        assert code == 2
        assert out == ""
        assert "oops" in err

    def test_unknown_verb(self, capsys):
        code, out, _ = invoke(capsys, "frobnicate", "{0}")
        assert code == 2
        assert out == ""

    def test_missing_argument(self, capsys):
        code, _, _ = invoke(capsys, "oplus", "{0}")
        assert code == 2

    def test_range_violation_names_limit(self, capsys):
        code, out, err = invoke(capsys, "scan-assoc", "--bound", "4762")
        assert (code, out) == (1, "")
        assert "8**bound triples must print within 4300 digits, so " \
               "bound <= 4761" in err
        code, out, err = invoke(capsys, "adder-stats", "7143")
        assert (code, out) == (1, "")
        assert "4**width pairs must print within 4300 digits, so " \
               "width <= 7142" in err

    @pytest.mark.parametrize("argv", [
        ("adder-stats", "2", "--json"),
        ("search-subgroups", "--bound", "1", "--json"),
    ])
    def test_json_flag_refused_where_output_is_always_json(self, capsys,
                                                           argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--json" in err

    # integer arguments are ASCII decimal digits, as set elements are
    @pytest.mark.parametrize("text", ["-4", "1_0", "+5", " 5", "\u0663"],
                             ids=["minus", "underscore", "plus", "space",
                                  "arabic-indic"])
    def test_negative_integer_is_usage_error(self, capsys, text):
        code, out, err = invoke(capsys, "decode", "--", text)
        assert (code, out) == (2, "")
        assert f"{text!r} is not a decimal natural number" in err

    def test_duplicate_element_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "invert", "{1,1}")
        assert code == 2
        assert "duplicate" in err

    @pytest.mark.parametrize("argv", [
        ("search-subgroups", "--bound", "9"),
        ("search-subgroups", "--bound", "3", "--max-size", "20"),
    ])
    def test_search_range_errors(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv)
        assert code == 1
        assert out == ""

    def test_element_cap_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "oplus", "{16777216}", "{}")
        assert (code, out) == (2, "")
        assert "16777216" in err

    def test_candidate_cap_exits_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "search-subgroups", "--bound", "5")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert "2147483648 candidates > limit 65536" in err

    def test_orbit_cap_exits_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "orbit", "{0}", "--iterations",
                                "1000000000000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert ("1000000000000 iterations cost 2048000000000000 bits > "
                "limit 134217728") in err

    def test_orbit_cap_weighs_set_width(self, capsys):
        # 65536 iterations pass an iteration count cap, but each iterate
        # of {16777215} has up to 2**24 + 1 bits
        start = time.perf_counter()
        code, out, err = invoke(capsys, "orbit", "{16777215}",
                                "--iterations", "65536")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert ("65536 iterations cost 1099511693312 bits > limit "
                "134217728") in err

    def test_orbit_cap_weighs_the_literal(self, capsys):
        # {0..20999} fits in one argv string, but each iterate prints up
        # to 42,000 members of 5 digits, far more than its 21,001 bits;
        # weighed by bits alone, 6391 iterations would print about 730 MB
        dense = "{" + ",".join(map(str, range(21000))) + "}"
        start = time.perf_counter()
        code, out, err = invoke(capsys, "orbit", dense, "--iterations",
                                "6391")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert "6391 iterations cost 12884358256 bits > limit" in err
        code, out, _ = invoke(capsys, "orbit", dense, "--iterations", "66")
        assert code == 0
        assert out.count("\n") == 66
        code, out, _ = invoke(capsys, "orbit", dense, "--iterations", "67")
        assert (code, out) == (1, "")

    def test_encode_digit_limit(self, capsys):
        # the largest set in encoding order whose integer has 4300 digits
        code, out, err = invoke(capsys, "encode", format(decode(10**4300 - 1)))
        assert (code, out, err) == (0, "9" * 4300 + "\n", "")
        code, out, err = invoke(capsys, "encode", format(decode(10**4300)))
        assert (code, out) == (1, "")
        assert "<14285-bit integer> does not print within 4300 digits" in err
        code, _, err = invoke(capsys, "encode", format(decode(10**4301 - 1)))
        assert code == 1
        assert "<14288-bit integer> does not print within 4300 digits" in err
        code, out, err = invoke(capsys, "encode", "{20000}", "--json")
        assert (code, out) == (1, "")
        assert "<20001-bit integer> does not print within 4300 digits" in err

    def test_encode_limit_ignores_python_setting(self):
        # with the interpreter's own limit lifted, str() of 2**16777215
        # would be a quadratic 5M-digit conversion
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "carrymagma.cli", "encode", "{16777215}"],
            env=cli_env(PYTHONINTMAXSTRDIGITS="0"), capture_output=True,
            text=True, timeout=60)
        assert time.perf_counter() - start < 1
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "<16777216-bit integer> does not print within 4300 digits" \
            in proc.stderr

    @pytest.mark.parametrize("nines", [4297, 4300])
    def test_orbit_cost_past_the_digit_limit_is_refused(self, nines):
        # k * 2048 bits has more than 4300 digits, so the refusal names
        # the cost by its bit length instead of failing to print it
        proc = subprocess.run(
            [sys.executable, "-m", "carrymagma.cli", "orbit", "{0}",
             "--iterations", "9" * nines],
            env=cli_env(), capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("carrymagma orbit: " + "9" * nines +
                                      " iterations cost <")
        assert proc.stderr.endswith("-bit integer> bits > limit 134217728: "
                                    "ask for fewer iterations\n")
        assert proc.stderr.count("\n") == 1

    def test_console_script_lifts_a_lower_python_setting(self):
        # main() pins the interpreter's limit at 4300 digits, so a lower
        # setting refuses neither the 904-digit result nor the argument
        env = cli_env(PYTHONINTMAXSTRDIGITS="640")
        proc = subprocess.run(
            [sys.executable, "-m", "carrymagma.cli", "encode", "{3000}"],
            env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == str(1 << 3000) + "\n"
        assert len(proc.stdout) == 904 + 1
        proc = subprocess.run(
            [sys.executable, "-m", "carrymagma.cli", "decode", "9" * 700],
            env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == format(decode(10**700 - 1)) + "\n"

    def test_probes_answer_up_to_the_digit_limit(self):
        # main() pins the interpreter's limit, so a 4300-digit total
        # prints under a lower setting too
        def cli(*argv):
            return subprocess.run(
                [sys.executable, "-m", "carrymagma.cli", *argv],
                env=cli_env(PYTHONINTMAXSTRDIGITS="640"), capture_output=True,
                text=True, timeout=60)

        proc = cli("scan-assoc", "--bound", "4761", "--json")
        assert (proc.returncode, proc.stderr) == (0, "")
        total = json.loads(proc.stdout)["total_triples"]
        assert (total, len(str(total))) == (8**4761, 4300)
        proc = cli("adder-stats", "7142")
        assert (proc.returncode, proc.stderr) == (0, "")
        total = json.loads(proc.stdout)["total_pairs"]
        assert (total, len(str(total))) == (4**7142, 4300)
        proc = cli("scan-assoc", "--bound", "4762")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "8**bound triples" in proc.stderr
        assert "4300 digits, so bound <= 4761" in proc.stderr
        proc = cli("adder-stats", "7143")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "4**width pairs" in proc.stderr
        assert "4300 digits, so width <= 7142" in proc.stderr

    def test_search_bound_checked_before_allocation(self, capsys):
        # 1 << 99999999999 alone would be a 12.5 GB integer
        tracemalloc.start()
        try:
            code, out, err = invoke(capsys, "search-subgroups", "--bound",
                                    "99999999999")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert "bound 99999999999 out of range" in err
        assert peak < 1 << 20

    def test_closed_pipe_ends_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "carrymagma.cli", "search-subgroups",
             "--bound", "4"],
            env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b'{"size": 1,')
        proc.stdout.close()  # 6.7 MB of lines remain unread
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""  # no BrokenPipeError traceback

    def test_long_integer_argument_names_limit(self, capsys):
        code, out, err = invoke(capsys, "decode", "9" * 4400)
        assert (code, out) == (2, "")
        assert "4400 characters" in err
        assert "capped at 4300 digits" in err
        assert "9" * 100 not in err
        code, out, _ = invoke(capsys, "decode", "9" * 4300)
        assert code == 0

    def test_success_stream_clean_on_success(self, capsys):
        code, out, err = invoke(capsys, "oplus", "{1,2}", "{2,3}")
        assert code == 0
        assert err == ""
        assert out.count("\n") == 1


def cli_env(**extra) -> dict:
    """The environment for a fresh interpreter that imports this tree."""
    src = str(Path(carrymagma.__file__).parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_stays_light():
    # a fresh interpreter, so nothing imported by other tests counts
    subprocess.run(
        [sys.executable, "-c",
         "import carrymagma.cli, sys; assert 'numpy' not in sys.modules"],
        env=cli_env(), check=True)
