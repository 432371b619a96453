import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from nbracket import cli, expand
from nbracket.cli import IDENTITIES, main

from support import serial_pool

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def masked(doc):
    if "elapsed_ms" in doc:
        doc = dict(doc, elapsed_ms=0)
    return doc


@pytest.mark.parametrize(
    "name, argv",
    [
        ("expand_abc.json", ["expand", "[ABC]", "--format", "json"]),
        ("expand_product.json", ["expand", "[AD,B,C]", "--format", "json"]),
        ("reduce_nested_l1.json", ["reduce", "[[A[bcd]e]fg]", "--format", "json"]),
        ("verify_bremner_1.json", ["verify", "bremner", "1", "--format", "json"]),
        ("verify_sums_10.json", ["verify", "sums", "10", "--format", "json"]),
        ("verify_even_4.json", ["verify", "even", "4", "--format", "json"]),
        ("verify_odd_reduce_3.json", ["verify", "odd-reduce", "3", "--format", "json"]),
        ("verify_decomp_1.json", ["verify", "decomp", "1", "--format", "json"]),
    ],
)
def test_json_output_matches_golden(capsys, name, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 0
    golden = json.loads((GOLDEN / name).read_text())
    assert masked(doc) == golden
    assert list(doc) == list(golden)


def test_expand_text_words(capsys):
    code, out, _ = run(capsys, "expand", "[ABC]")
    assert code == 0
    assert out.splitlines() == [
        "+1 A B C",
        "-1 A C B",
        "-1 B A C",
        "+1 B C A",
        "+1 C A B",
        "-1 C B A",
    ]


def test_expand_single_entry(capsys):
    code, out, _ = run(capsys, "expand", "[A]")
    assert code == 0
    assert out.strip() == "+1 A"


def test_expand_of_cancelling_words(capsys):
    for fmt in ("text", "latex"):
        code, out, _ = run(capsys, "expand", "[AA]", "--format", fmt)
        assert code == 0 and out == "0\n", fmt
    code, doc = run_json(capsys, "expand", "[AA]", "--format", "json")
    assert code == 0
    assert doc["terms"] == [] and doc["count"] == 0


def test_reduce_zero_profile(capsys):
    code, out, _ = run(capsys, "reduce", "[b1[b2 b3]]")
    assert code == 0
    assert out.strip() == "0"


def test_reduce_small_profile(capsys):
    code, doc = run_json(capsys, "reduce", "[A b1 b2]", "--format", "json")
    assert code == 0
    assert doc["profile"] == [2, 2, 2]
    assert {c["pattern"]: c["coefficient"] for c in doc["classes"]} == {
        "A b* b*": 2,
        "b* A b*": -2,
        "b* b* A": 2,
    }


def test_reduce_profile_keeps_vanishing_classes(capsys):
    code, out, _ = run(capsys, "reduce", "[A [b1 b2] b3]")
    assert code == 0
    assert out.splitlines()[-1] == "profile m_n: [0, -2, -2, 0] with class coefficient (-1)^n m_n"
    for expr, profile in (("[A [b1 b2] b3]", [0, -2, -2, 0]), ("[A (b1 b2)]", [1, 0, -1])):
        code, doc = run_json(capsys, "reduce", expr, "--format", "json")
        assert code == 0 and doc["profile"] == profile


def test_reduce_takes_a_wide_bracket_below_the_root_on_the_fast_path(capsys):
    for wide in ("[A [[b1 b2][b3 b4][b5 b6]] b7]", "[A [[b1 b2 b3][b4 b5 b6][b7 b8 b9]] b10]"):
        docs = {}
        for path in ("fast", "oracle", "auto"):
            code, docs[path] = run_json(capsys, "reduce", wide, "--path", path,
                                        "--format", "json")
            assert code == 0, (wide, path)
        assert [docs[p]["path"] for p in docs] == ["fast", "oracle", "oracle"], wide
        assert docs["fast"]["classes"] == docs["oracle"]["classes"] == docs["auto"]["classes"]
        code, out, err = run(capsys, "reduce", wide, "--path", "fast")
        assert code == 0 and err == "" and out, wide


def test_reduce_auto_checks_a_wide_shape_as_the_fast_route_first(capsys):
    # 36 collapsed words, 288 literal: auto reports the fast budget before the
    # oracle's, and a repeated index before either
    wide = "[A [[b1 b2][b3 b4][b5 b6]] b7]"
    for argv, code_err in (
        ([wide, "--budget", "35"], (3, "budget error: fast expansion needs 36 words")),
        ([wide, "--budget", "36"], (3, "budget error: oracle expansion needs 288 words")),
        ([wide.replace("b3", "b1"), "--budget", "1"], (2, "input error: family indices")),
    ):
        code, out, err = run(capsys, "reduce", *argv)
        assert (code, err[:len(code_err[1])], out) == (*code_err, ""), argv


def test_reduce_paths_agree(capsys):
    _, fast_doc = run_json(capsys, "reduce", "[[Abc][def]g]", "--format", "json",
                           "--path", "fast")
    _, oracle_doc = run_json(capsys, "reduce", "[[Abc][def]g]", "--format", "json",
                             "--path", "oracle")
    assert fast_doc["classes"] == oracle_doc["classes"]
    assert fast_doc["path"] == "fast" and oracle_doc["path"] == "oracle"


def test_role_override(capsys):
    code, doc = run_json(capsys, "reduce", "[z b1 b2]", "--format", "json",
                         "--role", "z=fixed")
    assert code == 0
    assert doc["profile"] == [2, 2, 2]


def test_latex_output(capsys):
    code, out, _ = run(capsys, "reduce", "[A b1 b2]", "--format", "latex")
    assert code == 0
    assert out.strip() == r"2\,A B_{1} B_{2} - 2\,B_{1} A B_{2} + 2\,B_{1} B_{2} A"
    code, out, _ = run(capsys, "expand", "[A b1]", "--format", "latex")
    assert out.strip() == "A B_{1} - B_{1} A"


# ---------------------------------------------------------------------------
# exit codes


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "expand", "[A")
    assert code == 2
    assert "parse error" in err
    for command in ("expand", "reduce"):
        for opener, closer in (("[", "]"), ("(", ")")):
            code, _, err = run(capsys, command, opener * 2000 + "A" + closer * 2000)
            assert code == 2
            assert "parse error" in err and "offset 100" in err
        # an index past int()'s digit limit, reported by its digit count
        code, out, err = run(capsys, command, "[A b" + "7" * 5000 + "]")
        assert code == 2 and out == ""
        assert err == "parse error: family index too long: 5000 digits (offset 3)\n"


def test_duplicate_index_exit_code(capsys):
    code, _, err = run(capsys, "reduce", "[b1 b1]")
    assert code == 2
    assert "repeat" in err


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "reduce", "[[A[bcd]e]fg]", "--budget", "10",
                       "--path", "oracle")
    assert code == 3
    assert "budget" in err
    # (1000!)^2 words: the message abbreviates a count too long to print
    code, _, err = run(capsys, "verify", "even", "1000")
    assert code == 3 and "over 2^" in err
    # the budget is settled before any factorial-sized count or closed form is built
    for argv in (("verify", "even", "1000000"), ("verify", "bremner", "2000"),
                 ("verify", "bremner", str(10**40)), ("verify", "decomp", str(10**30)),
                 ("verify", "bremner", "9" * 1500), ("verify", "decomp", "9" * 1500),
                 ("bench", "1000000"), ("bench", str(10**40))):
        start = perf_counter()
        code, out, err = run(capsys, *argv)
        assert perf_counter() - start < 1, argv
        assert code == 3 and out == "" and err.startswith("budget error:"), argv


def test_expand_default_budget_fits_in_memory(capsys):
    # 10! words: over expand's own default, far under everyone else's
    start = perf_counter()
    code, out, err = run(capsys, "expand", "[abcdefghij]")
    assert perf_counter() - start < 1
    assert code == 3 and out == "" and err.startswith("budget error:")
    assert "term budget of 2000000" in err
    assert cli.read_argv(["reduce", "[A b1]"]).budget == cli.DEFAULT_TERM_BUDGET
    assert cli.read_argv(["expand", "[A b1]", "--budget", "7"]).budget == 7


def test_malformed_role_is_an_input_error(capsys):
    # é is a letter to str.isalpha(), but expressions hold ASCII letters only
    for override in ("zz=fixed", "é=fixed"):
        code, _, err = run(capsys, "reduce", "[a b]", "--role", override)
        assert code == 2 and err.startswith("input error:"), override


def test_internal_error_exit_code(capsys, monkeypatch):
    import nbracket.cli as cli

    def broken(args):
        raise RuntimeError("simulated bug")

    monkeypatch.setattr(cli, "cmd_reduce", broken)
    code, out, err = run(capsys, "reduce", "[A b1]")
    assert code == 5 and out == ""
    assert err.startswith("internal error:") and "RuntimeError: simulated bug" in err


def test_handlers_are_looked_up_per_call(capsys, monkeypatch):
    assert run(capsys, "reduce", "[A b1]")[0] == 0

    def broken(args):
        raise RuntimeError("simulated bug")

    monkeypatch.setattr(cli, "cmd_reduce", broken)
    code, out, err = run(capsys, "reduce", "[A b1]")
    assert code == 5 and out == "" and "RuntimeError: simulated bug" in err


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_is_an_output_error(unbuffered):
    # unbuffered, print itself fails; buffered, the final flush does
    for argv in (["verify", "bremner", "2", "--format", "json"], ["--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "nbracket", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONUNBUFFERED=unbuffered),
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("output error:"), argv
        assert len(proc.stderr.splitlines()) == 1, argv


def test_violated_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "even", "3")
    assert code == 1
    assert "violated" in out


def test_unsupported_parameter_exit_code(capsys):
    for argv in (("verify", "bremner"), ("verify", "sums"), ("verify", "decomp"), ("bench",)):
        for L in ("0", "-1"):
            code, out, err = run(capsys, *argv, L)
            assert code == 4 and out == "", argv
            assert err == f"unsupported: half-order must be an integer >= 1, got {L}\n", argv
    code, _, err = run(capsys, "verify", "odd-reduce", "4")
    assert code == 4
    for size in ("0", "-3"):
        code, _, err = run(capsys, "verify", "odd-reduce", size)
        assert code == 4, size
        assert "unsupported" in err
    # the reports would hold integers beyond the int-to-str digit limit
    for argv in (("sums", "320"), ("sums", "100000"), ("odd-reduce", "881", "--format", "json")):
        start = perf_counter()
        code, out, err = run(capsys, "verify", *argv)
        assert perf_counter() - start < 1, argv
        assert code == 4, argv
        assert out == "" and err.startswith("unsupported:"), argv
    # 1700! words: the one class's coefficient (text) and terms (json) are 1700!
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "reduce", WIDE_FLAT_BRACKET, "--format", fmt)
        assert code == 4 and out == "" and err.startswith("unsupported:"), fmt
    code, doc = run_json(capsys, "verify", "sums", "300", "--format", "json")
    assert code == 0 and len(doc["details"]["multiplicity_sum"]) == 4233


def _cli_exit_code(argv):
    """(exit code, stdout) of one in-process request."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


short_expressions = st.text(alphabet="[](), ABZbcd1", max_size=14)
commands = st.one_of(
    st.tuples(st.sampled_from(("expand", "reduce")), short_expressions),
    st.tuples(st.just("verify"), st.sampled_from(IDENTITIES), st.integers(-3, 400).map(str)),
)
# the last --budget wins over the test's own cap; no --threads value starts a pool
COMMON_FLAGS = (("--budget", "1"), ("--budget", "100"))
ROLE_FLAGS = (("--role", "Z=anti"), ("--role", "z=fixed"), ("--role", "b=fixed"))
REDUCE_FLAGS = (("--path", "auto"), ("--path", "oracle"), ("--path", "fast"), ("--threads", "1"))
MALFORMED_FLAGS = (("--budget", "0"), ("--budget", "-1"), ("--budget", "x"),
                   ("--threads", "0"), ("--threads", "x"), ("--no-such-flag",), ("-q",))
MALFORMED_ROLES = (("--role", "zz=fixed"), ("--role", "Z=other"), ("--role", "=anti"),
                   ("--role", "Z"), ("--role", "é=fixed"))


def _with_flags(command):
    choices = COMMON_FLAGS + MALFORMED_FLAGS
    if command[0] in ("expand", "reduce"):
        choices += ROLE_FLAGS + MALFORMED_ROLES
    if command[0] == "reduce":
        choices += REDUCE_FLAGS
    return st.tuples(st.just(command), st.lists(st.sampled_from(choices), max_size=3))


WIDE_FLAT_BRACKET = "[" + " ".join(f"b{i}" for i in range(1, 1701)) + "]"


@settings(max_examples=150, deadline=None)
@given(commands.flatmap(_with_flags), st.sampled_from(("text", "json", "latex")))
@example((("verify", "sums", "320"), []), "text")
@example((("reduce", WIDE_FLAT_BRACKET), []), "json")
@example((("reduce", "[Z b1]"), [("--role", "Z=anti"), ("--path", "oracle")]), "json")
@example((("verify", "even", "4"), [("--budget", "x")]), "json")
@example((("reduce", "[A b1]"), [("--threads", "1")]), "json")
def test_cli_exits_with_a_documented_code(command_and_flags, fmt):
    command, flags = command_and_flags
    argv = [*command, "--format", fmt, "--budget", "10000", *(a for f in flags for a in f)]
    code, out = _cli_exit_code(argv)
    if any(f in MALFORMED_FLAGS + MALFORMED_ROLES for f in flags):
        assert code == 2, argv
    elif command[:2] == ("verify", "even") and int(command[2]) % 2:
        # odd N really violates the even identity
        assert code in (1, 3, 4), argv
    else:
        assert code in (0, 2, 3, 4), argv
    if command[0] == "verify" and fmt == "json" and code in (0, 1):
        assert (json.loads(out)["status"] == "verified") == (code == 0), argv


# ---------------------------------------------------------------------------
# the command table


DEFAULTS = {
    "expand": {"expr": "[A b1]", "role": None, "format": "text", "budget": 2 * 10**6},
    "reduce": {"expr": "[A b1]", "role": None, "format": "text", "budget": 10**8,
               "threads": 1, "path": "auto"},
    "verify": {"identity": "sums", "param": 1, "format": "text", "budget": 10**8,
               "record": None},
    "bench": {"L": 1, "format": "text", "budget": 10**8, "threads": 1},
}


def test_each_command_has_its_documented_defaults():
    for command, values in DEFAULTS.items():
        positionals = [str(values[k]) for k in ("expr", "identity", "param", "L") if k in values]
        assert vars(cli.read_argv([command, *positionals])) == {"command": command, **values}


@pytest.mark.parametrize("argv, changed", [
    (["reduce", "[A b1]", "--format", "json"], {"format": "json"}),
    (["reduce", "[A b1]", "--format=latex"], {"format": "latex"}),
    (["reduce", "--path", "fast", "--threads=2", "[A b1]"], {"path": "fast", "threads": 2}),
    (["reduce", "[A b1]", "--budget", "1", "--budget=100"], {"budget": 100}),
    (["reduce", "[A b1]", "--role", "Z=anti", "--role=z=fixed"], {"role": ["Z=anti", "z=fixed"]}),
    (["reduce", "[A b1]", "--threads", "auto"], {"threads": os.cpu_count() or 1}),
    (["expand", "--role", "z=fixed", "[A b1]", "--budget", "7"], {"role": ["z=fixed"], "budget": 7}),
    (["verify", "sums", "-1"], {"param": -1}),
    (["verify", "--record", "log.ndjson", "sums", "1"], {"record": "log.ndjson"}),
    (["bench", "-3", "--format", "json"], {"L": -3, "format": "json"}),
])
def test_reader_accepts_every_documented_spelling(argv, changed):
    # options anywhere after the command, --name value or --name=value, the last
    # value winning but --role appending; -<digits> is a positional
    command = argv[0]
    assert vars(cli.read_argv(argv)) == {"command": command, **DEFAULTS[command], **changed}


@pytest.mark.parametrize("argv", [
    ["verify", "sums", "1", "--no-such-flag"],
    ["verify", "sums", "1", "-q"],
    ["verify", "sums", "1", "--form", "json"],  # no unique-prefix abbreviations
    ["verify", "sums", "1", "--", "--format"],  # no -- separator
    ["verify", "sums", "1", "--format"],
    ["verify", "sums", "1", "--record", "--format", "json"],
    ["verify", "sums"],
    ["verify", "sums", "1", "2"],
    ["verify", "nonsense", "1"],
    ["reduce", "[A b1]", "--path", "nowhere"],
    ["verify", "sums", "x"],
    ["bench", "1.5"],
    [],
    ["--format", "json", "verify", "sums", "1"],
    ["frobnicate", "1"],
])
def test_malformed_command_line_is_one_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "", argv
    assert err.startswith("input error:") and len(err.splitlines()) == 1, (argv, err)
    with pytest.raises(cli.UsageError):
        cli.read_argv(argv)


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0 and err == ""
    assert all(f"nbracket {command} " in out for command in cli.COMMANDS)
    for command in cli.COMMANDS:
        for flag in ("-h", "--help"):
            code, out, err = run(capsys, command, flag)
            assert code == 0 and err == "" and out.startswith(f"nbracket {command} ")
    # help wins wherever it stands, even beside a malformed argument
    code, out, _ = run(capsys, "verify", "nonsense", "--bogus", "-h")
    assert code == 0 and "--record PATH" in out


def test_each_command_lists_only_the_options_it_reads(capsys):
    samples = {"expand": ["[A b1]"], "reduce": ["[A b1]"], "verify": ["sums", "1"], "bench": ["1"]}
    for command, positionals in samples.items():
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        listed = set(re.findall(r"--[a-z]+", out)) - {"--help"}
        read = set()

        class Recording(SimpleNamespace):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        args = Recording(**vars(cli.read_argv([command, *positionals])))
        assert getattr(cli, f"cmd_{command}")(args) == 0
        capsys.readouterr()
        assert listed and listed <= {f"--{name}" for name in read}, command


def test_consecutive_calls_keep_no_state(capsys):
    code, doc = run_json(capsys, "reduce", "[Z b1]", "--role", "Z=anti", "--format", "json")
    assert code == 0 and [c["pattern"] for c in doc["classes"]] == ["b* b*"]
    code, out, _ = run(capsys, "reduce", "[Z b1]")
    assert code == 0 and out.splitlines()[:2] == ["+1 Z b*", "-1 b* Z"]
    code, _, err = run(capsys, "reduce", "[A b1]", "--path", "nowhere")
    assert code == 2 and err.startswith("input error:")
    code, out, _ = run(capsys, "expand", "[A b1]")
    assert code == 0 and out.splitlines() == ["+1 A b1", "-1 b1 A"]


# ---------------------------------------------------------------------------
# record log and determinism


def test_record_appends_verified_reports(capsys, tmp_path):
    log = tmp_path / "results.ndjson"
    code, _, _ = run(capsys, "verify", "sums", "2", "--record", str(log))
    assert code == 0
    code, _, _ = run(capsys, "verify", "even", "3", "--record", str(log))
    assert code == 1
    code, _, _ = run(capsys, "verify", "bremner", "1", "--record", str(log))
    assert code == 0
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert [doc["identity"] for doc in lines] == ["sums", "bremner"]
    assert all(doc["status"] == "verified" for doc in lines)


def test_record_skips_a_violated_sums_report(capsys, tmp_path, monkeypatch):
    import nbracket.identities as identities

    true_values = identities.reduced_multiplicity
    monkeypatch.setattr(identities, "reduced_multiplicity",
                        lambda n, L: true_values(n, L) + (n == 2))
    log = tmp_path / "results.ndjson"
    log.write_text("")
    code, out, _ = run(capsys, "verify", "sums", "1", "--record", str(log))
    assert code == 1
    assert "violated" in out
    assert log.read_text() == ""


def test_record_into_an_unwritable_path_is_an_input_error(capsys, tmp_path):
    for path in (tmp_path / "missing" / "results.ndjson", tmp_path):
        code, out, err = run(capsys, "verify", "sums", "2", "--record", str(path))
        assert code == 2, path
        assert "verified" in out and err.startswith("input error:"), path


def test_thread_count_does_not_change_output(capsys):
    # three composite entries: --path auto takes the oracle, which starts workers
    wide = "[[A b1] [Z b2] [Q b3]]"
    _, out1, _ = run(capsys, "reduce", wide, "--path", "auto", "--format", "json",
                     "--threads", "1")
    _, out2, _ = run(capsys, "reduce", wide, "--path", "auto", "--format", "json",
                     "--threads", "2")
    assert out1 == out2
    assert json.loads(out1)["path"] == "oracle"
    _, red1, _ = run(capsys, "reduce", "[[A[bcd]e]fg]", "--format", "json",
                     "--path", "oracle", "--threads", "1")
    _, red2, _ = run(capsys, "reduce", "[[A[bcd]e]fg]", "--format", "json",
                     "--path", "oracle", "--threads", "2")
    assert red1 == red2


# ---------------------------------------------------------------------------
# bench


def test_verify_latex_prints_the_resolution(capsys):
    code, out, _ = run(capsys, "verify", "bremner", "1", "--format", "latex")
    assert code == 0
    series = out.strip()
    assert series.startswith(r"24\,A B_{1} B_{2} B_{3} B_{4} B_{5} B_{6}")
    assert r"- 36\,B_{1} A B_{2} B_{3} B_{4} B_{5} B_{6}" in series
    assert series.endswith(r"+ 24\,B_{1} B_{2} B_{3} B_{4} B_{5} B_{6} A")


def test_verify_decomp_text_mentions_coefficients(capsys):
    code, out, _ = run(capsys, "verify", "decomp", "1")
    assert code == 0
    assert "1/20" in out and "-1/6" in out


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "nbracket", "expand", "[A b1]"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["+1 A b1", "-1 b1 A"]


def test_bench_reports_parallel_speedup(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, doc = run_json(capsys, "bench", "1", "--format", "json", "--threads", "2")
    assert code == 0
    paths = [r["path"] for r in doc["rows"]]
    assert "oracle x2" in paths
    scaled = next(r for r in doc["rows"] if r["path"] == "oracle x2")
    assert "speedup" in scaled["note"]


@pytest.mark.parametrize("cpus, parallel", [(2, ["oracle x2"] * 2), (1, [])])
def test_bench_names_the_workers_that_start(capsys, monkeypatch, cpus, parallel):
    # --threads 3 starts min(3, cpus) workers; one worker is no parallel row
    sizes = []
    monkeypatch.setattr(expand, "ProcessPoolExecutor", serial_pool(sizes))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code, doc = run_json(capsys, "bench", "1", "--format", "json", "--threads", "3")
    assert code == 0
    assert [r["path"] for r in doc["rows"] if r["path"].startswith("oracle x")] == parallel
    assert sizes == [cpus] * len(parallel)


def test_bench_text_table(capsys):
    code, out, _ = run(capsys, "bench", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["shape", "path", "words", "ms", "classes", "note"]
    assert any("fast" in line and "split" in line for line in lines)
    assert any("oracle" in line and "nested" in line for line in lines)
    # bench has no LaTeX table, so it refuses --format latex
    code, out, err = run(capsys, "bench", "1", "--format", "latex")
    assert code == 2 and out == "" and err.startswith("input error:")


def test_bench_json_skips_oracle_over_budget(capsys):
    code, doc = run_json(capsys, "bench", "2", "--format", "json",
                         "--budget", "100000")
    assert code == 0
    oracle_rows = [r for r in doc["rows"] if r["path"] == "oracle"]
    assert oracle_rows and all("skipped" in r["note"] for r in oracle_rows)
    fast_rows = [r for r in doc["rows"] if r["path"] == "fast"]
    assert fast_rows and all(r["classes"] == 13 for r in fast_rows)


def test_verify_bremner_refuses_an_unprintable_profile(capsys, monkeypatch):
    # L = 305 fits a budget of 10^9 collapsed words, but its largest m_n would
    # have 4314 digits; refused before either shape is built
    start = perf_counter()
    code, out, err = run(capsys, "verify", "bremner", "305", "--budget", str(10**9))
    assert perf_counter() - start < 1
    assert code == 4 and out == "" and err.startswith("unsupported:")
    # L = 304 prints, with 4297 digits; the closed form stands in for the fast route
    import nbracket.identities as identities

    monkeypatch.setattr(identities, "bremner_profiles",
                        lambda L, budget: (identities.CoefficientProfile.closed_form(L),) * 2)
    code, doc = run_json(capsys, "verify", "bremner", "304", "--budget", str(10**9),
                         "--format", "json")
    assert code == 0 and doc["status"] == "verified"
    assert max(len(str(m)) for m in doc["profile"]) == 4297


json_values = st.recursive(
    st.one_of(st.text(), st.integers(), st.integers(2**64, 2**80), st.integers(-2**80, -2**64),
              st.floats(), st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(st.text(), inner)),
    max_leaves=25,
)


@given(json_values)
@example({"": [], "\x00é\u2028": {}, "n": [2**70, -2**70, 1.5, float("nan"), True, None]})
def test_json_writer_matches_json_dumps_with_indent_2(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def test_bench_refuses_an_unprintable_word_count(capsys):
    # L = 400 fits a budget of 10^9 collapsed words, but ((2L+1)!)^3 has
    # about 5900 digits; refused before either shape is built
    start = perf_counter()
    code, out, err = run(capsys, "bench", "400", "--budget", str(10**9))
    assert perf_counter() - start < 1
    assert code == 4 and out == "" and err.startswith("unsupported:")
