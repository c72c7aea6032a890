"""
Tests for the command-line interface.

Every CLI golden is one entry of `tests/golden/MANIFEST.json`: its argv,
expected exit code, golden file and, optionally, the name of a document
built into the working directory first.  One test runs each entry as a
`python -m operadics` subprocess (the `cli_process` runner of
`tests/conftest.py`) from a temporary directory, and requires the exit
code, exactly the golden on standard output and nothing on standard error.
The other tests run `cli.main` in process through the `cli_run` runner,
which returns what the subprocess would, except where the process itself
is under test: packaged documents resolving by bare name from any working
directory, and unreadable files.  The size-guard tests stub the builders,
so that no large input is built; the `operad check` guard reads a comm
document up to arity 7 (630 KB) and stubs the check.
"""

import json
from pathlib import Path

import pytest

from operadics import cli, free_monad, g_operads
from operadics.action_operads import instance_trivial
from operadics.braids import braid_identity
from operadics.permutations import identity
from operadics.reporting import Report

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE_DATA = Path(__file__).parent.parent / "src" / "operadics" / "data"
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text())


def _with_result(document: dict, n: int, ks: list, args: list, result: str) -> dict:
    """The document with its one compose record at (n, ks, args) answering result."""
    (record,) = [r for r in document["compose"] if (r["n"], r["ks"], r["args"]) == (n, ks, args)]
    record["result"] = result
    return document


def _ass4() -> dict:
    return g_operads.write_operad_document(g_operads.operad_ass(4))


# The documents that manifest entries name, each written into the working
# directory as `<name>.json`, since a report's title is the file's stem.
DOCUMENTS = {
    "ass4": _ass4,
    # mu(12; 21, 12) answers 1234 instead of 2134: associativity fails at its
    # 24,869th case, the first that reads that entry as an inner composite,
    # and both equivariance laws fail too.
    "ass4_swapped": lambda: _with_result(_ass4(), 2, [2, 2], ["12", "21", "12"], "1234"),
    # The packaged ass.json with mu(132; 1, 12, e) answering 213 instead of
    # 123: associativity fails after 1,160 cases that hold, and both
    # equivariance laws fail too.
    "ass_swapped_compose": lambda: _with_result(
        json.loads((PACKAGE_DATA / "ass.json").read_text()), 3, [1, 2, 0], ["132", "1", "12", "e"], "213"
    ),
    # A symmetric document whose only label is the unit, with max_arity 12:
    # no law walks an empty level or lists its group elements, so the report
    # is the one the same document gives at max_arity 5.
    "unit_sym": lambda: json.loads((FIXTURES / "unit_sym.json").read_text()),
    # The terminal operad over the symmetric groups up to arity 5, where the
    # group laws are decided on the generators of Sigma_0..Sigma_5.
    "comm5": lambda: g_operads.write_operad_document(g_operads.operad_comm(max_arity=5)),
}


@pytest.mark.parametrize("entry", MANIFEST, ids=[Path(entry["golden"]).stem for entry in MANIFEST])
def test_golden_invocation(tmp_path, cli_process, entry):
    if "document" in entry:
        name = entry["document"]
        (tmp_path / f"{name}.json").write_text(json.dumps(DOCUMENTS[name]()))
    result = cli_process(*entry["argv"], cwd=tmp_path)
    golden = (GOLDEN / entry["golden"]).read_text()
    assert (result.returncode, result.stdout, result.stderr) == (entry["exit"], golden, "")


def test_the_manifest_names_every_golden_once_and_uses_every_document():
    # handle_reduce_seeded.txt is read by tests/test_handle_reduce.py, not a CLI golden.
    goldens = sorted(path.name for path in GOLDEN.glob("*.txt") if path.name != "handle_reduce_seeded.txt")
    assert sorted(entry["golden"] for entry in MANIFEST) == goldens
    assert {entry["document"] for entry in MANIFEST if "document" in entry} == set(DOCUMENTS)
    assert all(set(entry) <= {"argv", "exit", "golden", "document"} for entry in MANIFEST)


def test_braid_eq_uses_exit_codes_for_the_verdict(cli_run):
    equal = cli_run("braid", "eq", "-n", "3", "1", "2", "1", "--", "2", "1", "2")
    assert (equal.returncode, equal.stdout) == (0, "equal\n")

    unequal = cli_run("braid", "eq", "-n", "3", "1", "2", "--", "2", "1")
    assert (unequal.returncode, unequal.stdout) == (1, "unequal\n")

    inverse_pair = cli_run("braid", "eq", "-n", "4", "2", "-2", "--")
    assert (inverse_pair.returncode, inverse_pair.stdout) == (0, "equal\n")


def test_braid_eq_usage_errors_exit_two(cli_run):
    missing_separator = cli_run("braid", "eq", "-n", "3", "1", "2")
    assert missing_separator.returncode == 2
    assert "'--' separator" in missing_separator.stderr

    bad_letter = cli_run("braid", "eq", "-n", "3", "5", "--", "1")
    assert bad_letter.returncode == 2
    assert "word position 1" in bad_letter.stderr
    assert "3 strands" in bad_letter.stderr

    helped = cli_run("braid", "eq", "--help")
    assert helped.returncode == 0
    assert "exits 0 when equal" in helped.stdout


def test_braid_pi_of_a_single_crossing(cli_run):
    result = cli_run("braid", "pi", "-n", "4", "2")
    assert (result.returncode, result.stdout) == (0, "1 3 2 4\n")


def test_braid_reduce_cancels_inverse_pairs(cli_run):
    result = cli_run("braid", "reduce", "-n", "3", "1", "-1", "2")
    assert (result.returncode, result.stdout) == (0, "2\n")
    trivial = cli_run("braid", "reduce", "-n", "3", "1", "-1")
    assert (trivial.returncode, trivial.stdout) == (0, "\n")


def test_braid_cable_expands_strands_to_bundles(cli_run):
    result = cli_run("braid", "cable", "-n", "2", "1", "--sizes", "2,2")
    assert (result.returncode, result.stdout) == (0, "2 1 3 2\n")


def test_braid_mu_reads_argument_words_from_a_file(tmp_path, cli_run):
    args_file = tmp_path / "args.txt"
    args_file.write_text("2: 1\n2: 1\n1:\n")
    result = cli_run("braid", "mu", "-n", "3", "2", "--args", str(args_file))
    assert (result.returncode, result.stdout) == (0, "1 3 4 3\n")

    args_file.write_text("2: 1\n")
    short = cli_run("braid", "mu", "-n", "3", "2", "--args", str(args_file))
    assert short.returncode == 2
    assert "needs 3 argument words, got 1" in short.stderr

    args_file.write_text("2 1\n")
    malformed = cli_run("braid", "mu", "-n", "3", "2", "--args", str(args_file))
    assert malformed.returncode == 2
    assert f"{args_file}:1:" in malformed.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("braid", "reduce", "-n", "-5", "1"),
        ("braid", "pi", "-n", "-5", "1"),
        ("braid", "cable", "-n", "-5", "1", "--sizes", "1"),
        ("braid", "mu", "-n", "-5", "1", "--args", "args.txt"),
        ("braid", "render", "-n", "-5", "1"),
        ("braid", "eq", "-n", "-5", "1", "--", "1"),
    ],
    ids=["reduce", "pi", "cable", "mu", "render", "eq"],
)
def test_a_negative_strand_count_is_refused_before_any_letter(tmp_path, cli_run, argv):
    # The count is the fault, not the letter it makes out of range.
    (tmp_path / "args.txt").write_text("1:\n")
    result = cli_run(*argv, cwd=tmp_path)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: strand count must be nonnegative, got -5\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("perm", "tau", "3", "-1"), "N -1: grid dimensions must be nonnegative"),
        (("tmn", "--family", "positive", "0", "3"), "M 0: grid dimensions must be at least 1"),
        (("verify", "pscomm", "--group", "symmetric", "--bound", "0"), "--bound 0: the index bound must be at least 1"),
        (
            ("verify", "pscomm", "--group", "braid", "--bound", "2"),
            "--bound 2: a bound of at least 3 is needed to see nondegenerate grids",
        ),
        (("operad", "free", "comm.json", "--carrier", "a,b", "--bound", "-1"),
         "--bound -1: the arity bound must be nonnegative"),
        (("operad", "compose", "comm.json", "comm.json", "--bound", "-1"),
         "--bound -1: the arity bound must be nonnegative"),
        (("operad", "free", "comm.json", "--carrier", "a,a"), "--carrier a,a: element 'a' is listed twice"),
        (("operad", "free", "comm.json", "--carrier", "a,,b"), "--carrier a,,b: element 2 is empty"),
        (("operad", "free", "comm.json", "--carrier", ","), "--carrier ,: element 1 is empty"),
        (("operad", "free", "comm.json", "--carrier", "a,b,"), "--carrier a,b,: element 3 is empty"),
        (("operad", "free", "comm.json", "--carrier", "a", "--bound", "9"),
         "--bound 9: the arity bound must be at most comm.json's, 4"),
    ],
    ids=[
        "perm tau", "tmn", "pscomm bound", "pscomm braid bound", "free bound", "compose bound", "free carrier",
        "free carrier empty element", "free carrier comma", "free carrier trailing comma", "free bound above",
    ],
)
def test_a_refused_argument_is_named_first(cli_run, argv, message):
    # Each refusal names the argument at fault, as the size guards do.
    result = cli_run(*argv)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")


def test_operad_free_reads_an_empty_carrier(cli_run):
    # An empty --carrier is the empty carrier: only arity 0 has classes.
    result = cli_run("operad", "free", "comm.json", "--carrier", "", "--bound", "2")
    listing = "n=0: [*;]\nn=1: (none)\nn=2: (none)\ntotal: 1 classes\n"
    assert (result.returncode, result.stdout, result.stderr) == (0, listing, "")


def test_braid_cable_reads_an_empty_size_list(cli_run):
    # A 0-strand word needs exactly the empty size list.
    result = cli_run("braid", "cable", "-n", "0", "--sizes", "")
    assert (result.returncode, result.stdout, result.stderr) == (0, "\n", "")
    missing = cli_run("braid", "cable", "-n", "1", "--sizes", "")
    assert missing.returncode == 2
    assert "cable needs 1 strand sizes, got 0" in missing.stderr


def test_braid_render_dot_escape_hatch(cli_run):
    result = cli_run("braid", "render", "-n", "2", "1", "--format", "dot")
    assert result.returncode == 0
    assert result.stdout.startswith("graph braid {\n")
    assert 'label="+1"' in result.stdout


def test_perm_tau_fixtures(cli_run):
    assert cli_run("perm", "tau", "2", "3").stdout == "1 3 5 2 4 6\n"
    assert cli_run("perm", "tau", "4", "2").stdout == "1 5 2 6 3 7 4 8\n"


def test_perm_compose_with_inverse_gives_identity(cli_run):
    result = cli_run("perm", "compose", "2", "3", "1", "--", "3", "1", "2")
    assert (result.returncode, result.stdout) == (0, "1 2 3\n")

    mismatch = cli_run("perm", "compose", "2", "1", "--", "1", "2", "3")
    assert mismatch.returncode == 2
    assert "cannot compose arity 2 with arity 3" in mismatch.stderr


def test_perm_inv(cli_run):
    result = cli_run("perm", "inv", "2", "3", "1")
    assert (result.returncode, result.stdout) == (0, "3 1 2\n")

    garbage = cli_run("perm", "inv", "2", "x")
    assert garbage.returncode == 2
    assert "permutation position 2" in garbage.stderr


def test_perm_mu_reads_argument_permutations_from_a_file(tmp_path, cli_run):
    args_file = tmp_path / "perms.txt"
    args_file.write_text("2 1\n1 2\n")
    result = cli_run("perm", "mu", "2", "1", "--args", str(args_file))
    assert (result.returncode, result.stdout) == (0, "4 3 1 2\n")


def test_tmn_prints_the_braid_lift(cli_run):
    positive = cli_run("tmn", "--family", "positive", "2", "2")
    assert (positive.returncode, positive.stdout) == (0, "2\n")
    negative = cli_run("tmn", "--family", "negative", "2", "2")
    assert (negative.returncode, negative.stdout) == (0, "-2\n")
    degenerate = cli_run("tmn", "--family", "positive", "0", "2")
    assert degenerate.returncode == 2


def test_verify_pscomm_braid_rejects_degenerate_bounds(cli_run):
    result = cli_run("verify", "pscomm", "--group", "braid", "--bound", "2")
    assert result.returncode == 2
    assert "at least 3" in result.stderr


def test_operad_cartesian_resolves_packaged_files_from_anywhere(tmp_path, cli_process):
    comm = cli_process("operad", "cartesian", "comm.json", cwd=tmp_path)
    assert comm.returncode == 1
    assert comm.stdout == 'CARTESIAN: NO  witness: arity 2, label "*", fixed by 2 1\n'

    ass = cli_process("operad", "cartesian", "ass.json", cwd=tmp_path)
    assert (ass.returncode, ass.stdout) == (0, "CARTESIAN: YES\n")

    trivial = cli_process("operad", "cartesian", "comm_trivial.json", cwd=tmp_path)
    assert (trivial.returncode, trivial.stdout) == (0, "CARTESIAN: YES\n")


def test_operad_cartesian_prefers_a_local_file(tmp_path, cli_run):
    # A file named like a packaged document but sitting in the working
    # directory wins the resolution.
    document = json.loads((PACKAGE_DATA / "ass.json").read_text())
    (tmp_path / "comm.json").write_text(json.dumps(document))
    result = cli_run("operad", "cartesian", "comm.json", cwd=tmp_path)
    assert (result.returncode, result.stdout) == (0, "CARTESIAN: YES\n")


def test_operad_check_passes_on_packaged_documents(tmp_path, cli_run):
    result = cli_run("operad", "check", "ass.json", cwd=tmp_path)
    assert result.returncode == 0
    assert result.stdout.rstrip().endswith("OK (8 laws)")


def test_operad_check_reports_json_errors_with_position(tmp_path, cli_run):
    bad = tmp_path / "bad.json"
    bad.write_text('{"group": "symmetric", bad\n')
    result = cli_run("operad", "check", str(bad), cwd=tmp_path)
    assert result.returncode == 2
    assert f"{bad}:1:24:" in result.stderr

    missing = cli_run("operad", "check", "nope.json", cwd=tmp_path)
    assert missing.returncode == 2
    assert "no such operad file" in missing.stderr

    invalid = tmp_path / "invalid.json"
    invalid.write_text('{"group": "symmetric"}\n')
    diagnosed = cli_run("operad", "check", str(invalid), cwd=tmp_path)
    assert diagnosed.returncode == 2
    assert "max_arity" in diagnosed.stderr


def _a_directory(tmp_path):
    path = tmp_path / "directory"
    path.mkdir()
    return path, "Is a directory"


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"1 2 \xe9\n")
    return path, "not UTF-8 text ("


@pytest.mark.parametrize("make", [_a_directory, _not_utf8], ids=["directory", "not-utf8"])
@pytest.mark.parametrize(
    "command",
    [["operad", "check"], ["braid", "mu", "-n", "2", "1", "--args"], ["perm", "mu", "2", "1", "--args"]],
    ids=["document", "word-file", "perm-file"],
)
def test_unreadable_files_are_located_errors(tmp_path, cli_process, make, command):
    path, reason = make(tmp_path)
    result = cli_process(*command, str(path), cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: {path}: {reason}")


def test_operad_check_takes_no_sample_flags(cli_run):
    # Only `verify all` samples group elements; `operad check` lists every
    # element of the finite groups its documents use.
    result = cli_run("operad", "check", "ass.json", "--budget", "5")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.endswith("error: unrecognized arguments: --budget 5\n")


def test_operad_example_prints_the_packaged_document(cli_run):
    result = cli_run("operad", "example", "comm")
    assert result.returncode == 0
    assert result.stdout == (PACKAGE_DATA / "comm.json").read_text()


def test_packaged_documents_regenerate_byte_identically():
    builders = {
        "comm": g_operads.operad_comm(max_arity=4),
        "ass": g_operads.operad_ass(max_arity=3),
        "comm_trivial": g_operads.operad_comm(instance_trivial(), max_arity=3),
    }
    for name, operad in builders.items():
        expected = json.dumps(g_operads.write_operad_document(operad), indent=2, sort_keys=True) + "\n"
        assert (PACKAGE_DATA / f"{name}.json").read_text() == expected


def test_verify_all_is_deterministic_and_green(tmp_path, cli_run):
    # The output itself is the manifest's `verify all` golden.
    first = cli_run("verify", "all", cwd=tmp_path)
    assert first.returncode == 0, first.stdout + first.stderr
    assert first.stdout.rstrip().endswith("VERIFY ALL: OK [13 suites]")
    assert "FAIL" not in first.stdout

    second = cli_run("verify", "all", cwd=tmp_path)
    assert second.stdout == first.stdout

    reseeded = cli_run("verify", "all", "--seed", "7", "--budget", "50", cwd=tmp_path)
    assert reseeded.returncode == 0


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_verify_all_refuses_a_budget_below_one(monkeypatch, cli_run, budget):
    # A budget of 0 would sample no element for any action-operad law.
    loaded = []
    monkeypatch.setattr(cli, "_load_document", lambda name: loaded.append(name))
    result = cli_run("verify", "all", "--budget", budget)
    assert (result.returncode, result.stdout, loaded) == (2, "", [])
    assert result.stderr == f"error: --budget {budget}: the sample budget per law must be at least 1\n"


def test_verify_all_runs_at_a_budget_of_one(cli_run):
    result = cli_run("verify", "all", "--budget", "1")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.rstrip().endswith("VERIFY ALL: OK [13 suites]")


def test_usage_errors_exit_two(cli_run):
    assert cli_run().returncode == 2
    assert cli_run("nonsense").returncode == 2
    assert cli_run("braid").returncode == 2
    assert cli_run("tmn", "2", "2").returncode == 2  # --family is required


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["braid", "mu", "-n", "2", "1"], "2: 1\n\n2 1\n", "3: expected 'STRANDS: LETTERS'"),
        (["braid", "mu", "-n", "2", "1"], "2: 1\nx: 1\n", "2: invalid literal for int() with base 10: 'x'"),
        (["braid", "mu", "-n", "2", "1"], "  \n2: 1 2\n", "2: generator 2 does not exist on 2 strands"),
        (["perm", "mu", "2", "1"], "2 1\n\n1 1\n", "3: not a permutation: duplicate value 1"),
        (["perm", "mu", "2", "1"], "1 x\n", "1: permutation entry 'x' is not an integer"),
        (["perm", "mu", "2", "1"], "\n3 1\n", "2: permutation value 3 out of range 1..2"),
    ],
    ids=["word-colon", "word-strands", "word-generator", "perm-duplicate", "perm-entry", "perm-range"],
)
def test_argument_file_errors_name_the_file_and_line(tmp_path, command, text, message, cli_run):
    args_file = tmp_path / "args.txt"
    args_file.write_text(text)
    result = cli_run(*command, "--args", str(args_file))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {args_file}:{message}\n"


@pytest.mark.parametrize("command", [["braid", "mu", "-n", "2", "1"], ["perm", "mu", "2", "1"]])
def test_a_missing_argument_file_is_a_located_error(tmp_path, command, cli_run):
    missing = tmp_path / "absent.txt"
    result = cli_run(*command, "--args", str(missing))
    assert (result.returncode, result.stderr) == (2, f"error: {missing}: no such file\n")


def test_perm_tau_refuses_grids_past_its_size_limit(monkeypatch, capsys):
    # Only the first refused size is run; at the limit the builder, stubbed
    # here so that nothing is allocated, is reached.
    built = []
    monkeypatch.setattr(cli, "tau", lambda m, n: built.append((m, n)) or identity(0))
    limit = cli.MAX_TAU_POINTS
    assert cli.main(["perm", "tau", str(limit + 1), "1"]) == 2
    assert capsys.readouterr().err == (
        f"error: a {limit + 1}x1 grid has {limit + 1} points, more than the limit {limit}\n"
    )
    assert built == []
    assert cli.main(["perm", "tau", "1", str(limit)]) == 0
    assert built == [(1, limit)]


def test_tmn_refuses_grids_past_its_strand_limit(monkeypatch, capsys):
    built = []
    family = lambda m, n: built.append((m, n)) or braid_identity(1)
    monkeypatch.setattr(cli, "t_family_braid_negative", lambda: family)
    limit = cli.MAX_STRANDS
    assert cli.main(["tmn", "--family", "negative", "1", str(limit + 1)]) == 2
    assert capsys.readouterr().err == (
        f"error: a 1x{limit + 1} grid has {limit + 1} strands, more than the limit {limit}\n"
    )
    assert built == []
    assert cli.main(["tmn", "--family", "negative", str(limit), "1"]) == 0
    assert built == [(limit, 1)]


def test_braid_cable_refuses_words_past_its_letter_limit(monkeypatch, capsys):
    # The letters are counted from the word and the sizes: 1 2 on cables of
    # 1, l and 1 strands crosses 1 with l, then 1 with 1 (the cables swap).
    built = []
    monkeypatch.setattr(cli.braids, "cable", lambda word, sizes: built.append(sizes) or braid_identity(1))
    limit = cli.MAX_CABLE_LETTERS
    sizes = f"1,{limit},1"
    assert cli.main(["braid", "cable", "-n", "3", "--sizes", sizes, "1", "2"]) == 2
    assert capsys.readouterr().err == (
        f"error: --sizes {sizes}: the cabled word has {limit + 1} letters, more than the limit {limit}\n"
    )
    assert built == []
    assert cli.main(["braid", "cable", "-n", "3", "--sizes", f"1,{limit - 1},1", "1", "2"]) == 0
    assert built == [[1, limit - 1, 1]]


def test_braid_eq_and_reduce_refuse_words_past_their_letter_limit(monkeypatch, capsys):
    # Both deciders are stubbed: only the guard in front of them runs.
    decided = []
    monkeypatch.setattr(cli.braids, "equal", lambda left, right: decided.append((left, right)) or True)
    monkeypatch.setattr(cli.braids, "handle_reduce", lambda word: decided.append(word) or braid_identity(3))
    limit = cli.MAX_WORD_LETTERS
    at_limit, past_limit = ["1", "-2"] * (limit // 2), ["1", "-2"] * (limit // 2) + ["1"]

    assert cli.main(["braid", "eq", "-n", "3", *past_limit, "--", "1"]) == 2
    assert capsys.readouterr().err == f"error: W1 has {limit + 1} letters, more than the limit {limit}\n"
    assert cli.main(["braid", "eq", "-n", "3", "1", "--", *past_limit]) == 2
    assert capsys.readouterr().err == f"error: W2 has {limit + 1} letters, more than the limit {limit}\n"
    assert cli.main(["braid", "reduce", "-n", "3", *past_limit]) == 2
    assert capsys.readouterr().err == f"error: the word has {limit + 1} letters, more than the limit {limit}\n"
    assert decided == []

    assert cli.main(["braid", "eq", "-n", "3", *at_limit, "--", *at_limit]) == 0
    assert cli.main(["braid", "reduce", "-n", "3", *at_limit]) == 0
    assert [len(word.word) for word in (*decided[0], decided[1])] == [limit, limit, limit]


# Each braid subcommand's argv for a one-letter word on n strands, the
# `braids` function it hands the word to, and what a stub of it returns.
BRAID_COMMANDS = {
    "eq": (lambda n: ["braid", "eq", "-n", n, "1", "--", "1"], "equal", True),
    "reduce": (lambda n: ["braid", "reduce", "-n", n, "1"], "handle_reduce", braid_identity(1)),
    "pi": (lambda n: ["braid", "pi", "-n", n, "1"], "underlying_permutation", identity(1)),
    "cable": (
        lambda n: ["braid", "cable", "-n", n, "--sizes", ",".join(["1"] * int(n)), "1"], "cable", braid_identity(1)
    ),
    "render": (lambda n: ["braid", "render", "-n", n, "1"], "render_ascii", ""),
    "render-dot": (lambda n: ["braid", "render", "--format", "dot", "-n", n, "1"], "render_dot", ""),
    "mu": (lambda n: ["braid", "mu", "-n", n, "--args", "ARGS", "1"], "mu_br", braid_identity(1)),
}


@pytest.mark.parametrize("excess, code", [(0, 0), (1, 2)], ids=["at-the-limit", "limit+1"])
@pytest.mark.parametrize("command", sorted(BRAID_COMMANDS))
def test_every_braid_subcommand_refuses_strands_past_the_limit(monkeypatch, tmp_path, cli_run, command, excess, code):
    # The function each subcommand calls is stubbed: at the limit it receives
    # the word, past it nothing is parsed beyond the strand count.
    argv, name, stubbed = BRAID_COMMANDS[command]
    received = []
    monkeypatch.setattr(cli.braids, name, lambda *args: received.append(args[0]) or stubbed)
    strands = cli.MAX_STRANDS + excess
    (tmp_path / "ARGS").write_text("1:\n" * strands)
    result = cli_run(*argv(str(strands)), cwd=tmp_path)
    assert result.returncode == code
    if excess:
        assert (result.stdout, result.stderr) == ("", (
            f"error: -n {strands}: the word has {strands} strands, more than the limit {cli.MAX_STRANDS}\n"
        ))
        assert received == []
    else:
        assert result.stderr == ""
        assert received[0].strands == strands


@pytest.mark.parametrize("excess, code", [(0, 0), (1, 2)], ids=["at-the-limit", "limit+1"])
def test_braid_mu_refuses_argument_words_past_the_strand_limit(monkeypatch, tmp_path, cli_run, excess, code):
    substituted = []
    monkeypatch.setattr(cli.braids, "mu_br", lambda word, arguments: substituted.append(arguments) or word)
    strands = cli.MAX_STRANDS + excess
    arguments = tmp_path / "args.txt"
    arguments.write_text(f"\n{strands}: 1\n")
    result = cli_run("braid", "mu", "-n", "1", "--args", str(arguments))
    assert result.returncode == code
    if excess:
        assert (result.stdout, result.stderr) == ("", (
            f"error: {arguments}:2: the word has {strands} strands, more than the limit {cli.MAX_STRANDS}\n"
        ))
        assert substituted == []
    else:
        assert [[(word.strands, word.word) for word in words] for words in substituted] == [[(strands, (1,))]]


@pytest.mark.parametrize("excess, code", [(0, 0), (1, 2)], ids=["at-the-limit", "limit+1"])
@pytest.mark.parametrize("command, name", [("pi", "underlying_permutation"), ("render", "render_ascii")])
def test_braid_pi_and_render_refuse_words_past_the_letter_limit(monkeypatch, cli_run, command, name, excess, code):
    received = []
    monkeypatch.setattr(cli.braids, name, lambda word: received.append(word) or identity(3))
    letters = cli.MAX_WORD_LETTERS + excess
    result = cli_run("braid", command, "-n", "3", *["1", "-2"] * (letters // 2), *["1"] * (letters % 2))
    assert result.returncode == code
    if excess:
        assert (result.stdout, result.stderr) == ("", (
            f"error: the word has {letters} letters, more than the limit {cli.MAX_WORD_LETTERS}\n"
        ))
        assert received == []
    else:
        assert [len(word) for word in received] == [letters]


@pytest.mark.parametrize("excess, code", [(0, 0), (1, 2)], ids=["at-the-limit", "limit+1"])
def test_braid_mu_refuses_a_substituted_word_past_the_cable_limit(monkeypatch, tmp_path, cli_run, excess, code):
    # 1 on two cables of 512 strands writes 512 * 512 = 2^18 letters, the
    # limit; one more letter in an argument passes it.
    assert cli.MAX_CABLE_LETTERS == 512 * 512
    substituted = []
    monkeypatch.setattr(cli.braids, "mu_br", lambda word, arguments: substituted.append(arguments) or word)
    arguments = tmp_path / "args.txt"
    arguments.write_text("512:\n512:" + " 1" * excess + "\n")
    result = cli_run("braid", "mu", "-n", "2", "--args", str(arguments), "1")
    assert result.returncode == code
    if excess:
        assert (result.stdout, result.stderr) == ("", (
            f"error: --args {arguments}: the substituted word has {512 * 512 + 1} letters, "
            f"more than the limit {cli.MAX_CABLE_LETTERS}\n"
        ))
        assert substituted == []
    else:
        assert (result.stdout, result.stderr) == ("1\n", "")
        assert [[word.strands for word in words] for words in substituted] == [[512, 512]]


def test_braid_mu_refuses_the_word_braid_cable_refuses(tmp_path, cli_run):
    # Two empty 1,000-strand arguments cable 1 into 1,000,000 letters, as
    # `braid cable --sizes 1000,1000` would.
    arguments = tmp_path / "args.txt"
    arguments.write_text("1000:\n1000:\n")
    mu = cli_run("braid", "mu", "-n", "2", "--args", str(arguments), "1")
    cable = cli_run("braid", "cable", "-n", "2", "--sizes", "1000,1000", "1")
    assert (mu.returncode, mu.stdout, cable.returncode, cable.stdout) == (2, "", 2, "")
    assert mu.stderr == (
        f"error: --args {arguments}: the substituted word has 1000000 letters, "
        f"more than the limit {cli.MAX_CABLE_LETTERS}\n"
    )


@pytest.mark.parametrize("group", ["symmetric", "braid"])
def test_verify_pscomm_refuses_bounds_past_its_limit(monkeypatch, capsys, group):
    # The sweeps are stubbed: bound 5 runs for about ten minutes.
    swept = []
    report = Report("stub")
    report.record("the family is symmetric: t(m,n) inverts t(n,m)", True, "", 1)
    monkeypatch.setattr(cli, "symmetric_theorem_report", lambda bound: swept.append(bound) or report)
    monkeypatch.setattr(cli, "braid_theorem_report", lambda bound: swept.append(bound) or report)
    monkeypatch.setattr(cli, "verify_symmetry", lambda *args, **kwargs: (False, (2, 2)))
    limit = cli.MAX_PSCOMM_BOUND
    assert limit == 5
    assert cli.main(["verify", "pscomm", "--group", group, "--bound", str(limit + 1)]) == 2
    assert capsys.readouterr().err == (
        f"error: --bound {limit + 1}: the interchange sweep to index bound {limit + 1} is "
        f"more than the limit {limit}\n"
    )
    assert swept == []
    assert cli.main(["verify", "pscomm", "--group", group, "--bound", str(limit)]) == 0
    assert swept == [limit]


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, cli_run):
    assert cli.build_parser() is cli.build_parser()
    runs = [
        ("operad", "compose", "ass.json", "comm.json", "--bound", "2"),
        ("perm", "tau", "2", "3"),
        ("braid", "pi", "-n", "4", "2", "1"),
    ]
    errors = [
        ("operad", "compose", "ass.json"),
        ("perm", "tau", "x", "1"),
        ("tmn", "--family", "sideways", "2", "2"),
        ("operad", "--help"),
    ]
    before = [cli_run(*argv, cwd=tmp_path) for argv in runs]
    failed = [cli_run(*argv) for argv in errors]
    assert [result.returncode for result in failed] == [2, 2, 2, 0]
    assert all(result.stderr.startswith("usage: operadics ") for result in failed[:3])
    after = [cli_run(*argv) for argv in runs]
    assert [(r.returncode, r.stdout, r.stderr) for r in after] == [
        (r.returncode, r.stdout, r.stderr) for r in before
    ]
    assert [result.returncode for result in before] == [0, 0, 0]
    assert [cli_run(*argv).stderr for argv in errors] == [result.stderr for result in failed]


def _counted_compose(monkeypatch):
    """Stub `compose_collections` in the CLI; the list records each call's bound."""
    calls = []
    product = g_operads.ComposedCollection("stub", None, 0, {}, {})
    monkeypatch.setattr(cli, "compose_collections", lambda x, y, bound: calls.append(bound) or product)
    return calls


def test_operad_compose_refuses_more_composite_states_than_its_limit(monkeypatch, cli_run):
    # comm o comm at bound 7 holds 579,289 composite tuples; the count comes
    # from the level sizes alone and the product is never started.
    calls = _counted_compose(monkeypatch)
    limit = cli.MAX_COMPOSITE_STATES
    result = cli_run("operad", "compose", "comm.json", "comm.json", "--bound", "7")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        f"error: --bound 7: comm.json o comm.json has 579289 composite states, "
        f"more than the limit {limit}\n"
    )
    assert calls == []


@pytest.mark.parametrize("excess, code", [(0, 0), (1, 2)], ids=["at-the-limit", "limit+1"])
def test_operad_compose_guard_at_its_limit(monkeypatch, cli_run, excess, code):
    # ass o comm at bound 4 holds 2,957 composite tuples: a limit of that
    # many lets it through, a limit one lower refuses it.
    calls = _counted_compose(monkeypatch)
    monkeypatch.setattr(cli, "MAX_COMPOSITE_STATES", 2957 - excess)
    result = cli_run("operad", "compose", "ass.json", "comm.json", "--bound", "4")
    assert result.returncode == code
    if excess:
        assert result.stderr == (
            "error: --bound 4: ass.json o comm.json has 2957 composite states, "
            "more than the limit 2956\n"
        )
        assert calls == []
    else:
        assert result.stderr == ""
        assert calls == [4]


def test_operad_compose_refuses_before_counting_past_its_limit(monkeypatch, cli_run):
    # ass o comm at bound 4 pairs 246 heads with argument tuples; once those
    # alone reach the limit, the count stops and the message gives no number.
    calls = _counted_compose(monkeypatch)
    monkeypatch.setattr(cli, "MAX_COMPOSITE_STATES", 245)
    result = cli_run("operad", "compose", "ass.json", "comm.json", "--bound", "4")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "error: --bound 4: ass.json o comm.json has more composite states than the limit 245\n"
    )
    assert calls == []


@pytest.mark.parametrize("excess, code", [(0, 0), (1, 2)], ids=["at-the-limit", "limit+1"])
def test_operad_free_guard_at_its_limit(monkeypatch, cli_run, excess, code):
    # ass on {a,b} at bound 3 holds 1 + 2 + 2*2^2 + 6*2^3 = 59 tuples (p; xs):
    # a limit of that many lets it through, a limit one lower refuses it.
    calls = []

    def stub(p, carrier, max_arity):
        calls.append(max_arity)
        return free_monad.FreeAlgebra(p, tuple(carrier), max_arity, {})

    monkeypatch.setattr(cli, "free_algebra", stub)
    monkeypatch.setattr(cli, "MAX_FREE_STATES", 59 - excess)
    result = cli_run("operad", "free", "ass.json", "--carrier", "a,b", "--bound", "3")
    assert result.returncode == code
    if excess:
        assert (result.stdout, result.stderr) == ("", (
            "error: --bound 3: ass.json on 2 carrier elements has 59 states, "
            "more than the limit 58\n"
        ))
        assert calls == []
    else:
        assert result.stderr == ""
        assert result.stdout.endswith("total: 0 classes\n")
        assert calls == [3]


def test_operad_check_refuses_a_document_past_its_case_limit(monkeypatch, tmp_path, cli_run):
    # comm up to arity 7 loads, but its associativity would list 14,163,676
    # cases; the count comes from the level sizes alone and no law is run.
    document = g_operads.write_operad_document(g_operads.operad_comm(max_arity=7))
    (tmp_path / "comm7.json").write_text(json.dumps(document))
    checked = []
    monkeypatch.setattr(cli, "check_operad", checked.append)
    result = cli_run("operad", "check", "comm7.json", cwd=tmp_path)
    assert (result.returncode, result.stdout, checked) == (2, "", [])
    assert result.stderr == (
        f"error: comm7.json: operad associativity has 14163676 cases, more than the limit {cli.MAX_CHECK_CASES}\n"
    )


@pytest.mark.parametrize("excess, code", [(0, 0), (1, 2)], ids=["at-the-limit", "limit+1"])
def test_operad_check_guard_at_its_limit(monkeypatch, cli_run, excess, code):
    # Associativity on ass.json lists 11,680 cases: a limit of that many lets
    # the check run, a limit one lower refuses it.
    monkeypatch.setattr(cli, "MAX_CHECK_CASES", 11680 - excess)
    result = cli_run("operad", "check", "ass.json")
    assert result.returncode == code
    if excess:
        assert (result.stdout, result.stderr) == (
            "",
            "error: ass.json: operad associativity has 11680 cases, more than the limit 11679\n",
        )
    else:
        assert result.stderr == ""
        assert "PASS operad associativity [11680 cases]" in result.stdout
        assert result.stdout.endswith("OK (8 laws)\n")


def _rotated_document() -> dict:
    """
    A symmetric document with three labels at arity 3 whose first generator
    row is the 3-cycle a -> b -> c -> a: it loads (every row permutes the
    level), but its action is not one of S_3.
    """
    levels = {"0": [], "1": ["e"], "2": [], "3": ["a", "b", "c"]}
    labels = levels["3"]
    return {
        "group": "symmetric",
        "max_arity": 3,
        "levels": levels,
        "action": {"0": [], "1": [], "2": [[]], "3": [["b", "c", "a"], labels]},
        "unit": "e",
        "compose": [{"n": 1, "ks": [1], "args": ["e", "e"], "result": "e"}]
        + [{"n": 1, "ks": [3], "args": ["e", x], "result": x} for x in labels]
        + [{"n": 3, "ks": [1, 1, 1], "args": [x, "e", "e", "e"], "result": x} for x in labels],
    }


def test_an_action_that_is_not_a_right_action_fails_compose_but_not_check(tmp_path, cli_run):
    (tmp_path / "rot.json").write_text(json.dumps(_rotated_document()))
    checked = cli_run("operad", "check", "rot.json", cwd=tmp_path)
    assert checked.returncode == 1
    assert "FAIL action composition law" in checked.stdout
    composed = cli_run("operad", "compose", "rot.json", "comm.json", "--bound", "3")
    assert (composed.returncode, composed.stdout) == (2, "")
    assert composed.stderr == (
        "error: rot: the action at arity 3 is not a right action: 'a' goes to 'c' "
        "under 2 1 3 then 2 1 3, but to 'a' under their product 1 2 3\n"
    )
    assert "Traceback" not in composed.stderr
    freed = cli_run("operad", "free", "rot.json", "--carrier", "a,b", "--bound", "3")
    assert (freed.returncode, freed.stdout) == (2, "")
    assert freed.stderr == composed.stderr
    assert "Traceback" not in freed.stderr
