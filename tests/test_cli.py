"""Command-line behaviour: dispatch, determinism, exit codes, corpus."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import cartier
from cartier import cli
from cartier.cli import run
from cartier.errors import InvariantViolation

ZERO_MODULE = (
    '{"field":{"p":2,"d":1,"modulus":[1,1],"e":1},"dim":2,'
    '"matrix":[[[0],[0]],[[0],[0]]]}'
)
ID_MODULE = (
    '{"field":{"p":2,"d":1,"modulus":[1,1],"e":1},"dim":2,'
    '"matrix":[[[1],[0]],[[0],[1]]]}'
)


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_poly_cartier_example(capsys):
    code, out = capture(
        capsys, ["poly-cartier", "--p", "2", "--vars", "x", "--e", "1", "--expr", "x^3"]
    )
    assert code == 0
    assert out.strip() == "x"


def test_json_output_is_canonical_and_reproducible(capsys):
    argv = [
        "poly-enum-compatible", "--p", "2", "--vars", "x,y", "--f", "x*y", "--json",
    ]
    code1, out1 = capture(capsys, argv)
    code2, out2 = capture(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["count"] == 6


def test_every_report_reparses(capsys):
    commands = [
        ["field-info", "--p", "3", "--d", "2", "--json"],
        ["semilinear-analyze", "--module", ZERO_MODULE, "--json"],
        ["semilinear-lattice", "--module", ID_MODULE, "--json"],
        ["semilinear-hom", "--module", ID_MODULE, "--module", ID_MODULE, "--json"],
        ["crystal-minimal", "--module", ZERO_MODULE, "--json"],
        ["crystal-quasilength", "--module", ID_MODULE, "--json"],
        ["poly-image", "--p", "2", "--vars", "x", "--f", "x^2", "--ideal", "1", "--json"],
        ["poly-stable-image", "--p", "2", "--vars", "x", "--f", "x^2", "--json"],
        ["poly-smallest", "--p", "2", "--vars", "x", "--f", "x^2", "--ideal", "x^3", "--json"],
        ["poly-compatible", "--p", "2", "--vars", "x,y", "--f", "x*y", "--ideal", "x", "--json"],
        ["poly-split", "--p", "2", "--vars", "x,y", "--f", "x*y", "--json"],
        ["poly-supp", "--p", "2", "--vars", "x", "--f", "x", "--ideal", "x", "--json"],
    ]
    for argv in commands:
        code, out = capture(capsys, argv)
        assert code == 0, argv
        json.loads(out)


def test_analyze_zero_matrix(capsys):
    code, out = capture(capsys, ["semilinear-analyze", "--module", ZERO_MODULE, "--json"])
    payload = json.loads(out)
    assert payload["nilord"] == 1
    assert payload["v_nil"]["dim"] == 2


def test_usage_error_exit_code(capsys):
    code, out = capture(
        capsys, ["poly-cartier", "--p", "2", "--vars", "x", "--expr", "z^2", "--json"]
    )
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "usage"


def test_resource_error_exit_code(capsys):
    code, out = capture(
        capsys,
        ["semilinear-lattice", "--module", ID_MODULE, "--cap", "2", "--json"],
    )
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "resource"


CAPPED = {
    "semilinear-lattice": ["--module", ID_MODULE],
    "crystal-quasilength": ["--module", ID_MODULE],
    "poly-enum-compatible": ["--vars", "x,y", "--f", "x*y"],
    "poly-stable-image": ["--vars", "x", "--f", "x^4"],
    "poly-smallest": ["--vars", "x", "--f", "x", "--ideal", "x^4"],
    "poly-supp": ["--vars", "x", "--f", "x^3", "--ideal", "x^2"],
}


@pytest.mark.parametrize("cap", ["0", "1"])
@pytest.mark.parametrize("command", [c for c, entry in cli._COMMANDS.items() if "--cap" in entry[2]])
def test_every_cap_takes_effect(capsys, command, cap):
    code, out = capture(capsys, [command, *CAPPED[command], "--cap", cap, "--json"])
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "resource"


@pytest.mark.parametrize("command", ["poly-stable-image", "poly-smallest", "poly-supp"])
def test_a_chain_of_exactly_cap_steps_answers(capsys, command):
    # each chain in CAPPED takes two steps
    code, out = capture(capsys, [command, *CAPPED[command], "--cap", "2", "--json"])
    assert code == 0
    assert json.loads(out).get("iterations", 2) == 2


# A value for every option that lets every handler run to its end.
EVERY_OPTION = {
    "--p": "3", "--d": "2", "--modulus": "1,0,1", "--e": "1",
    "--vars": "x,y", "--f": "x^2*y^2", "--ideal": "x", "--expr": "x^4*y",
    "--cap": "100",
    "--module": '{"field":{"p":3,"d":2,"modulus":[1,0,1],"e":1},"dim":2,'
                '"matrix":[[[1],[0]],[[1],[1]]]}',
}


@pytest.mark.parametrize("command", [c for c in cli.SUBCOMMANDS if c != "corpus-run"])
def test_every_accepted_option_is_read(command):
    """Run the handler with every option it accepts set, on a namespace that
    records the attributes read: an option parsed and then ignored fails."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    top = cli._build_parser()
    (sub,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    actions = [a for a in sub.choices[command]._actions if a.option_strings != ["-h", "--help"]]
    argv = [command]
    for action in actions:
        flag = action.option_strings[0]
        if flag == "--json":
            argv.append(flag)
        else:
            argv += [flag, EVERY_OPTION[flag]] * (2 if command == "semilinear-hom" and
                                                   flag == "--module" else 1)
    args = top.parse_args(argv, namespace=Recording())
    reads.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli._COMMANDS[command][0](args) in (None, 0)
    unread = sorted(a.option_strings[0] for a in actions if a.dest not in reads)
    assert unread == [], f"{command} accepts {unread} and never reads them"


@pytest.mark.parametrize("command", [c for c in cli.SUBCOMMANDS if c != "corpus-run"])
def test_an_option_a_command_does_not_read_is_rejected(capsys, command):
    """Each option a subcommand does not list exits 2, as an unknown one
    does, before any handler runs."""
    options = cli._COMMANDS[command][2]
    for flag in set(EVERY_OPTION) - set(options):
        with pytest.raises(SystemExit) as exc:
            run([command, "--json", flag, "1"])
        assert exc.value.code == 2, (command, flag)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: {flag} 1\n")


@pytest.mark.parametrize(
    "command, reads",
    [("semilinear-analyze", 1), ("semilinear-hom", 2), ("semilinear-lattice", 1),
     ("crystal-minimal", 1), ("crystal-quasilength", 1)],
)
def test_more_modules_than_a_command_reads_is_a_usage_error(capsys, command, reads):
    code, out = capture(capsys, [command, *["--module", ID_MODULE] * (reads + 1), "--json"])
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "usage",
        "detail": f"{command} takes {reads} --module value{'s' * (reads > 1)}, not {reads + 1}",
    }


@pytest.mark.parametrize("command", [None, *cli.SUBCOMMANDS])
def test_every_help_text_prints(capsys, command):
    """argparse formats help strings only when it prints them."""
    with pytest.raises(SystemExit) as exc:
        run(["--help"] if command is None else [command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cartier")


def test_stable_image_q49_four_variables(capsys):
    code, out = capture(
        capsys,
        ["poly-stable-image", "--p", "7", "--e", "2", "--vars", "x,y,z,w",
         "--f", "x^6*y^6*z^6*w^6+x*y*z*w", "--json"],
    )
    assert code == 0
    assert json.loads(out) == {"generators": ["1"], "iterations": 0}


def test_split_witness_past_degree_bound(capsys):
    code, out = capture(
        capsys,
        ["poly-split", "--p", "7", "--e", "2", "--vars", "x,y",
         "--f", "x^96*y^96+x*y", "--json"],
    )
    assert code == 0
    assert json.loads(out) == {"split": True, "witness": "x^47*y^47"}


@pytest.mark.parametrize(
    "argv",
    [
        ["semilinear-analyze", "--module", "{}"],
        ["semilinear-analyze", "--module", "[]"],
        ["semilinear-analyze", "--module", '{"field": {"p": 2}, "matrix": [["a"]]}'],
        ["semilinear-analyze", "--module", "[" * 3000 + "]" * 3000],
        ["field-info", "--modulus", "1,x"],
        ["poly-cartier", "--vars", "x", "--expr", "(" * 3000 + "x" + ")" * 3000],
        ["poly-image", "--vars", "x", "--f", "x", "--ideal", '["x", 1]'],
        ["corpus-run", "no-such-corpus.json"],
        ["poly-split", "--p", "2", "--vars", "1x", "--f", "1"],
        ["poly-split", "--p", "2", "--vars", "x y", "--f", "1"],
        ["semilinear-analyze", "--module", '{"field":{"p":1e400},"matrix":[[[1]]]}'],
        ["semilinear-analyze", "--module", '{"field":{"p":2,"d":1e400},"matrix":[[[1]]]}'],
        ["semilinear-analyze", "--module", '{"field":{"p":2,"e":1e400},"matrix":[[[1]]]}'],
        ["semilinear-analyze", "--module",
         '{"field":{"p":2,"modulus":[1,1e400]},"matrix":[[[1]]]}'],
        ["semilinear-analyze", "--module", '{"field":{"p":2},"e":1e400,"matrix":[[[1]]]}'],
        ["crystal-minimal", "--module", '{"field":{"p":2},"dim":1e400,"matrix":[[[1]]]}'],
        ["semilinear-lattice", "--module", '{"field":{"p":2},"matrix":[[[1e400]]]}'],
        # argparse passes `--flag=--` on as [], without the option's type
        ["poly-cartier", "--vars", "x", "--expr=--"],
        ["poly-cartier", "--p=--", "--vars", "x", "--expr", "x"],
        ["semilinear-analyze", "--module=--"],
    ],
    ids=["empty-module", "module-list", "module-entry", "module-deep",
         "modulus", "expr-deep", "ideal-entry", "corpus-missing",
         "vars-digit-first", "vars-space", "inf-p", "inf-d", "inf-e", "inf-modulus",
         "inf-module-e", "inf-dim", "inf-entry", "expr-dashes", "p-dashes", "module-dashes"],
)
def test_malformed_input_is_a_usage_error(capsys, argv):
    code, out = capture(capsys, argv + ["--json"])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "usage"


@pytest.mark.parametrize("e", ["20", "99999"])
def test_huge_splitting_level_is_a_resource_error(capsys, e):
    # the witness lifts to x^(q-2), q = 2^e; at e = 99999 its degree has
    # about 30,000 digits, more than Python prints by default
    argv = ["poly-split", "--p", "2", "--vars", "x", "--f", "x", "--e", e, "--json"]
    code, out = capture(capsys, argv)
    assert code == 3
    assert "exceeds the configured bound 200" in json.loads(out)["error"]["detail"]


@pytest.mark.parametrize(
    "text",
    ['[{"argv": ["field-info"]}]', '{"name": "x"}', "[1]", "[{",
     '[{"name": "x", "argv": ["field-info", "--json"]}]',
     '[{"name": "self", "argv": ["corpus-run", "CORPUS", "--json"], "expect": null}]',
     '[{"name": "ints", "argv": [1, 2], "expect": null}]',
     '[{"name": "text", "argv": "field-info", "expect": null}]',
     '[{"name": 5, "argv": ["field-info"], "expect": null}]',
     '[{"name": "x", "argv": ["field-info"], "exit": "0", "expect": null}]',
     '[{"name": "x", "argv": ["field-info"], "exit": false, "expect": null}]'],
    ids=["unnamed-case", "not-a-list", "not-a-case", "bad-json", "no-expect",
         "runs-itself", "int-argv", "string-argv", "int-name", "string-exit", "bool-exit"],
)
def test_malformed_corpus_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "corpus.json"
    path.write_text(text.replace("CORPUS", str(path)))
    code, out = capture(capsys, ["corpus-run", str(path), "--json"])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "usage"
    assert error["detail"].startswith("corpus is malformed")


def test_malformed_corpus_is_a_usage_error_in_text_mode(tmp_path, capsys):
    path = tmp_path / "corpus.json"
    path.write_text('[{"name": 5, "argv": ["field-info"], "expect": null}]')
    code = run(["corpus-run", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error[usage]: corpus is malformed: name 5 is not a string\n"


def test_malformed_corpus_runs_no_case(tmp_path, capsys, monkeypatch):
    cases = [
        {"name": "info", "argv": ["field-info", "--json"], "expect": None},
        {"name": "nested", "argv": ["corpus-run", "other.json"], "expect": None},
    ]
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(cases))
    ran = []
    monkeypatch.setattr(cli, "_cmd_field_info", lambda args: ran.append(args))
    monkeypatch.setattr(cli, "_parser", None)  # rebuilt with the recording handler
    code, out = capture(capsys, ["corpus-run", str(path), "--json"])
    assert code == 2 and ran == []


def test_domain_error_maps_to_usage_exit(capsys):
    code, out = capture(
        capsys,
        ["poly-supp", "--p", "2", "--vars", "x", "--f", "x", "--ideal", "x^2", "--json"],
    )
    assert code == 2


def test_file_input_wins_with_warning(tmp_path, capsys):
    path = tmp_path / "expr.txt"
    path.write_text("x^3\n")
    code = run(["poly-cartier", "--p", "2", "--vars", "x", "--expr", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "x"
    assert "warning" in captured.err


def test_ideal_accepts_semicolons_and_json(capsys):
    for ideal in ("x;y", '["x","y"]'):
        code, out = capture(
            capsys,
            ["poly-compatible", "--p", "2", "--vars", "x,y", "--f", "x*y",
             "--ideal", ideal, "--json"],
        )
        assert code == 0
        assert json.loads(out)["compatible"] is True


def test_corpus_run_bundled(capsys):
    corpus = os.path.join(os.path.dirname(__file__), "..", "corpus", "acceptance.json")
    code, out = capture(capsys, ["corpus-run", corpus, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert payload["passed"] == len(payload["results"]) >= 20


@pytest.mark.parametrize("name", ["acceptance", "odd_p"])
def test_corpus_report_matches_the_expected_file(capsys, name):
    """The --json report equals corpus/<name>.expected.json byte for byte;
    each case's `expect` holds the exact bases, so this pins them."""
    corpus = pathlib.Path(__file__).resolve().parent.parent / "corpus"
    code, out = capture(capsys, ["corpus-run", str(corpus / f"{name}.json"), "--json"])
    assert code == 0
    assert out == (corpus / f"{name}.expected.json").read_text(encoding="utf-8")


def test_corpus_run_builds_the_parser_once(capsys, monkeypatch):
    builds = []
    build = cli._build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    corpus = os.path.join(os.path.dirname(__file__), "..", "corpus", "acceptance.json")
    code, out = capture(capsys, ["corpus-run", corpus, "--json"])
    assert code == 0
    assert len(json.loads(out)["results"]) >= 20
    assert len(builds) == 1


SRC = str(pathlib.Path(cartier.__file__).resolve().parent.parent)
LAYERS = {"poly", "semilinear", "operators", "crystal", "linalg"}
POLY_ARGV = ["poly-cartier", "--p", "2", "--vars", "x", "--expr", "x^3"]


def loaded_modules(argv):
    """Modules a `python -m cartier.cli` process imports, read from -X importtime."""
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cartier.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "argv, needed, unused",
    [
        (["field-info", "--p", "7", "--d", "2", "--json"], {"field"}, LAYERS),
        (POLY_ARGV, {"poly", "operators"}, {"semilinear", "crystal", "linalg"}),
        (["semilinear-analyze", "--module", ID_MODULE], {"semilinear", "linalg"},
         {"poly", "operators", "crystal"}),
        (["crystal-quasilength", "--module", ID_MODULE], {"crystal", "semilinear"},
         {"poly", "operators"}),
    ],
    ids=["field-info", "poly", "semilinear", "crystal"],
)
def test_a_subcommand_loads_only_its_layers(argv, needed, unused):
    modules = loaded_modules(argv)
    assert {f"cartier.{m}" for m in needed} <= modules
    assert not {f"cartier.{m}" for m in unused} & modules
    assert "dataclasses" not in modules


CORPUS = str(pathlib.Path(__file__).resolve().parent.parent / "corpus" / "acceptance.json")


@pytest.mark.parametrize(
    "argv",
    [["field-info", "--p", "7", "--d", "2", "--json"], ["corpus-run", CORPUS, "--json"]],
    ids=["field-info", "corpus-run"],
)
def test_a_closed_stdout_pipe_exits_quietly(argv):
    """A reader of stdout that has gone is no error: exit 0, no traceback."""
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cartier.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_corpus_run_detects_failure(tmp_path, capsys):
    bad = [
        {
            "name": "wrong-expectation",
            "argv": ["poly-cartier", "--p", "2", "--vars", "x", "--e", "1",
                     "--expr", "x^3", "--json"],
            "exit": 0,
            "expect": {"result": "x^2"},
        }
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = capture(capsys, ["corpus-run", str(path), "--json"])
    assert code == 1
    assert json.loads(out)["failed"] == 1


def test_corpus_run_records_rejected_argv(tmp_path, capsys):
    cases = [
        {"name": "bad", "argv": ["bogus-cmd"], "expect": None},
        {"name": "bad-option", "argv": ["field-info", "--bogus"], "exit": 2, "expect": ""},
        {
            "name": "info",
            "argv": ["field-info", "--p", "3", "--json"],
            "expect": {"p": 3, "d": 1, "e": 1, "q": 3, "order": 3, "modulus": [1, 1]},
        },
    ]
    path = tmp_path / "rejected.json"
    path.write_text(json.dumps(cases))
    code, out = capture(capsys, ["corpus-run", str(path), "--json"])
    assert code == 1
    report = json.loads(out)
    assert [(r["name"], r["status"], r["detail"]) for r in report["results"]] == [
        ("bad", "FAIL", "exit 2"),
        ("bad-option", "PASS", ""),
        ("info", "PASS", ""),
    ]
    assert (report["passed"], report["failed"]) == (2, 1)


@pytest.mark.parametrize(
    "argv, code, kind, detail",
    [
        (["poly-image", "--vars", "x", "--ideal", "x"], 2, "usage",
         re.escape("--f (the operator multiplier) is required")),
        (["poly-image", "--vars", "x", "--f", "x"], 2, "usage", re.escape("--ideal is required")),
        (["semilinear-analyze"], 2, "usage", re.escape("--module is required")),
        (["poly-cartier", "--vars", "x"], 2, "usage", re.escape("--expr is required")),
        (["poly-cartier", "--expr", "x"], 2, "usage",
         re.escape("--vars is required for ring commands")),
        (["semilinear-hom", "--module", ID_MODULE], 2, "usage",
         re.escape("semilinear-hom needs --module twice (source, target)")),
        # the interpreter prints no int longer than sys.get_int_max_str_digits()
        (["field-info", "--p", "2", "--e", "100000"], 3, "resource",
         re.escape(f"q = 2^100000 exceeds the configured bound {sys.get_int_max_str_digits()} "
                   "on printed digits")),
        (["field-info", "--p", "3", "--e", "10000"], 3, "resource",
         re.escape(f"q = 3^10000 exceeds the configured bound {sys.get_int_max_str_digits()} "
                   "on printed digits")),
    ],
    ids=["missing-f", "missing-ideal", "missing-module", "missing-expr", "missing-vars",
         "hom-one-module", "field-info-too-long", "field-info-just-too-long"],
)
def test_errors_of_the_handlers_name_their_cause(capsys, argv, code, kind, detail):
    got, out = capture(capsys, argv + ["--json"])
    error = json.loads(out)["error"]
    assert (got, error["kind"]) == (code, kind)
    assert re.fullmatch(detail, error["detail"])


def test_an_invariant_violation_exits_4(capsys, monkeypatch):
    def broken(args):
        raise InvariantViolation("fixed set is not an F_q-subspace")

    _, *rest = cli._COMMANDS["field-info"]
    monkeypatch.setitem(cli._COMMANDS, "field-info", (broken, *rest))
    code, out = capture(capsys, ["field-info", "--json"])
    assert code == 4
    assert json.loads(out) == {
        "error": {"kind": "invariant", "detail": "fixed set is not an F_q-subspace"}
    }


# ----------------------------------------------------------------------
# the error contract on generated argv

REQUIRED = ("--module", "--vars", "--f", "--ideal", "--expr")
GF4_MODULE = (
    '{"field":{"p":2,"d":2,"modulus":[1,1,1],"e":1},"dim":2,'
    '"matrix":[[[0,1],[1]],[[0],[1,1]]]}'
)
# Values a flag is meant to take; every flag also draws from ODD_VALUES.
PLAUSIBLE = {
    "--p": ["2", "3", "5", "7"],
    "--d": ["1", "2", "3"],
    "--e": ["1", "2", "3"],
    "--modulus": ["1,1", "1,1,1", "1,0,1", "2,1", "1,x"],
    "--cap": ["0", "1", "5", "50"],
    "--vars": ["x", "x,y", "x,y,z"],
    "--f": ["x", "x^2", "x*y", "x^3+y", "1", "0", "x^2*y+y^3", "z"],
    "--module": [ZERO_MODULE, ID_MODULE, GF4_MODULE],
}
PLAUSIBLE["--expr"] = PLAUSIBLE["--ideal"] = PLAUSIBLE["--f"] + ["x;y", '["x", "y^2"]']
ODD_VALUES = ["-1", "1e400", "", "²", "20000", "9" * 30, "1" * 19, "1" * 700, "7" * 5000]
CORPORA = [
    "[]",
    "{",
    '[{"name": "a", "argv": ["field-info", "--json"], "expect": null}]',
    '[{"name": "a", "argv": ["corpus-run", "c.json"], "expect": null}]',
    '[{"name": "a", "argv": [1, 2], "expect": null}]',
    '[{"name": "a", "argv": "field-info", "expect": null}]',
]


def _module_texts():
    """Module JSON near the valid shape, with odd leaves, and random JSON."""
    leaves = st.sampled_from(["1", "2", "3", "0", "-1", "1e400", '""', '"²"', "null",
                              "9" * 30, "[1,1]", "[1,0,1]", "[[[1]]]", "[[[0]]]",
                              "[[[1],[0]],[[1],[1]]]", "[[[0,1]],[[1]]]"])
    field = st.dictionaries(st.sampled_from(["p", "d", "e", "modulus"]), leaves, max_size=4)
    module = st.fixed_dictionaries(
        {"field": field},
        optional={"dim": leaves, "e": leaves, "matrix": leaves},
    )

    def render(value):
        if isinstance(value, dict):
            return "{" + ",".join(f'"{k}":{render(v)}' for k, v in value.items()) + "}"
        return value

    anything = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["field", "p", "d", "matrix", "dim"]), inner,
                          max_size=3),
        max_leaves=8,
    )
    return module.map(render) | anything.map(json.dumps)


def _values(flag):
    plausible = st.sampled_from(PLAUSIBLE[flag])
    odd = st.sampled_from(ODD_VALUES)
    if flag == "--cap":  # no long digit runs: a cap above 50 only slows the test
        odd = st.sampled_from(["-1", "1e400", "", "²"])
    elif flag == "--module":
        odd = odd | _module_texts()
    return st.one_of(plausible, plausible, odd)


VALUES = {flag: _values(flag) for flag in PLAUSIBLE}


@st.composite
def argvs(draw):
    """A subcommand with its required options, then a few more of the options
    its `_COMMANDS` entry lists; every value is plausible or odd."""
    command = draw(st.sampled_from(cli.SUBCOMMANDS))
    if command == "corpus-run":
        argv = [command, draw(st.sampled_from(CORPORA + ["no-such-corpus.json"]))]
    else:
        options = cli._COMMANDS[command][2]
        required = tuple(o for o in options if o in REQUIRED)
        argv = [command]
        for flag in required + tuple(draw(st.lists(st.sampled_from(options), max_size=3))):
            argv += [flag, draw(VALUES[flag])]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def check_contract(argv):
    """Run argv in process; return its exit code after checking the contract."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        if argv[0] == "corpus-run" and argv[1] in CORPORA:
            path = os.path.join(tmp, "c.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(argv[1])
            argv = [argv[0], path, *argv[2:]]
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse
            assert exc.code in (0, 2), (argv, exc.code)
            return exc.code
    assert code in (0, 2, 3, 4) or (code == 1 and argv[0] == "corpus-run"), (argv, code)
    if "--json" in argv and code in (1, 2, 3, 4):
        report = json.loads(out.getvalue())
        if code == 1:  # corpus failures, and only those
            assert report["failed"] > 0, report
        else:
            assert list(report) == ["error"] and sorted(report["error"]) == ["detail", "kind"]
    return code


@settings(max_examples=200, deadline=2000)
@given(argvs())
def test_every_argv_keeps_the_exit_code_contract(argv):
    check_contract(argv)


@settings(max_examples=100, deadline=2000)
@given(argvs(), st.data())
def test_an_option_its_command_does_not_read_exits_2(argv, data):
    foreign = sorted(set(VALUES) - set(cli._COMMANDS[argv[0]][2]))
    flag = data.draw(st.sampled_from(foreign))
    position = data.draw(st.integers(1, len(argv)))
    assert check_contract(argv[:position] + [flag, data.draw(VALUES[flag])] + argv[position:]) == 2


# Polynomials in x and y written in the parser's syntax, and strings of the
# parser's characters (the ideal list forms' included).
POLY_SYNTAX = st.recursive(
    st.sampled_from(["x", "y", "0", "1", "2", "12", "[1]", "[0,1]"]),
    lambda inner: st.tuples(inner, st.sampled_from(["+", "-", "*", " * "]), inner).map("".join)
    | st.tuples(inner, st.sampled_from(["^0", "^1", "^2", "^3", "^7", "^40"])).map("".join)
    | inner.map("({})".format) | inner.map("-{}".format),
    max_leaves=6,
)
POLY_TOKENS = ["x", "y", "z", "_", "0", "1", "2", "3", "7", "+", "-", "*", "^", "(", ")",
               "[", "]", ",", " ", ";", '"']
POLY_TEXTS = POLY_SYNTAX | st.lists(st.sampled_from(POLY_TOKENS), max_size=12).map("".join)


@st.composite
def poly_argvs(draw):
    """A poly-* command with the options its `_COMMANDS` entry lists: the
    field options now and then, always the others.  --expr, --f and --ideal
    get polynomials or random strings of the parser's characters.
    `--flag=value` keeps a value that starts with "-" a value."""
    command = draw(st.sampled_from([c for c in cli.SUBCOMMANDS if c.startswith("poly-")]))
    argv = [command]
    for flag in cli._COMMANDS[command][2]:
        if flag in ("--expr", "--f"):
            value = draw(POLY_TEXTS)
        elif flag == "--ideal":
            gens = st.lists(POLY_TEXTS, max_size=3)
            value = draw(POLY_TEXTS | gens.map(";".join) | gens.map(json.dumps))
        elif flag == "--vars":
            value = "x,y"
        elif flag == "--cap" or draw(st.integers(0, 2)) == 0:
            value = draw(st.sampled_from(PLAUSIBLE[flag]))
        else:
            continue
        argv.append(f"{flag}={value}")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, deadline=None)
@given(poly_argvs())
def test_every_polynomial_string_keeps_the_exit_code_contract(argv):
    assert check_contract(argv) in (0, 2, 3, 4)


def test_a_value_that_starts_with_a_dash_needs_the_equals_form(capsys):
    argv = ["poly-cartier", "--vars", "x", "--json"]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--expr", "-x^3"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    assert capture(capsys, argv + ["--expr=-x^3"]) == (0, '{\n  "result": "x"\n}\n')


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
CASE_ARGVS = st.sampled_from([
    [], ["bogus"], ["-h"], ["field-info", "--help"], ["field-info", "--bogus"],
    ["field-info", "--p", "3", "--json"], ["field-info", "--p", "4"],
    ["semilinear-analyze", "--module", "{}", "--json"], ["corpus-run", "c.json"],
    ["poly-cartier", "--vars", "x", "--expr", "x^3"],
]) | st.lists(st.text(max_size=4), max_size=3)
EXPECTS = st.sampled_from([None, "", "x", {"p": 3, "d": 1, "e": 1, "q": 3, "order": 3,
                                           "modulus": [1, 1]}])


def _mostly(good, odd=JSON_VALUES):
    """Draws from good seven times in eight, else from odd."""
    return st.integers(0, 7).flatmap(lambda i: odd if i == 0 else good)


# Cases with every key, each value mostly of the right type, and objects
# with any of the keys holding anything.
WELL_FORMED = st.fixed_dictionaries(
    {"name": _mostly(st.text(max_size=4)), "argv": _mostly(CASE_ARGVS),
     "expect": EXPECTS | JSON_VALUES},
    optional={"exit": _mostly(st.integers(0, 4))},
)
CASES = _mostly(WELL_FORMED, st.fixed_dictionaries({}, optional={
    "name": st.text(max_size=4) | JSON_VALUES,
    "argv": CASE_ARGVS | JSON_VALUES,
    "exit": st.integers(0, 4) | JSON_VALUES,
    "expect": EXPECTS | JSON_VALUES,
}))


@settings(max_examples=150, deadline=None)
@given(_mostly(st.lists(CASES, max_size=4).map(json.dumps),
               JSON_VALUES.map(json.dumps) | st.text(max_size=12)), st.booleans())
def test_every_corpus_file_keeps_the_exit_code_contract(text, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert check_contract(["corpus-run", path] + ["--json"] * as_json) in (0, 1, 2)
