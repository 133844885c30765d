"""Command-line behaviour: dispatch, determinism, exit codes, corpus."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import cartier
from cartier import cli
from cartier.cli import run

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
    ],
    ids=["empty-module", "module-list", "module-entry", "module-deep",
         "modulus", "expr-deep", "ideal-entry", "corpus-missing",
         "vars-digit-first", "vars-space", "inf-p", "inf-d", "inf-e", "inf-modulus",
         "inf-module-e", "inf-dim", "inf-entry"],
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
     '[{"name": "text", "argv": "field-info", "expect": null}]'],
    ids=["unnamed-case", "not-a-list", "not-a-case", "bad-json", "no-expect",
         "runs-itself", "int-argv", "string-argv"],
)
def test_malformed_corpus_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "corpus.json"
    path.write_text(text.replace("CORPUS", str(path)))
    code, out = capture(capsys, ["corpus-run", str(path), "--json"])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "usage"
    assert error["detail"].startswith("corpus is malformed")


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


# ----------------------------------------------------------------------
# the error contract on generated argv

FIELD_FLAGS = ("--p", "--d", "--modulus", "--e", "--cap")
RING_FLAGS = ("--vars", "--f", "--ideal", "--expr")
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
    """A subcommand with its required flags, then a few more flags; every
    value is plausible or odd."""
    command = draw(st.sampled_from(cli.SUBCOMMANDS))
    if command == "corpus-run":
        argv = [command, draw(st.sampled_from(CORPORA + ["no-such-corpus.json"]))]
    else:
        flags, required = FIELD_FLAGS, ()
        if command.startswith("poly-"):
            flags = required = RING_FLAGS
            flags += FIELD_FLAGS
        elif command != "field-info":
            required = ("--module", "--module") if command == "semilinear-hom" else ("--module",)
            flags += ("--module",)
        argv = [command]
        for flag in required + tuple(draw(st.lists(st.sampled_from(flags), max_size=3))):
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
    if "--json" in argv and code in (2, 3, 4):
        error = json.loads(out.getvalue())
        assert list(error) == ["error"] and sorted(error["error"]) == ["detail", "kind"], error
    return code


@settings(max_examples=200, deadline=2000)
@given(argvs())
def test_every_argv_keeps_the_exit_code_contract(argv):
    check_contract(argv)
