"""Command-line behaviour: dispatch, determinism, exit codes, corpus."""

import json
import os

import pytest

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
    ],
    ids=["empty-module", "module-list", "module-entry", "module-deep",
         "modulus", "expr-deep", "ideal-entry", "corpus-missing",
         "vars-digit-first", "vars-space"],
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
     '[{"name": "x", "argv": ["field-info", "--json"]}]'],
    ids=["unnamed-case", "not-a-list", "not-a-case", "bad-json", "no-expect"],
)
def test_malformed_corpus_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "corpus.json"
    path.write_text(text)
    code, out = capture(capsys, ["corpus-run", str(path), "--json"])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "usage"


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
