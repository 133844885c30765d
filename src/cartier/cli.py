"""Command-line surface.

Every subcommand prints a human-readable report by default and canonical
JSON (sorted keys, sorted lists) with --json.  Inline values and file
paths are both accepted for --expr/--f/--ideal/--module; when a value
names an existing file, the file wins and a warning goes to stderr.

Each subcommand accepts only the options its handler reads (`_COMMANDS`
lists them; `_OPTIONS` defines each once), so any other option is an
argparse error, exit 2.  A module command given more --module values than
it reads (one; two for semilinear-hom) is a usage error too.  A value that
starts with "-" is written `--flag=value`.

Exit codes: 0 success, 1 corpus failures, 2 usage errors, 3 resource-cap
errors, 4 invariant violations.  When the reader of stdout goes away
early, the command stops quietly with exit 0.

`import cartier` is lazy, and each handler imports the layers it uses, so
`python -m cartier.cli` loads only what its subcommand needs: field-info
loads `field`; the poly-* commands `field`, `poly` and `operators`; the
semilinear-* commands `field`, `linalg` and `semilinear`; the crystal-*
commands those and `crystal`; corpus-run whatever its cases use.  The
argparse parser is built once per process, however many times run() is
called.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

from .errors import CartierError, DomainError, InvariantViolation, ResourceError, UsageError

def _resolve(value: str | None) -> str | None:
    """Treat the value as a file path when one exists, else as inline text."""
    if value is None:
        return None
    if os.path.isfile(value):
        print(f"warning: reading {value!r} as a file", file=sys.stderr)
        with open(value, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    return value


@contextlib.contextmanager
def _malformed(what: str):
    """Turn the errors of parsing user input into a usage error (exit 2)."""
    try:
        yield
    except KeyError as exc:
        raise UsageError(f"{what} is malformed: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise UsageError(f"{what} is malformed: {exc}") from exc


def _field_from_args(args):
    from .field import FieldSpec

    modulus = None
    if args.modulus:
        with _malformed("--modulus"):
            modulus = [int(c) for c in args.modulus.split(",")]
    return FieldSpec(args.p, args.d, modulus, args.e)


def _ring_from_args(args):
    from .poly import PolyRing

    if not args.vars:
        raise UsageError("--vars is required for ring commands")
    names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    return PolyRing(_field_from_args(args), names)


def _operator_from_args(args):
    from .operators import CartierOperator

    ring = _ring_from_args(args)
    f = _resolve(args.f)
    if f is None:
        raise UsageError("--f (the operator multiplier) is required")
    return CartierOperator(ring, ring.parse(f), args.e)


def _ideal_from_args(args, ring):
    from .poly import Ideal

    raw = _resolve(args.ideal)
    if raw is None:
        raise UsageError("--ideal is required")
    raw = raw.strip()
    with _malformed("--ideal"):
        gens = json.loads(raw) if raw.startswith('["') or raw == "[]" else raw.split(";")
        gens = [g.strip() for g in gens if g.strip()]
    return Ideal(ring, tuple(ring.parse(g) for g in gens))


def _module_from_args(modules: list, index: int = 0):
    from .semilinear import SemilinearModule

    if len(modules) <= index:
        raise UsageError("--module is required")
    text = _resolve(modules[index])
    with _malformed("module JSON"):
        return SemilinearModule.from_json(json.loads(text))


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


# ----------------------------------------------------------------------
# subcommand handlers


def _cmd_field_info(args):
    spec = _field_from_args(args)
    try:
        lines = [
            f"field GF({spec.p}^{spec.d}), order {spec.order}",
            f"twist e={spec.e}, q={spec.q}",
            f"modulus {list(spec.modulus)}",
        ]
    except ValueError as exc:  # more digits than int -> str converts
        what, k = ("q", spec.e) if spec.e >= spec.d else ("the field order", spec.d)
        raise ResourceError(
            f"{what} = {spec.p}^{k} exceeds the configured bound "
            f"{sys.get_int_max_str_digits()} on printed digits"
        ) from exc
    payload = {
        "p": spec.p,
        "d": spec.d,
        "e": spec.e,
        "q": spec.q,
        "order": spec.order,
        "modulus": list(spec.modulus),
    }
    _emit(args, payload, lines)


def _cmd_semilinear_analyze(args):
    module = _module_from_args(args.module)
    dec = module.decompose()
    fixed = module.fixed_points()
    payload = {
        "dim": module.dim,
        "nilord": dec.nilord,
        "nilpotent": dec.nilord is not None,
        "v_nil": dec.v_nil.to_json(),
        "v_underline": dec.v_underline.to_json(),
        "fixed_points": {
            "q": module.spec.q,
            "dim": len(fixed),
            "basis": [[list(x.coeffs) for x in v] for v in fixed],
        },
    }
    lines = [
        f"dim {module.dim}",
        f"nilord {dec.nilord if dec.nilord is not None else 'not nilpotent'}",
        f"dim V_nil {dec.v_nil.dim}, dim V_underline {dec.v_underline.dim}",
        f"fixed points: F_{module.spec.q}-dimension {len(fixed)}",
    ]
    _emit(args, payload, lines)


def _cmd_semilinear_hom(args):
    if len(args.module) < 2:
        raise UsageError("semilinear-hom needs --module twice (source, target)")
    source = _module_from_args(args.module, 0)
    target = _module_from_args(args.module, 1)
    hom = source.hom_space(target)
    payload = {
        "q": hom.q,
        "dim": hom.dim,
        "size": hom.size,
        "basis": [
            [[list(x.coeffs) for x in row] for row in phi] for phi in hom.basis
        ],
    }
    _emit(args, payload, [f"Hom: F_{hom.q}-dimension {hom.dim}, {hom.size} elements"])


def _cmd_semilinear_lattice(args):
    module = _module_from_args(args.module)
    infos = module.enumerate_submodules(cap=args.cap)
    payload = {
        "count": len(infos),
        "submodules": [
            {**info.subspace.to_json(), "surjective": info.surjective}
            for info in infos
        ],
    }
    lines = [f"{len(infos)} stable subspaces"] + [
        f"  dim {i.subspace.dim} surjective={i.surjective}" for i in infos
    ]
    _emit(args, payload, lines)


def _cmd_crystal_minimal(args):
    from .crystal import minimal_rep

    module = _module_from_args(args.module)
    rep = minimal_rep(module)
    payload = {"original_dim": module.dim, "minimal": rep.to_json()}
    _emit(args, payload, [f"minimal representative dimension {rep.dim}"])


def _cmd_crystal_quasilength(args):
    from .crystal import jordan_holder

    module = _module_from_args(args.module)
    report = jordan_holder(module, cap=args.cap)
    payload = {
        "quasi_length": report.quasi_length,
        "lattice_size": len(report.lattice),
        "factor_dims": list(report.factor_dims),
        "minimal_dim": report.minimal_rep.dim,
        "edges": [list(e) for e in report.edges],
    }
    lines = [
        f"quasi-length {report.quasi_length}",
        f"lattice size {len(report.lattice)}",
        f"factor dims {list(report.factor_dims)}",
    ]
    _emit(args, payload, lines)


def _cmd_poly_cartier(args):
    from .operators import cartier_std

    ring = _ring_from_args(args)
    expr = _resolve(args.expr)
    if expr is None:
        raise UsageError("--expr is required")
    result = cartier_std(ring.parse(expr), args.e)
    _emit(args, {"result": str(result)}, [str(result)])


def _cmd_poly_image(args):
    op = _operator_from_args(args)
    ideal = _ideal_from_args(args, op.ring)
    image = op.image_ideal(ideal)
    payload = {"generators": image.canonical_strings()}
    _emit(args, payload, [", ".join(image.canonical_strings()) or "0"])


def _cmd_poly_stable_image(args):
    op = _operator_from_args(args)
    ideal = _ideal_from_args(args, op.ring) if args.ideal else None
    stable, iterations = op.stable_image(ideal, cap=args.cap)
    payload = {
        "generators": stable.canonical_strings(),
        "iterations": iterations,
    }
    _emit(
        args,
        payload,
        [f"stable after {iterations} steps: "
         f"{', '.join(stable.canonical_strings()) or '0'}"],
    )


def _cmd_poly_smallest(args):
    op = _operator_from_args(args)
    seed = _ideal_from_args(args, op.ring)
    result = op.smallest_stable_containing(seed, cap=args.cap)
    payload = {"generators": result.canonical_strings()}
    _emit(args, payload, [", ".join(result.canonical_strings()) or "0"])


def _cmd_poly_compatible(args):
    op = _operator_from_args(args)
    ideal = _ideal_from_args(args, op.ring)
    payload = {
        "compatible": op.is_compatible(ideal),
        "fixed": op.is_fixed(ideal),
    }
    _emit(
        args,
        payload,
        [f"compatible: {payload['compatible']}", f"fixed: {payload['fixed']}"],
    )


def _cmd_poly_enum_compatible(args):
    op = _operator_from_args(args)
    ideals = op.enumerate_compatible_monomial(cap=args.cap)
    payload = {
        "count": len(ideals),
        "ideals": [i.canonical_strings() for i in ideals],
    }
    lines = [f"{len(ideals)} compatible ideals"] + [
        "  (" + (", ".join(i.canonical_strings()) or "0") + ")" for i in ideals
    ]
    _emit(args, payload, lines)


def _cmd_poly_split(args):
    op = _operator_from_args(args)
    witness = op.find_splitting()
    payload = {
        "split": witness is not None,
        "witness": None if witness is None else str(witness),
    }
    lines = [f"split: {payload['split']}"]
    if witness is not None:
        lines.append(f"witness: {witness}")
    _emit(args, payload, lines)


def _cmd_poly_supp(args):
    from .operators import IdealModule

    op = _operator_from_args(args)
    ideal = _ideal_from_args(args, op.ring)
    module = IdealModule(op, ideal)
    report = module.supp_crys(cap=args.cap)
    # nilpotent exactly when J contains the stable image, i.e. (J : stable) = R
    nilpotent = report.ann.is_unit
    order = report.iterations if nilpotent else None
    payload = {
        "annihilator": report.ann.canonical_strings(),
        "iterations": report.iterations,
        "nilpotent": nilpotent,
        "nilpotence_order": order,
    }
    lines = [
        f"annihilator: {', '.join(report.ann.canonical_strings()) or '0'}",
        f"nilpotent: {nilpotent}"
        + (f" (order {order})" if order is not None else ""),
    ]
    _emit(args, payload, lines)


def _corpus_case(case):
    name, argv, exit_code = case["name"], case["argv"], case.get("exit", 0)
    if not isinstance(name, str):
        raise ValueError(f"name {name!r} is not a string")
    if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
        raise ValueError(f"argv {argv!r} is not a list of strings")
    if "corpus-run" in argv:
        raise ValueError("a case cannot run corpus-run")
    if type(exit_code) is not int:  # bool is an int subclass
        raise ValueError(f"exit {exit_code!r} is not an integer")
    return name, argv, exit_code, case["expect"]


def _cmd_corpus_run(args):
    try:
        with open(args.corpus, "r", encoding="utf-8") as fh, _malformed("corpus"):
            cases = [_corpus_case(case) for case in json.load(fh)]
    except OSError as exc:
        raise UsageError(f"cannot read the corpus: {exc}") from exc
    results = []
    failed = 0
    for name, argv, exit_code, expect in cases:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = run(argv)
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code
        got = None
        status = "PASS"
        detail = ""
        if code != exit_code:
            status = "FAIL"
            detail = f"exit {code}"
        else:
            try:
                got = json.loads(buf.getvalue())
            except json.JSONDecodeError:
                got = buf.getvalue().strip()
            if got != expect:
                status = "FAIL"
                detail = f"got {got!r}"
        if status == "FAIL":
            failed += 1
        results.append({"name": name, "status": status, "detail": detail})
    if args.json:
        print(
            json.dumps(
                {
                    "results": results,
                    "passed": len(results) - failed,
                    "failed": failed,
                },
                sort_keys=True,
                indent=2,
            )
        )
    else:
        width = max((len(r["name"]) for r in results), default=0)
        for r in results:
            suffix = f"  ({r['detail']})" if r["detail"] else ""
            print(f"{r['name']:<{width}}  {r['status']}{suffix}")
        print(f"{len(results) - failed}/{len(results)} passed")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# wiring


_POLY, _CAP, _STEPS = "polynomial-ring operator command", 100_000, 64
_FIELD = ("--p", "--d", "--modulus", "--e")

# Every option a subcommand can take, in the order --help lists them.
_OPTIONS = {
    "corpus": dict(help="path to a JSON array of cases"),
    "--p": dict(type=int, default=2, help="prime characteristic"),
    "--d": dict(type=int, default=1, help="field degree over F_p"),
    "--modulus": dict(help="comma-separated modulus coefficients, low degree first"),
    "--e": dict(type=int, default=1, help="twist exponent (q = p^e)"),
    "--vars": dict(help="comma-separated variable names"),
    "--f": dict(help="operator multiplier (inline or file)"),
    "--ideal": dict(help="semicolon-separated generators, JSON list, or file"),
    "--expr": dict(help="polynomial expression (inline or file)"),
    "--module": dict(action="append", default=[], help="module JSON (inline or file)"),
    "--cap": dict(type=int, help="resource cap: points of k^n scanned and submodules "
                  "found by lattice commands, steps of chains (a chain that needs "
                  "exactly cap steps answers), members of other enumerations"),
    "--json": dict(action="store_true", help="canonical JSON output"),
}

# name -> (handler, help, the options its handler reads, --cap default).  A
# module command lists --module once for each module it reads; every
# subcommand takes --json.
_COMMANDS = {
    "field-info": (_cmd_field_info, "describe a field spec", _FIELD, None),
    "semilinear-analyze":
        (_cmd_semilinear_analyze, "decomposition and fixed points", ("--module",), None),
    "semilinear-hom": (_cmd_semilinear_hom, "Hom-space from a source module to a target "
                       "(--module source --module target)", ("--module", "--module"), None),
    "semilinear-lattice":
        (_cmd_semilinear_lattice, "all stable subspaces", ("--module", "--cap"), _CAP),
    "crystal-minimal": (_cmd_crystal_minimal, "minimal representative", ("--module",), None),
    "crystal-quasilength": (_cmd_crystal_quasilength, "quasi-length and lattice",
                            ("--module", "--cap"), _CAP),
    "poly-cartier": (_cmd_poly_cartier, _POLY, _FIELD + ("--vars", "--expr"), None),
    "poly-image": (_cmd_poly_image, _POLY, _FIELD + ("--vars", "--f", "--ideal"), None),
    "poly-stable-image":
        (_cmd_poly_stable_image, _POLY, _FIELD + ("--vars", "--f", "--ideal", "--cap"), _STEPS),
    "poly-smallest":
        (_cmd_poly_smallest, _POLY, _FIELD + ("--vars", "--f", "--ideal", "--cap"), _STEPS),
    "poly-compatible":
        (_cmd_poly_compatible, _POLY, _FIELD + ("--vars", "--f", "--ideal"), None),
    "poly-enum-compatible":
        (_cmd_poly_enum_compatible, _POLY, _FIELD + ("--vars", "--f", "--cap"), _CAP),
    "poly-split": (_cmd_poly_split, _POLY, _FIELD + ("--vars", "--f"), None),
    "poly-supp": (_cmd_poly_supp, _POLY, _FIELD + ("--vars", "--f", "--ideal", "--cap"), _STEPS),
    "corpus-run": (_cmd_corpus_run, "run a corpus of named cases", ("corpus",), None),
}
SUBCOMMANDS = tuple(_COMMANDS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartier",
        description="Exact computations with q^(-1)-linear operators "
        "over finite fields and polynomial rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, options, cap) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, description=text)
        for option, settings in _OPTIONS.items():
            if option in options or option == "--json":
                p.add_argument(option, **settings)
        if cap is not None:
            p.set_defaults(cap=cap)
    return parser


_parser = None  # built on the first run() and reused, e.g. by corpus-run


def _check_values(args, options):
    """Reject what the parser lets through and no handler reads: more
    --module values than the command lists, and the [] that argparse makes
    of `--flag=--` (Python 3.11 does) without calling the option's type."""
    modules = getattr(args, "module", [])
    reads = options.count("--module")
    if len(modules) > reads:
        raise UsageError(f"{args.command} takes {reads} --module value"
                         f"{'s' * (reads > 1)}, not {len(modules)}")
    values = [v for name, v in vars(args).items() if name != "module"] + modules
    if any(isinstance(v, list) for v in values):
        raise UsageError("an option was given `--` as its value")


def run(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    handler, _, options, _ = _COMMANDS[args.command]
    try:
        _check_values(args, options)
        code = handler(args)
        return 0 if code is None else code
    except (UsageError, DomainError) as exc:
        _report_error(args, exc)
        return 2
    except ResourceError as exc:
        _report_error(args, exc)
        return 3
    except InvariantViolation as exc:
        _report_error(args, exc)
        return 4


def _report_error(args, exc: CartierError):
    if getattr(args, "json", False):
        print(
            json.dumps(
                {"error": {"kind": exc.kind, "detail": str(exc)}}, sort_keys=True
            )
        )
    else:
        print(f"error[{exc.kind}]: {exc}", file=sys.stderr)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # so that a closed pipe shows up here at the latest
    except BrokenPipeError:
        # Whoever read stdout has gone.  Point stdout at devnull so the
        # flush at exit raises nothing more (the Python docs' recipe), and
        # exit 0: exit 1 means corpus failures.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
else:
    # Imported as a module (the `cartier` console script, tests, in-process
    # callers of run()): every layer is loaded, as before, because some
    # callers look layers up in sys.modules (perfbench's tracer does).
    # Only `python -m cartier.cli` loads a subcommand's layers alone.
    from . import operators, crystal  # noqa: E402,F401
