"""Command line entry point.

Subcommands: repgen, verify, curvature, classify, emit-tables, verify-all.
The suites of verify, curvature and verify-all are the checks of one ordered
table each, and every suite is reported in one shape, {suite, passed,
failures, data}.  Reports are JSON with a versioned schema; two runs of one
command line produce byte-identical output (wall-clock timings are only
included on request).  No check draws random input: ``--seed`` is accepted
and echoed in ``config`` so that existing command lines keep working.
Exit codes: 0 all checks passed, 1 a verification suite failed, 2 usage
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__, classify, curvature, reps, structure
from .structure import Failure, VerificationReport

# the report shape; the table JSON keeps its own classify.TABLE_SCHEMA
SCHEMA = 2


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        print(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as err:
        raise CliError(f"cannot write {out}: {err}", 3) from err


def _report(command: str, config: dict, checks: list[VerificationReport], timing=None) -> dict:
    return {
        "schema": SCHEMA,
        "tool": "clifflab",
        "version": __version__,
        "command": command,
        "config": config,
        "suites": [c.to_dict() for c in checks],
        "passed": all(c.passed for c in checks),
        "timing": timing,
    }


def _dump(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


# -- repgen --------------------------------------------------------------------


def cmd_repgen(args) -> int:
    if args.kind == "full":
        rep = reps.build_clifford_rep(args.rank, args.copies)
    else:
        m_plus = args.m_plus if args.m_plus is not None else args.copies
        rep = reps.build_even_rep(args.rank, m_plus, args.m_minus)
    problems = rep.validate()
    if problems:
        raise CliError("generated representation failed validation: " + "; ".join(problems), 1)
    _write_or_print(rep.to_json(), args.out)
    return 0


# -- verify --------------------------------------------------------------------

# The check tables reach library checks through their module at call time,
# so that a patched or wrapped module function is the one that runs.
VERIFY_SUITES = {
    "relations": lambda s: structure.verify_relations(s),
    "orthogonality": lambda s: structure.verify_orthogonality(s),
    "hodge": lambda s: structure.verify_hodge(s),
    "universality": lambda s: structure.verify_universality(s),
}


def _load_structure(path: str) -> structure.EvenCliffordStructure:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise CliError(f"cannot read {path}: {err}", 3) from err
    return structure.EvenCliffordStructure.from_json(text)


def cmd_verify(args) -> int:
    s = _load_structure(args.structure)
    if args.suite == "all":
        # only an explicit hodge request treats non-extendable ranks as a
        # failing verdict
        checks = {**VERIFY_SUITES, "hodge": lambda s: structure.verify_hodge(s, skip_other_ranks=True)}
    else:
        checks = {args.suite: VERIFY_SUITES[args.suite]}
    config = {"structure": args.structure, "suite": args.suite, "seed": args.seed}
    report = _report("verify", config, [check(s) for check in checks.values()])
    _write_or_print(_dump(report), args.report)
    return 0 if report["passed"] else 1


# -- curvature -------------------------------------------------------------------

# each check sees the reports made before it: cc reuses the identities one
CURVATURE_CHECKS = {
    "identities": lambda m, done: curvature.verify_parallel_identities(m.operator, m.structure, 2),
    "cc": lambda m, done: curvature.verify_cc_normalization(m.operator, m.structure, done.get("identities")),
    "spectrum": lambda m, done: curvature.verify_spectrum(m.operator, m.spectrum_candidates),
}


def cmd_curvature(args) -> int:
    model = curvature.build_model(args.model)
    done = {}
    for name in CURVATURE_CHECKS if args.check == "all" else [args.check]:
        done[name] = CURVATURE_CHECKS[name](model, done)
    config = {
        "model": args.model,
        "check": args.check,
        "n": model.n,
        "r": model.r,
        "scale": str(model.scale),
        "expected_scal": str(model.expected_scal),
    }
    report = _report("curvature", config, list(done.values()))
    _write_or_print(_dump(report), args.out)
    return 0 if report["passed"] else 1


# -- classify --------------------------------------------------------------------


def cmd_classify(args) -> int:
    if args.candidate:
        case_id = int(args.candidate.removeprefix("case"))
        params = {}
        for key in ("p", "q", "n"):
            if getattr(args, key) is not None:
                params[key] = getattr(args, key)
        if args.group:
            params["group"] = args.group
        if args.subcase:
            params["subcase"] = args.subcase
        try:
            verdict = classify.check_conditions(case_id, params)
        except KeyError as err:
            raise CliError(f"{args.candidate} needs --{err.args[0]}", 2) from None
        _write_or_print(json.dumps(verdict.to_dict(), indent=2) + "\n", args.out)
        return 0
    if args.table is None:
        raise CliError("classify needs --table or --candidate", 2)
    if args.format == "json":
        rows = {1: classify.table1_rows, 2: classify.table2_rows, 3: classify.table3_rows}[args.table]()
        text = json.dumps({"schema": classify.TABLE_SCHEMA, f"table{args.table}": rows}, indent=2) + "\n"
    elif args.format == "csv":
        text = classify.table_csv(args.table)
    else:
        text = classify.table_markdown(args.table)
    _write_or_print(text, args.out)
    return 0


def cmd_emit_tables(args) -> int:
    out_dir = Path(args.dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for t in (1, 2, 3):
            if args.format == "csv":
                (out_dir / f"table{t}.csv").write_text(classify.table_csv(t))
            else:
                (out_dir / f"table{t}.md").write_text(classify.table_markdown(t))
        (out_dir / "tables.json").write_text(classify.tables_json())
    except OSError as err:
        raise CliError(f"cannot write tables into {args.dir}: {err}", 3) from err
    return 0


# -- verify-all -------------------------------------------------------------------


def _within(context: str, report: VerificationReport) -> list[Failure]:
    """The failures of a sub-check, each identity prefixed with its context."""
    return [Failure(f"{context}/{f.identity}", f.indices, f.residual) for f in report.failures]


def _even_structure(r: int, *multiplicities) -> structure.EvenCliffordStructure:
    return structure.EvenCliffordStructure.from_rep(reps.build_even_rep(r, *multiplicities))


def _dimension_tables() -> VerificationReport:
    quoted = {
        "n0(5)": (reps.n0(5), 8),
        "n0(6)": (reps.n0(6), 8),
        "n_irr(9)": (reps.n_irr(9), 32),
        "n_irr(10)": (reps.n_irr(10), 64),
        "n_irr(12)": (reps.n_irr(12), 128),
        "n_irr(16)": (reps.n_irr(16), 256),
        "n0(9)": (reps.n0(9), 16),
        "n0(10)": (reps.n0(10), 32),
        "n0(12)": (reps.n0(12), 64),
        "n0(16)": (reps.n0(16), 128),
    }
    failures = [Failure(name, (), str(got - want)) for name, (got, want) in quoted.items() if got != want]
    return VerificationReport(
        "dimension_tables", failures, {"values": {name: got for name, (got, _) in quoted.items()}}
    )


def _relation_sweep() -> VerificationReport:
    failures = []
    for r in range(2, 17):
        s = structure.EvenCliffordStructure.from_rep(reps.irreducible_even_rep(r))
        failures += _within(f"r={r}", structure.verify_relations(s))
        orthogonality = structure.verify_orthogonality(s)
        failures += _within(f"r={r}", orthogonality)
        if r == 4:
            block_pairing = orthogonality.data["pairings"]["(1,2),(3,4)"]
    if block_pairing != "4":
        failures.append(Failure("r=4/block_pairing", (1, 2, 3, 4), str(int(block_pairing) - 4)))
    return VerificationReport(
        "relation_sweep", failures, {"ranks": "2..16", "rank4_block_pairing": block_pairing}
    )


def _rank4_split() -> VerificationReport:
    return structure.split_rank4(_even_structure(4, 1, 1)).report


def _hodge_extension() -> VerificationReport:
    failures = []
    for r in (3, 7):
        failures += _within(f"r={r}", structure.verify_hodge(_even_structure(r)))
    rejected = [r for r in (5, 6) if not structure.verify_hodge(_even_structure(r)).passed]
    failures += [Failure(f"r={r}/hodge_refusal", (), "an extension was built") for r in (5, 6) if r not in rejected]
    return VerificationReport("hodge_extension", failures, {"rejected_ranks": rejected})


def _universality() -> VerificationReport:
    failures = []
    for r in (2, 3, 5, 6, 7, 8):
        s = _even_structure(r, 1, 1) if r % 4 == 0 else _even_structure(r)
        failures += _within(f"r={r}", structure.verify_universality(s))
    scaled = dict(_even_structure(3).family.mats)
    scaled[(1, 2)] = 2 * scaled[(1, 2)]
    rejection = structure.verify_universality(structure.EvenCliffordStructure.from_matrices(4, 3, scaled))
    witness = list(rejection.failures[0].indices) if rejection.failures else None
    if witness != [1, 2, 2]:
        failures.append(Failure("scaled_map/rejection_witness", (1, 2, 2), f"got {witness}"))
    return VerificationReport("universality", failures, {"rejection_witness": witness})


def _triality() -> VerificationReport:
    cert = reps.triality_map()
    failures = []
    if not cert.brackets_exact:
        failures.append(Failure("brackets_exact", (), "a basis bracket is not preserved"))
    pulled = structure.EvenCliffordStructure(8, 8, cert.pulled_back)
    failures += _within("pulled_back", structure.verify_relations(pulled))
    return VerificationReport("triality", failures, {"brackets_checked": cert.brackets_checked})


def _curvature_models() -> VerificationReport:
    failures, data = [], {}
    for name in curvature.MODEL_NAMES:
        model = curvature.build_model(name)
        cc = curvature.verify_cc_normalization(model.operator, model.structure)
        failures += _within(name, cc)
        # build_model certified pair symmetry and Bianchi (CalibrationError otherwise)
        detail = {"scal": cc.data["scal"], "cc_passed": cc.passed, "bianchi": True}
        spectrum = curvature.verify_spectrum(model.operator, model.spectrum_candidates)
        failures += _within(name, spectrum)
        eigenvalues = spectrum.data.get("eigenvalues", [])
        detail["spectrum"] = {e["value"]: e["multiplicity"] for e in eigenvalues}
        data[name] = detail
    return VerificationReport("curvature_models", failures, data)


def _centralizers() -> VerificationReport:
    failures, data = [], {}
    for r in (5, 6, 7, 8):
        case = classify.case1_n8(r)
        got, want = case["centralizer_dim"], case["centralizer_expected"]
        data[f"r={r}"] = got
        if got != want:
            failures.append(Failure(f"r={r}/centralizer_dim", (), str(got - want)))
    return VerificationReport("centralizers", failures, data)


def _classification() -> VerificationReport:
    scan = classify.exclusion_scan()
    claims = {
        "case1_excluded": scan["case1_all_fail"],
        "case9_so_excluded": scan["case9_so_all_fail"],
        "tables_stable": classify.tables_json() == classify.tables_json(),
        "ledger_r8_n16_flat_only": not classify.clifford_ledger(8, 16)["nonflat_admissible"],
        "ledger_r7_n8_nonflat": classify.clifford_ledger(7, 8)["nonflat_admissible"],
    }
    failures = [Failure(claim, (), "does not hold") for claim, holds in claims.items() if not holds]
    exclusions = {
        "case2_dim": scan["case2"]["witness"]["dim"],
        "case5_dim": scan["case5"]["witness"]["dim"],
        "case6_dim": scan["case6"]["witness"]["dim"],
        "case9_su4_dim": scan["case9_su4"]["witness"]["dim"],
    }
    return VerificationReport("classification", failures, {"exclusions": exclusions})


VERIFY_ALL_SUITES = {
    "dimension_tables": _dimension_tables,
    "relation_sweep": _relation_sweep,
    "rank4_split": _rank4_split,
    "hodge_extension": _hodge_extension,
    "universality": _universality,
    "triality": _triality,
    "curvature_models": _curvature_models,
    "centralizers": _centralizers,
    "classification": _classification,
}


def cmd_verify_all(args) -> int:
    t0 = time.monotonic()
    suites, seconds = [], {}
    for name, suite in VERIFY_ALL_SUITES.items():
        start = time.monotonic()
        suites.append(suite())
        seconds[name] = round(time.monotonic() - start, 3)
    timing = {"seconds": round(time.monotonic() - t0, 3), "suites": seconds} if args.timings else None
    report = _report("verify-all", {"seed": args.seed}, suites, timing)
    _write_or_print(_dump(report), args.out)
    return 0 if report["passed"] else 1


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clifflab",
        description="exact verification of even Clifford structures, curvature models,"
        " and the classification tables",
    )
    parser.add_argument("--version", action="version", version=f"clifflab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("repgen", help="generate exact generator matrices")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--kind", choices=("full", "even"), default="full")
    p.add_argument("--copies", type=int, default=1)
    p.add_argument("--m-plus", type=int, default=None, dest="m_plus")
    p.add_argument("--m-minus", type=int, default=None, dest="m_minus")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_repgen)

    p = sub.add_parser("verify", help="run verification suites on a structure file")
    p.add_argument("--structure", required=True)
    p.add_argument(
"--suite", choices=(*VERIFY_SUITES, "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curvature", help="check a model curvature operator")
    p.add_argument("--model", choices=curvature.MODEL_NAMES, required=True)
    p.add_argument("--check", choices=(*CURVATURE_CHECKS, "all"), default="all")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("classify", help="emit a table or judge a single candidate")
    p.add_argument("--table", type=int, choices=(1, 2, 3))
    p.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
    p.add_argument("--candidate", choices=[f"case{c}" for c in classify.CANDIDATES], default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--group", choices=tuple(classify.EXCEPTIONAL), default=None)
    p.add_argument("--subcase", choices=("su4", "so"), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("emit-tables", help="write table1-3 and tables.json into a directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.set_defaults(func=cmd_emit_tables)

    p = sub.add_parser("verify-all", help="run the full acceptance sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if err.code is not None else 2
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
