"""Command line entry point.

Subcommands: repgen, verify, curvature, classify, emit-tables, verify-all.
Reports are JSON with a versioned schema; with a fixed seed two runs produce
byte-identical output (wall-clock timings are only included on request, so
that the determinism contract holds for the default reports).  Exit codes:
0 all checks passed, 1 a verification suite failed, 2 usage error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, classify, curvature, linalg, reps, structure
from .blades import AlgebraSignature, CliffordElement

SCHEMA = 1


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


def _report(command: str, config: dict, suites: list[dict], timing=None) -> dict:
    return {
        "schema": SCHEMA,
        "tool": "clifflab",
        "version": __version__,
        "command": command,
        "config": config,
        "suites": suites,
        "passed": all(s["passed"] for s in suites),
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


def _blade_mismatch(ext, rep: reps.MatrixRep) -> tuple[int, ...] | None:
    """First even blade on which the extension and the representation
    disagree, or None when they agree on every even blade."""
    sig = AlgebraSignature(rep.rank)
    for mask in range(1 << rep.rank):
        if bin(mask).count("1") % 2:
            continue
        indices = tuple(i + 1 for i in range(rep.rank) if mask >> i & 1)
        elem = CliffordElement.blade(sig, indices)
        if not np.array_equal(ext(elem), reps.evaluate(rep, elem)):
            return indices
    return None


def _load_structure(path: str) -> structure.EvenCliffordStructure:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise CliError(f"cannot read {path}: {err}", 3) from err
    return structure.EvenCliffordStructure.from_json(text)


def cmd_verify(args) -> int:
    s = _load_structure(args.structure)
    suites = []
    if args.suite in ("relations", "all"):
        suites.append(structure.verify_relations(s).to_dict())
    if args.suite in ("orthogonality", "all"):
        suites.append(structure.verify_orthogonality(s).to_dict())
    if args.suite in ("hodge", "all"):
        if args.suite == "all" and s.r % 4 != 3:
            # only an explicit hodge request treats non-extendable ranks
            # as a failing verdict
            suites.append(
                {
                    "suite": "hodge",
                    "passed": True,
                    "failures": [],
                    "data": {"skipped": f"rank {s.r} is not 3 mod 4; no extension exists"},
                }
            )
        else:
            try:
                ks = structure.extend_hodge(s)
                suites.append(
                    {
                        "suite": "hodge",
                        "passed": True,
                        "failures": [],
                        "data": {"extension_rank": len(ks)},
                    }
                )
            except (reps.UnsupportedRankError, structure.StructureError) as err:
                suites.append(
                    {
                        "suite": "hodge",
                        "passed": False,
                        "failures": [
                            {"identity": "hodge_extension", "indices": [], "residual": str(err)}
                        ],
                        "data": {},
                    }
                )
    if args.suite in ("universality", "all"):
        phi = {p: s.family.mats[p] for p in s.pairs()}
        try:
            ext = structure.universal_extension(phi, s.r, s.n, seed=args.seed)
            mismatch = _blade_mismatch(ext, s.rep) if s.rep is not None else None
            detail = {"accepted": True}
            if mismatch is not None:
                detail["mismatch"] = list(mismatch)
            suites.append(
                {"suite": "universality", "passed": mismatch is None, "failures": [], "data": detail}
            )
        except structure.ExtensionRejected as err:
            suites.append(
                {
                    "suite": "universality",
                    "passed": False,
                    "failures": [
                        {"identity": "extension_criterion", "indices": list(err.witness), "residual": str(err)}
                    ],
                    "data": {},
                }
            )
    report = _report("verify", {"structure": args.structure, "suite": args.suite, "seed": args.seed}, suites)
    _write_or_print(_dump(report), args.report)
    return 0 if report["passed"] else 1


# -- curvature -------------------------------------------------------------------


def cmd_curvature(args) -> int:
    model = curvature.build_model(args.model)
    suites = []
    if args.check in ("identities", "all"):
        rep = curvature.verify_parallel_identities(model.operator, model.structure, 2)
        suites.append(rep.to_dict())
    if args.check in ("cc", "all"):
        rep = curvature.verify_cc_normalization(model.operator, model.structure)
        suites.append(rep.to_dict())
    if args.check in ("spectrum", "all"):
        spec = curvature.lambda2_spectrum(model.operator, model.spectrum_candidates)
        suites.append(
            {
                "suite": "spectrum",
                "passed": True,
                "failures": [],
                "data": {
                    "eigenvalues": [
                        {"value": str(lam), "multiplicity": mult} for lam, mult in spec
                    ]
                },
            }
        )
    config = {
        "model": args.model,
        "check": args.check,
        "n": model.n,
        "r": model.r,
        "scale": str(model.scale),
        "expected_scal": str(model.expected_scal),
    }
    report = _report("curvature", config, suites)
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
        verdict = classify.check_conditions(case_id, params)
        _write_or_print(json.dumps(verdict.to_dict(), indent=2) + "\n", args.out)
        return 0
    if args.table is None:
        raise CliError("classify needs --table or --candidate", 2)
    if args.format == "json":
        rows = {1: classify.table1_rows, 2: classify.table2_rows, 3: classify.table3_rows}[args.table]()
        text = json.dumps({"schema": SCHEMA, f"table{args.table}": rows}, indent=2) + "\n"
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


def _suite(name: str, passed: bool, **details) -> dict:
    return {"name": name, "passed": bool(passed), "details": details}


def _rand_even(rng, sig, terms=3):
    out = CliffordElement.zero(sig)
    for _ in range(terms):
        k = 2 * rng.randint(0, sig.rank // 2)
        indices = sorted(rng.sample(range(1, sig.rank + 1), k))
        out = out + CliffordElement.blade(sig, indices, Fraction(rng.randint(-3, 3)))
    return out


def run_verify_all(seed: int) -> list[dict]:
    suites = []

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
    suites.append(
        _suite(
            "dimension_tables",
            all(got == want for got, want in quoted.values()),
            values={k: got for k, (got, _) in quoted.items()},
        )
    )

    sweep_ok = True
    block_pairing = None
    for r in range(2, 17):
        # minimal irreducible family at every rank; for r = 0 mod 4 that is
        # the positive volume block
        rep = reps.build_even_rep(r, 1, 0) if r % 4 == 0 else reps.build_even_rep(r)
        s = structure.EvenCliffordStructure.from_rep(rep)
        rel = structure.verify_relations(s)
        ort = structure.verify_orthogonality(s)
        sweep_ok = sweep_ok and rel.passed and ort.passed
    block = structure.EvenCliffordStructure.from_rep(reps.build_even_rep(4, 1, 0))
    block_pairing = structure.verify_orthogonality(block).data["pairings"]["(1,2),(3,4)"]
    suites.append(
        _suite(
            "relation_sweep",
            sweep_ok and block_pairing == "4",
            ranks="2..16",
            rank4_block_pairing=block_pairing,
        )
    )

    split = structure.split_rank4(
        structure.EvenCliffordStructure.from_rep(reps.build_even_rep(4, 1, 1))
    )
    suites.append(_suite("rank4_split", split.report.passed))

    hodge_ok = True
    for r in (3, 7):
        try:
            structure.extend_hodge(structure.EvenCliffordStructure.from_rep(reps.build_even_rep(r)))
        except Exception:
            hodge_ok = False
    rejected = 0
    for r in (5, 6):
        try:
            structure.extend_hodge(structure.EvenCliffordStructure.from_rep(reps.build_even_rep(r)))
        except reps.UnsupportedRankError:
            rejected += 1
    suites.append(_suite("hodge_extension", hodge_ok and rejected == 2, rejected_ranks=[5, 6]))

    rng = random.Random(seed)
    uni_ok = True
    for r in (2, 3, 5, 6, 7, 8):
        rep = reps.build_even_rep(r, 1, 1) if r % 4 == 0 else reps.build_even_rep(r)
        phi = structure.lambda2_restriction(rep)
        ext = structure.universal_extension(phi, r, rep.dim, random_checks=32, seed=seed)
        if _blade_mismatch(ext, rep) is not None:
            uni_ok = False
        if r <= 6:
            sig = AlgebraSignature(r)
            for _ in range(20):
                a, b = _rand_even(rng, sig), _rand_even(rng, sig)
                if not np.array_equal(ext(a * b), linalg.imatmul(ext(a), ext(b))):
                    uni_ok = False
    scaled = dict(structure.lambda2_restriction(reps.build_even_rep(3)))
    scaled[(1, 2)] = 2 * scaled[(1, 2)]
    try:
        structure.universal_extension(scaled, 3, 4)
        uni_ok = False
        witness = None
    except structure.ExtensionRejected as err:
        witness = list(err.witness)
    suites.append(_suite("universality", uni_ok and witness == [1, 2, 2], rejection_witness=witness))

    cert = reps.triality_map()
    pulled = structure.EvenCliffordStructure(8, 8, cert.pulled_back)
    tri_rel = structure.verify_relations(pulled)
    suites.append(
        _suite(
            "triality",
            cert.bijective and cert.brackets_exact and tri_rel.passed,
            brackets_checked=cert.brackets_checked,
        )
    )

    model_details = {}
    models_ok = True
    for name in curvature.MODEL_NAMES:
        model = curvature.build_model(name)
        cc = curvature.verify_cc_normalization(model.operator, model.structure)
        detail = {
            "scal": str(model.operator.scalar()),
            "cc_passed": cc.passed,
            "bianchi": model.operator.symmetry_violations() == [],
        }
        if name != "op2":
            spec = curvature.lambda2_spectrum(model.operator, model.spectrum_candidates)
            detail["spectrum"] = {str(lam): mult for lam, mult in spec}
        model_details[name] = detail
        models_ok = models_ok and cc.passed and detail["bianchi"]
    suites.append(_suite("curvature_models", models_ok, **model_details))

    cents = {}
    cent_ok = True
    for r in (5, 6, 7, 8):
        case = classify.case1_n8(r)
        cents[f"r={r}"] = case["centralizer_dim"]
        cent_ok = cent_ok and case["centralizer_dim"] == case["centralizer_expected"]
    suites.append(_suite("centralizers", cent_ok, **cents))

    scan = classify.exclusion_scan()
    tables_stable = classify.tables_json() == classify.tables_json()
    ledger_ok = (
        not classify.clifford_ledger(8, 16)["nonflat_admissible"]
        and classify.clifford_ledger(7, 8)["nonflat_admissible"]
    )
    suites.append(
        _suite(
            "classification",
            scan["case1_all_fail"]
            and scan["case9_so_all_fail"]
            and tables_stable
            and ledger_ok,
            exclusions={
                "case2_dim": scan["case2"]["witness"]["dim"],
                "case5_dim": scan["case5"]["witness"]["dim"],
                "case6_dim": scan["case6"]["witness"]["dim"],
                "case9_su4_dim": scan["case9_su4"]["witness"]["dim"],
            },
        )
    )

    return suites


def cmd_verify_all(args) -> int:
    t0 = time.monotonic()
    suites = run_verify_all(args.seed)
    timing = {"seconds": round(time.monotonic() - t0, 3)} if args.timings else None
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
        "--suite", choices=("relations", "orthogonality", "hodge", "universality", "all"), default="all"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curvature", help="check a model curvature operator")
    p.add_argument("--model", choices=curvature.MODEL_NAMES, required=True)
    p.add_argument("--check", choices=("identities", "cc", "spectrum", "all"), default="all")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("classify", help="emit a table or judge a single candidate")
    p.add_argument("--table", type=int, choices=(1, 2, 3))
    p.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
    p.add_argument("--candidate", default=None, help="case1 .. case9")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--group", default=None)
    p.add_argument("--subcase", default=None)
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
