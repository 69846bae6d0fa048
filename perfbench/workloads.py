"""Inputs, operations and known answers of the three workloads.

Every operation is one call into a public entry point of the program
(``cli.main`` or a library function), looked up on its module at call time so
that the traced run sees it.  ``run`` is the timed call; ``check`` compares
its result with the answer known for the generated input and returns None or
a one-line description of the mismatch.  Inputs the program is known to
answer wrongly today carry ``known_defect``: their mismatches are counted as
failed operations, and only mismatches elsewhere make the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

WORKLOADS = ("sweep", "commands", "rank_sweep")

SUITES = ("relations", "orthogonality", "hodge", "universality", "all")
MODELS = ("s8", "cp4", "hp2", "op2")
TABLE_FORMATS = ("json", "csv", "markdown")
RANK_SWEEP_RANKS = range(12, 18)
RANK_SWEEP_MAX_RANK = "17"
# n of the even family with default multiplicities (at r = 0 mod 4 one block
# of each volume sign, so n = 2 N0(r) there)
RANK_SWEEP_DIM = {12: 128, 13: 128, 14: 128, 15: 128, 16: 256, 17: 256}

HOSTILE_DEFECT = "loader accepts what exit 2 is documented for (ROADMAP item 2)"
HODGE_DEFECT = (
    "--suite all exits 1 on a valid explicit family at r = 3 mod 4"
    " (Hodge extension needs a backing representation)"
)


class SetupError(RuntimeError):
    """Input generation failed; the run cannot measure anything."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    known_defect: str | None = None


@dataclass
class CliResult:
    code: int
    stdout: str
    raised: str | None


def run_cli(cli, argv: list[str]) -> CliResult:
    """One command as a terminal user would run it: an uncaught exception
    ends the process with exit code 1."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # the real process would print a traceback
            code, raised = 1, f"{type(exc).__name__}: {exc}"
    return CliResult(code, out.getvalue(), raised)


def _expect(code: int, failure: tuple[str, list[int]] | None = None, extra=None):
    """Check of exit code, of one failing identity with its witness indices,
    and of whatever ``extra`` tests in the output."""

    def check(res: CliResult) -> str | None:
        if res.raised is not None:
            return f"raised {res.raised}; expected exit {code}"
        if res.code != code:
            return f"exit {res.code}; expected {code}"
        if failure is not None:
            kind, indices = failure
            seen = [
                (f["identity"], f["indices"])
                for suite in json.loads(res.stdout)["suites"]
                for f in suite.get("failures", [])
            ]
            if (kind, indices) not in seen:
                return f"no {kind} failure at {indices}"
        if extra is not None:
            return extra(res.stdout)
        return None

    return check


# -- sweep -------------------------------------------------------------------


def sweep_ops(lib, seed: int) -> list[Op]:
    """``verify-all`` for two seeds drawn from the workload seed; each report
    must pass every suite and repeat byte for byte."""
    rng = random.Random(seed)
    first: dict[int, str] = {}

    def op(s: int) -> Op:
        def check(res: CliResult) -> str | None:
            problem = _expect(0)(res)
            if problem:
                return problem
            report = json.loads(res.stdout)
            failed = [suite["name"] for suite in report["suites"] if not suite["passed"]]
            if failed or not report["passed"]:
                return f"suites failed: {failed}"
            if first.setdefault(s, res.stdout) != res.stdout:
                return "report bytes differ from the first run with this seed"
            return None

        return Op(f"verify-all --seed {s}", lambda: run_cli(lib.cli, ["verify-all", "--seed", str(s)]), check)

    return [op(rng.randrange(1_000_000)) for _ in range(2)]


# -- commands ----------------------------------------------------------------


def _write_family(path: Path, n: int, r: int, mats: dict) -> None:
    family = [
        {"i": i, "j": j, "matrix": [int(x) for x in mats[(i, j)].reshape(-1)]}
        for (i, j) in sorted(mats)
    ]
    path.write_text(json.dumps({"n": n, "r": r, "J": family}))


def _conjugate(mats: dict, rng: random.Random) -> dict:
    """Q J Q^T for a random signed permutation Q, which keeps every identity."""
    n = next(iter(mats.values())).shape[0]
    perm = list(range(n))
    rng.shuffle(perm)
    q = np.zeros((n, n), dtype=np.int64)
    q[perm, range(n)] = [rng.choice((-1, 1)) for _ in range(n)]
    return {key: q @ m @ q.T for key, m in mats.items()}


def _spectrum_complete(stdout: str) -> str | None:
    report = json.loads(stdout)
    n = report["config"]["n"]
    spectrum = next(s for s in report["suites"] if s["suite"] == "spectrum")
    total = sum(e["multiplicity"] for e in spectrum["data"]["eigenvalues"])
    if total != n * (n - 1) // 2:
        return f"spectrum multiplicities sum to {total}, not dim Lambda^2 = {n * (n - 1) // 2}"
    return None if report["passed"] else "report not passed"


def _table_check(fixtures: Path, table: int, fmt: str):
    markdown = (fixtures / f"table{table}.md").read_text()
    rows = json.loads((fixtures / "tables.json").read_text())[f"table{table}"]

    def check(stdout: str) -> str | None:
        if fmt == "markdown":
            ok = stdout == markdown + "\n"
        elif fmt == "json":
            ok = json.loads(stdout) == {"schema": 1, f"table{table}": rows}
        else:
            header = stdout.split("\r\n", 1)[0]
            ok = header == ",".join(rows[0]) and stdout.count("\r\n") == len(rows) + 1
        return None if ok else f"table {table} ({fmt}) differs from the fixture"

    return check


def _candidate_params(case: int, rng: random.Random) -> dict:
    if case == 1:
        return {"n": rng.randint(5, 32)}
    if case in (2, 5, 6):
        return {"n": rng.randint(2, 8)}
    if case == 3:
        return {"p": rng.randint(1, 8), "q": rng.randint(1, 8)}
    if case == 4:
        return {"p": rng.randint(5, 16), "q": rng.randint(1, 16)}
    if case == 7:
        return {"p": rng.randint(1, 4), "q": rng.randint(1, 8)}
    if case == 8:
        return {"group": rng.choice(("F4", "E6", "E7", "E8"))}
    if rng.random() < 0.5:
        return {"subcase": "su4"}
    return {"subcase": "so", "n": rng.randint(5, 32)}


def _candidate_check(case: int, params: dict):
    # the paper excludes case 1 and the so(n) subcase of case 9 outright
    excluded = case == 1 or params.get("subcase") == "so"

    def check(stdout: str) -> str | None:
        verdict = json.loads(stdout)
        if verdict["case"] != case or verdict["params"] != params:
            return "verdict is for another candidate"
        if excluded and verdict["admissible"]:
            return "excluded candidate reported admissible"
        return None

    return check


def _emit_tables_check(fixtures: Path, out_dir: Path):
    names = ("table1.md", "table2.md", "table3.md", "tables.json")

    def check(res: CliResult) -> str | None:
        problem = _expect(0)(res)
        try:
            if problem is None:
                differ = [n for n in names if (out_dir / n).read_bytes() != (fixtures / n).read_bytes()]
                if differ:
                    problem = f"emitted {differ} differ from the fixtures"
        except OSError as err:
            problem = f"emitted tables unreadable: {err}"
        shutil.rmtree(out_dir, ignore_errors=True)
        return problem

    return check


def commands_ops(lib, seed: int, workdir: Path, fixtures: Path) -> list[Op]:
    """A fixed mix of 104 single commands; the seed sets their order and the
    random parts of the inputs."""
    rng = random.Random(seed)
    cli = lib.cli
    ops: list[Op] = []

    def command(label: str, argv: list[str], check, known_defect: str | None = None) -> None:
        ops.append(Op(label, lambda: run_cli(cli, argv), check, known_defect))

    # verify on repgen files, even kind, every suite
    for r in range(2, 11):
        path = workdir / f"repgen_r{r}.json"
        argv = ["repgen", "--rank", str(r), "--kind", "even", "--out", str(path)]
        if r % 4 == 0:
            m_plus, m_minus = rng.choice(((1, 1), (2, 0), (0, 2)))
            argv += ["--m-plus", str(m_plus), "--m-minus", str(m_minus)]
        if run_cli(cli, argv).code != 0:
            raise SetupError(f"repgen failed at rank {r}")
        for suite in SUITES:
            if suite == "hodge" and r % 4 != 3:
                check = _expect(1, ("hodge_extension", []))
            else:
                check = _expect(0)
            argv = ["verify", "--structure", str(path), "--suite", suite, "--seed", str(rng.randrange(1000))]
            command(f"verify repgen r={r} --suite {suite}", argv, check)

    # verify --suite all on explicit families: valid, one sign flipped, one
    # matrix doubled (no longer a signed permutation)
    for r in range(2, 10):
        rep = lib.reps.build_even_rep(r)
        base = _conjugate(lib.structure.EvenCliffordStructure.from_rep(rep).family.mats, rng)
        n = rep.dim
        pairs = sorted(base)
        for variant in ("valid", "flipped", "doubled"):
            mats = {key: m.copy() for key, m in base.items()}
            i, j = rng.choice(pairs)
            if variant == "valid":
                check = _expect(0)
            elif variant == "flipped":
                a, b = rng.choice(list(zip(*np.nonzero(mats[(i, j)]))))
                mats[(i, j)][a, b] *= -1
                check = _expect(1, ("skew_symmetry", [i, j]))
            else:
                mats[(i, j)] *= 2
                check = _expect(1, ("unit_square", [i, j]))
            path = workdir / f"family_r{r}_{variant}.json"
            _write_family(path, n, r, mats)
            defect = HODGE_DEFECT if variant == "valid" and r % 4 == 3 else None
            argv = ["verify", "--structure", str(path), "--suite", "all", "--seed", str(rng.randrange(1000))]
            command(f"verify family r={r} {variant} --suite all", argv, check, defect)

    # hostile files: each must be refused with exit 2
    wrap = 2**63 - 1
    big = 2**63 + rng.randrange(1000)
    low, high = rng.randint(105, 195) / 100, rng.randint(105, 195) / 100
    hostile = {
        "int64 wrap": [0, wrap, -wrap, 0],
        "float entry": [0, -low, high, 0],
        "entry >= 2^63": [0, big, -big, 0],
    }
    for k, (label, matrix) in enumerate(hostile.items()):
        path = workdir / f"hostile_{k}.json"
        path.write_text(json.dumps({"n": 2, "r": 2, "J": [{"i": 1, "j": 2, "matrix": matrix}]}))
        argv = ["verify", "--structure", str(path), "--suite", "relations"]
        command(f"verify hostile ({label})", argv, _expect(2), HOSTILE_DEFECT)

    for model in MODELS:
        argv = ["curvature", "--model", model, "--check", "all"]
        command(f"curvature {model} --check all", argv, _expect(0, extra=_spectrum_complete))

    for table in (1, 2, 3):
        for fmt in TABLE_FORMATS:
            argv = ["classify", "--table", str(table), "--format", fmt]
            command(f"classify --table {table} --format {fmt}", argv, _expect(0, extra=_table_check(fixtures, table, fmt)))

    for case in range(1, 10):
        for _ in range(2):
            params = _candidate_params(case, rng)
            argv = ["classify", "--candidate", f"case{case}"]
            for key, value in params.items():
                argv += [f"--{key}", str(value)]
            command(" ".join(argv), argv, _expect(0, extra=_candidate_check(case, params)))

    out_dir = workdir / "tables"
    command("emit-tables", ["emit-tables", "--dir", str(out_dir)], _emit_tables_check(fixtures, out_dir))

    rng.shuffle(ops)
    return ops


# -- rank_sweep --------------------------------------------------------------


def rank_sweep_ops(lib, seed: int) -> list[Op]:
    """build_even_rep -> from_rep -> verify_relations -> verify_orthogonality
    for r = 12..17, in a seeded order; at r = 0 mod 4 the seed splits the two
    volume blocks, which keeps n."""
    rng = random.Random(seed)
    ranks = list(RANK_SWEEP_RANKS)
    rng.shuffle(ranks)
    ops = []
    for r in ranks:
        split = rng.choice(((1, 1), (2, 0), (0, 2))) if r % 4 == 0 else (1, None)

        def run(r=r, split=split):
            rep = lib.reps.build_even_rep(r, *split)
            s = lib.structure.EvenCliffordStructure.from_rep(rep)
            return s.n, lib.structure.verify_relations(s), lib.structure.verify_orthogonality(s)

        def check(result, r=r) -> str | None:
            n, rel, ort = result
            if n != RANK_SWEEP_DIM[r]:
                return f"n = {n}, expected {RANK_SWEEP_DIM[r]}"
            if not (rel.passed and ort.passed):
                return f"relations passed={rel.passed}, orthogonality passed={ort.passed}"
            return None

        ops.append(Op(f"rank_sweep r={r} split={split}", run, check))
    return ops


def build(name: str, lib, seed: int, workdir: Path, fixtures: Path) -> list[Op]:
    if name == "sweep":
        return sweep_ops(lib, seed)
    if name == "commands":
        return commands_ops(lib, seed, workdir, fixtures)
    return rank_sweep_ops(lib, seed)
