import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from clifflab.classify import (
    BOUNDS,
    EXCEPTIONAL,
    case1_n8,
    check_conditions,
    clifford_ledger,
    equivariance_obstruction,
    exclusion_scan,
    scal_formula,
    table1_rows,
    table2_rows,
    table3_rows,
    table_csv,
    table_markdown,
    tables_json,
    tables_payload,
)
from clifflab.reps import n0

FIXTURES = Path(__file__).parent / "fixtures"


class TestScalFormula:
    # the eight single-space entries printed in the submersion table
    def test_exceptional_values(self):
        assert scal_formula(16, 9) == 576 == 2**6 * 3**2
        assert scal_formula(32, 10) == 1536 == 2**9 * 3
        assert scal_formula(64, 12) == 4608 == 2**9 * 3**2
        assert scal_formula(128, 16) == 15360 == 2**10 * 3 * 5

    def test_family_polynomials(self):
        for k in range(1, 33):
            assert scal_formula(8 * k, 5) == 32 * k * (k + 3)
            assert scal_formula(8 * k, 6) == 32 * k * (k + 4)
            assert scal_formula(8 * k, 8) == 32 * k * (k + 6)
        for q in range(1, 33):
            assert scal_formula(4 * q, 3) == 8 * q * (q + 2)

    def test_an_int_exactly_when_integral(self):
        for n in range(1, 257):
            for r in range(2, 33):
                value = scal_formula(n, r)
                assert (type(value) is int) == (n * (n + 8 * r - 16) % 2 == 0)
                assert value == 2 * n * (Fraction(n, 4) + 2 * r - 4)


class TestCheckConditions:
    def test_case1_exhaustive_scan_fails_divisibility(self):
        for n in range(5, BOUNDS.max_rank + 1):
            verdict = check_conditions(1, {"n": n})
            assert verdict.reason == "fails_divisibility_b"
            assert verdict.witness["dim"] == (n - 1) * (n + 2) // 2

    def test_case2_witness(self):
        verdict = check_conditions(2, {"n": 2})
        assert verdict.reason == "fails_divisibility_b"
        assert verdict.witness["dim"] == 5
        assert verdict.witness["n0"] == 8

    def test_case7_admissible_all_q(self):
        for q in range(1, 33):
            verdict = check_conditions(7, {"p": 2, "q": q})
            assert verdict.admissible
            assert verdict.witness["dim"] == 8 * q

    def test_case3_admissible(self):
        for q in range(1, 33):
            assert check_conditions(3, {"p": 4, "q": q}).admissible
        assert check_conditions(3, {"p": 5, "q": 3}).reason == "fails_condition_a"

    def test_case4_verdicts(self):
        assert check_conditions(4, {"p": 8, "q": 3}).admissible
        assert check_conditions(4, {"p": 5, "q": 8}).reason == "needs_equivariance_argument"
        # divisibility failures dominate when present
        assert check_conditions(4, {"p": 5, "q": 1}).reason == "fails_divisibility_b"

    def test_case9_witnesses(self):
        assert check_conditions(9, {"subcase": "su4"}).witness["dim"] == 15
        for n in range(5, 33):
            verdict = check_conditions(9, {"subcase": "so", "n": n})
            assert verdict.reason == "fails_divisibility_b"
            assert verdict.witness["dim"] == n * (n - 1) // 2

    def test_exclusion_scan_summary(self):
        scan = exclusion_scan()
        assert scan["case1_all_fail"]
        assert scan["case9_so_all_fail"]
        assert scan["case2"]["witness"]["dim"] == 5
        assert scan["case5"]["witness"]["dim"] == 12
        assert scan["case6"]["witness"]["dim"] == 20
        assert scan["case9_su4"]["witness"]["dim"] == 15

    def test_case8_all_admissible(self):
        for group in EXCEPTIONAL:
            assert check_conditions(8, {"group": group}).admissible


class TestCase1N8:
    @pytest.mark.parametrize(
        "r,group,cdim",
        [
            (5, "Sp(2).Sp(1)", 3),
            (6, "U(4)", 1),
            (7, "Spin(7)", 0),
            (8, "SO(8)", 0),
        ],
    )
    def test_structure_groups_and_centralizers(self, r, group, cdim):
        out = case1_n8(r)
        assert out["structure_group"] == group
        assert out["centralizer_dim"] == cdim == out["centralizer_expected"]

    def test_geometries(self):
        assert case1_n8(5)["geometry"] == "quaternion-Kahler"
        assert "Spin(7)" in case1_n8(7)["geometry"]
        assert case1_n8(8)["geometry"] == "no condition"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            case1_n8(4)


class TestCliffordLedger:
    def test_rank3_is_quaternion_kahler(self):
        for q in (1, 2, 5):
            out = clifford_ledger(3, 4 * q)
            assert {"case": 3, "geometry": "quaternion-Kahler"} in out["cases"]

    def test_rank8_nonflat_excluded(self):
        out = clifford_ledger(8, 16)
        assert not out["nonflat_admissible"]
        assert out["cases"] == [{"case": 8, "geometry": "flat Cl_r representation space"}]
        assert "involution" in out["reason"]

    def test_rank7_dimension8(self):
        out = clifford_ledger(7, 8)
        assert {"case": 7, "geometry": "Spin(7) holonomy"} in out["cases"]
        assert out["nonflat_admissible"]

    def test_high_rank_reason(self):
        for r, dim in ((9, 16), (10, 32), (12, 64), (16, 128)):
            out = clifford_ledger(r, dim)
            assert not out["nonflat_admissible"]
            assert "twice" in out["reason"]

    def test_rank2_split(self):
        assert clifford_ledger(2, 4)["cases"][0]["geometry"] == "Kahler"
        assert clifford_ledger(2, 8)["cases"][0]["geometry"] == "hyper-Kahler"


class TestEquivariance:
    @pytest.mark.parametrize("p,q", [(5, 1), (5, 2), (6, 1)])
    def test_small_instances_certified(self, p, q):
        report = equivariance_obstruction(p, q)
        assert report.certified
        assert report.hom_dimension == q * q == report.scalar_family_dim
        assert not report.clifford_compatible


class TestTables:
    def test_payload_byte_matches_fixture(self):
        assert tables_json().encode() == (FIXTURES / "tables.json").read_bytes()

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_markdown_byte_matches_fixture(self, t):
        assert table_markdown(t).encode() == (FIXTURES / f"table{t}.md").read_bytes()

    def test_table2_dimensions_divisible(self):
        for row in table2_rows():
            if row["rank"] >= 5 and row["dim"].isdigit():
                assert int(row["dim"]) % n0(row["rank"]) == 0

    def test_table2_family_dims_divisible_symbolically(self):
        # the three 8k families against N0 in {8}
        for row in table2_rows():
            if "8k" in row["dim"]:
                assert n0(row["rank"]) == 8

    def test_table3_scal_values(self):
        rows = table3_rows()
        fixed = {r["rank"]: r for r in rows if r["scal_value"] is not None}
        assert fixed[9]["scal_value"] == 576
        assert fixed[9]["scal"] == "2^6.3^2"
        assert fixed[10]["scal_value"] == 1536
        assert fixed[10]["scal"] == "2^9.3"
        assert fixed[12]["scal_value"] == 4608
        assert fixed[12]["scal"] == "2^9.3^2"
        assert fixed[16]["scal_value"] == 15360
        assert fixed[16]["scal"] == "2^10.3.5"

    def test_table3_dim_totals(self):
        rows = table3_rows()
        for row in rows:
            if row["dim_base"].isdigit():
                assert int(row["dim_total"]) == int(row["dim_base"]) + row["rank"] - 1

    def test_rank7_absent_from_table3(self):
        assert all(r["rank"] != 7 for r in table3_rows())

    def test_table3_bases_appear_in_table2(self):
        t2 = {(r["rank"], r["space"]) for r in table2_rows()}
        matched = 0
        for row in table3_rows():
            if row["rank"] >= 5:
                base = row["base"]
                key = next(
                    ((rk, sp) for (rk, sp) in t2 if rk == row["rank"] and sp.endswith(base)),
                    None,
                )
                assert key is not None, row
                matched += 1
        assert matched == 8

    def test_csv_round_trip(self):
        import csv
        import io

        text = table_csv(3)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(table3_rows())
        assert rows[-1]["base"] == "E8/Spin+(16)"

    def test_payload_is_deterministic(self):
        assert tables_payload() == tables_payload()
        assert tables_json() == tables_json()


def test_table2_recheck_survives_python_O():
    # the verdict re-checks are raised errors, not asserts that -O strips
    code = (
        "import clifflab.classify as c\n"
        "c._CASE1_CENTRALIZER = {5: 4, 6: 1, 7: 0, 8: 0}\n"
        "try:\n"
        "    c.table2_rows()\n"
        "except AssertionError as err:\n"
        "    print('raised', err)\n"
    )
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("raised rank 5")
