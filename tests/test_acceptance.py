"""The 13 acceptance criteria of `hsep.verify.CHECKS`, one test each.

Run `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per row;
`hsep verify --level full` prints the same rows.  Each test is named after
its check (`test_criterion_01_asep_oracle_equivalence`, ...).
"""

from hsep.verify import CHECKS, evaluate, format_row

_ROW_OWNER = {}  # row name -> the check that printed it, over the tests run so far


def _acceptance_test(check):
    def test():
        rows = evaluate(check)
        for row in rows:
            print(format_row(row))
        failed = [row[0] for row in rows if not row[3]]
        assert not failed, f"{check.name}: above threshold: {failed}"
        # row names identify rows in `hsep verify --out`, so they are unique
        names = [row[0] for row in rows]
        clash = [n for n in names if _ROW_OWNER.setdefault(n, check.name) != check.name]
        assert len(set(names)) == len(names) and not clash, f"{check.name}: repeated rows"

    return test


for _check in CHECKS:
    globals()[f"test_{_check.name}"] = _acceptance_test(_check)
