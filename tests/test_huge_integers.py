"""Integers too long to convert are refused with a typed error.

A `precision` or `tz` in a `.wbi` file and a `wikibase:timePrecision` or
`timeTimezone` literal in an N-Triples file are bounded at
`MAX_INT_DIGITS` digits by wbforge itself. The bound is the lowest limit
PYTHONINTMAXSTRDIGITS can set, so every outcome here is the same under
any setting of it; CI runs this file under 640 and 0 as well.
"""

import sys

import pytest

from wbforge.cli import main
from wbforge.dsl import parse_instances
from wbforge.errors import DslSyntaxError
from wbforge.fixtures import fixture_path
from wbforge.model import MAX_INT_DIGITS, bounded_int

SCHEMA = fixture_path("age-record", "wbs")
WBI = fixture_path("age-record", "wbi").read_text()
NT = fixture_path("age-record", "nt").read_text()
XSD_INT = "^^<http://www.w3.org/2001/XMLSchema#int>"
VALUE_NODE = "http://wikibase.example/value/bd0149fc13fbf2c9c76eefbb855bed446fd5e580"
HUGE = "1" * 5000


def test_the_bound_holds_under_every_interpreter_limit():
    # below it int() never refuses a digit string, whatever the setting
    assert MAX_INT_DIGITS <= getattr(sys.int_info, "str_digits_check_threshold", 640)
    assert bounded_int("-" + "9" * MAX_INT_DIGITS) == -int("9" * MAX_INT_DIGITS)
    assert bounded_int("9" * (MAX_INT_DIGITS + 1)) is None
    assert bounded_int("-" + "9" * (MAX_INT_DIGITS + 1)) is None


def _run(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.mark.parametrize("clause,what,col", [
    (f"precision {HUGE}", "a precision integer", 68),
    (f"precision {'1' * (MAX_INT_DIGITS + 1)}", "a precision integer", 68),
    (f"tz -{HUGE}", "a timezone offset in minutes", 61),
], ids=["precision", "precision-one-over", "tz"])
def test_export_refuses_a_huge_integer_at_its_token(clause, what, col, tmp_path, capsys):
    text = WBI.replace("precision 9", clause)
    with pytest.raises(DslSyntaxError) as exc:
        parse_instances(text)
    assert (exc.value.line, exc.value.col) == (7, col)
    wbi = tmp_path / "huge.wbi"
    wbi.write_text(text)
    status, out, err = _run(["export", str(SCHEMA), str(wbi)], capsys)
    assert (status, out) == (2, "")
    assert err == (f"wbforge: {wbi}:7:{col}: expected {what} "
                   f"of at most {MAX_INT_DIGITS} digits\n")


def test_an_integer_at_the_bound_exports_and_validates(tmp_path, capsys):
    wbi = tmp_path / "wide.wbi"
    wbi.write_text(WBI.replace("precision 9", "precision " + "1" * MAX_INT_DIGITS))
    status, out, err = _run(["export", str(SCHEMA), str(wbi)], capsys)
    assert (status, err) == (0, "")
    assert f'"{"1" * MAX_INT_DIGITS}"{XSD_INT}' in out
    nt = tmp_path / "wide.nt"
    nt.write_text(out)
    assert _run(["validate", str(SCHEMA), str(nt)], capsys) == (
        0, "errors=0 warnings=0\n", "")


@pytest.mark.parametrize("digits", [HUGE, "1" * (MAX_INT_DIGITS + 1), "-" + HUGE],
                         ids=["huge", "one-over", "negative"])
def test_validate_reports_a_huge_time_precision_as_malformed(digits, tmp_path, capsys):
    nt = tmp_path / "huge.nt"
    nt.write_text(NT.replace(f'"9"{XSD_INT}', f'"{digits}"{XSD_INT}'))
    status, out, err = _run(["validate", str(SCHEMA), str(nt)], capsys)
    assert (status, err) == (1, "")
    assert out == (f"ERROR ValueNodeMalformed <{VALUE_NODE}> : wikibase:timePrecision "
                   f"has more than {MAX_INT_DIGITS} digits\nerrors=1 warnings=0\n")
