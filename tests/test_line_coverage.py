"""The line-coverage gate's check of its own allowances."""

from line_coverage import ALLOWED, stale_allowances


def test_a_real_allowance_passes():
    assert ALLOWED
    assert stale_allowances(ALLOWED) == []


def test_an_allowance_that_names_no_executable_line_is_reported():
    made_up = {
        ("cli.py", "no_such_call()"): "a line cli.py does not hold",
        ("cli.py", "# fills a new Namespace each time, so no call may change the parser"):
            "a comment, which runs no code",
        ("no_such_module.py", "sys.exit(main())"): "a module that does not exist",
    }
    assert stale_allowances({**ALLOWED, **made_up}) == list(made_up)
