"""Shared pytest hooks: one pass/fail line per acceptance criterion, then
the per-seed numbers the criterion recorded with record_property."""

_ACCEPTANCE = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE.append((report.nodeid.split("::")[-1], report.passed,
                            report.user_properties))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, passed, properties in _ACCEPTANCE:
        terminalreporter.write_line(f"  {'PASS' if passed else 'FAIL'}  {name}")
        for key, value in properties:
            terminalreporter.write_line(f"        {key}: {value}")
