import signal

import pytest

# A test still running after this many seconds fails by name instead of
# hanging the run; the slowest test takes a few seconds.
TEST_TIME_LIMIT_S = 120


def _out_of_time(signum, frame):
    pytest.fail(f"test ran longer than {TEST_TIME_LIMIT_S} s", pytrace=False)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import acceptance_report

    if acceptance_report.lines:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance criteria", sep="-")
        for n in sorted(acceptance_report.lines):
            terminalreporter.write_line(acceptance_report.lines[n])
