"""tools/cli_digests.py: the byte-identity check over a fixed list of CLI commands."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "cli_digests.py")
_SPEC = importlib.util.spec_from_file_location("cli_digests", _PATH)
cli_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digests)


@pytest.fixture(scope="module")
def first():
    return cli_digests.digest_lines()


def test_two_runs_print_the_same_lines(first):
    assert first == cli_digests.digest_lines()


def test_each_command_exits_as_its_table_entry_says(first):
    commands = [command for command, _ in cli_digests.COMMANDS]
    assert len(set(commands)) == len(commands)
    lines = [line.split("\t") for line in first]
    assert [(command, code) for command, what, code in lines if what == "exit"] == [
        (command, str(code)) for command, code in cli_digests.COMMANDS
    ]
    # a command that exits 0 writes exactly the files its --csv and --svg name; any other writes nothing
    written = {command: set() for command in commands}
    for command, what, _ in lines:
        if what not in ("stdout", "stderr", "exit"):
            written[command].add(what)
    expected = {}
    for command, code in cli_digests.COMMANDS:
        argv = command.split()
        named = {argv[k + 1] for k, arg in enumerate(argv) if arg in ("--csv", "--svg")}
        expected[command] = named if code == 0 else set()
    assert written == expected


def test_warning_locations_are_masked():
    stderr = (
        "/some/checkout/src/ecolab/selection.py:129: RuntimeWarning: overflow encountered in add\n"
        "  advanced = replace(state, means=state.means + delta)\n"
        "error: means must be finite\n"
    )
    assert cli_digests.mask_warnings(stderr) == (
        "<file>:<line>: RuntimeWarning: overflow encountered in add\nerror: means must be finite\n"
    )
