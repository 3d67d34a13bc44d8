"""tools/cli_digests.py: the byte-identity check over a fixed list of CLI commands."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "cli_digests.py")
_SPEC = importlib.util.spec_from_file_location("cli_digests", _PATH)
cli_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digests)


def test_two_runs_print_the_same_lines():
    first = cli_digests.digest_lines()
    assert first == cli_digests.digest_lines()
    commands = {line.split("\t")[0] for line in first}
    exits = {line.split("\t")[0]: line.split("\t")[2] for line in first if line.split("\t")[1] == "exit"}
    assert set(exits) == commands
    # the mimicry demo has no document form; every other command succeeds
    assert {command for command, code in exits.items() if code != "0"} == {"demo mimicry --emit"}
    written = [line for line in first if line.split("\t")[1] not in ("stdout", "stderr", "exit")]
    # CSV and SVG of 5 demos and 7 runs, and the sweep's CSV
    assert len(written) == 2 * (5 + 7) + 1
