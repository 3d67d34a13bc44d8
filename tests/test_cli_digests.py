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
    # the mimicry demo has no document form; the error paths exit 1, argparse's usage errors and runtime
    # failures 2; every other command succeeds
    assert {command for command, code in exits.items() if code != "0"} == {
        "demo mimicry --emit",
        "threshold malware-epidemic.json --empirical --runs 4 --horizon 10 --bisections -1",
        "run missing.json",
        "run bad.json",
        "run covariance-overflow.json --csv run-covariance-overflow.csv --svg run-covariance-overflow.svg",
        "run means-overflow.json --csv run-means-overflow.csv --svg run-means-overflow.svg",
        "run gradient-overflow.json --csv run-gradient-overflow.csv --svg run-gradient-overflow.svg",
        "run no-species.json",
        "run lv-classic.json --csv missing/run.csv",
        "sweep lv-classic.json --param initial.prey --from 20 --to 30 --points 2 --metric final:nope",
        "sweep lv-classic.json --param initial.prey --from 20 --to 30 --points 2 --svg sweep.svg",
        "sweep lv-classic.json --param interaction.predator:prey.coeff_j --from 0 --to 1 --points 2",
        "sweep selection.json --param beta --from 0.1 --to 0.2 --points 2",
        "stability malware-epidemic.json",
        "sweep arms-race.json --param interaction.attacker:victim.alpha --from 1 --to inf --points 2",
        "sweep arms-race.json --param interaction.attacker:victim.alpha --from 1 --to -1 --points -1",
        "sweep lv-classic.json --param species.predator.trophic_level --from 1 --to 2 --points 3",
        "run horizon-1e300.json",
        "run horizon-huge-integer.json",
        "run horizon-long-integer.json",
        "run symbiosis-divergence.json",
        "run ivlev-overflow.json",
        "run symbiosis-divergence-rk45.json",
        "run ivlev-overflow-rk45.json",
        "run continuum-no-self-limitation.json",
        "run continuum-unknown-species.json",
    }
    assert exits["run symbiosis-divergence.json"] == exits["run ivlev-overflow.json"] == "2"
    assert exits["run symbiosis-divergence-rk45.json"] == exits["run ivlev-overflow-rk45.json"] == "2"
    assert exits["run continuum-no-self-limitation.json"] == exits["run continuum-unknown-species.json"] == "1"
    assert len(commands) == 63
    written = [line for line in first if line.split("\t")[1] not in ("stdout", "stderr", "exit")]
    # CSV and SVG of 5 demos and 14 runs, and the three sweeps' CSVs; a failed run writes nothing
    assert len(written) == 2 * (5 + 14) + 3
    assert {"run sir-epidemic.json --csv run-sir-epidemic.csv --svg run-sir-epidemic.svg",
            "run k30-epidemic.json --csv run-k30-epidemic.csv --svg run-k30-epidemic.svg",
            "run ba-seedless-epidemic.json --csv run-ba-seedless-epidemic.csv --svg run-ba-seedless-epidemic.svg",
            "run ba-1100-epidemic.json --csv run-ba-1100-epidemic.csv --svg run-ba-1100-epidemic.svg",
            "run extinction.json --csv run-extinction.csv --svg run-extinction.svg",
            "run remainder.json --csv run-remainder.csv --svg run-remainder.svg",
            "stability extinction.json", "stability huge-rates.json", "stability three-kinds.json",
            "stability one-species.json"} <= commands


def test_warning_locations_are_masked():
    stderr = (
        "/some/checkout/src/ecolab/selection.py:129: RuntimeWarning: overflow encountered in add\n"
        "  advanced = replace(state, means=state.means + delta)\n"
        "error: means must be finite\n"
    )
    assert cli_digests.mask_warnings(stderr) == (
        "<file>:<line>: RuntimeWarning: overflow encountered in add\nerror: means must be finite\n"
    )
