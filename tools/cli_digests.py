"""sha256 digests of what a fixed list of ecolab CLI commands prints and writes.

    python3 tools/cli_digests.py > change.txt
    python3 tools/cli_digests.py --src /path/to/other/checkout/src > base.txt
    diff base.txt change.txt

`documents()` gives the text of every `<name>.json` the commands read: the
demos' documents, the benchmark's document-runs documents and the ones
below, each stating what it reaches. They are all written to a fresh
temporary work directory; then each command of `COMMANDS`, in order, runs
there in-process through `ecolab.cli_main`, imported from `--src` (default:
this checkout's `src/`). `COMMANDS` pairs each command with the exit code
it is expected to give. For each command the tool prints one line per
stdout, stderr, exit code and written file:

    <command>  <what>  <sha256>

The exit code is what `cli_main` returns, the code of a `SystemExit` it
raises (argparse's usage errors), or `uncaught <ExceptionType>` for any
other exception, which a real process would print as a traceback.

Wall-clock lines are masked before hashing, and so are the
`<file>:<line>:` prefix and the quoted source line of a Python warning,
which name the checkout ecolab is imported from. So two runs of the same
code print the same lines, and a diff against another checkout is empty
when the two produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WALL_CLOCK = re.compile(r"wall clock: [0-9.]+ ms")
# a warning as Python prints it: "<file>:<line>: <category>: <message>", then the quoted source line
WARNING = re.compile(r"^.*:[0-9]+: (\w*Warning: .*)\n(  .*\n)?", re.MULTILINE)

# SIR on a random graph: the run writes a recovered_fraction column
SIR_EPIDEMIC = {
    "kind": "epidemic",
    "graph": {"generator": "erdos_renyi", "n": 40, "p": 0.2, "seed": 3},
    "model": "sir",
    "beta": 0.3,
    "gamma": 1.0,
    "initial_infected": [0, 1],
    "seed": 5,
    "horizon": 15.0,
    "sample_dt": 1.0,
}
# SIS over K30 stated by its recipe: the run takes the complete-graph event loop
K30_EPIDEMIC = {
    "kind": "epidemic",
    "graph": {"generator": "complete", "n": 30},
    "model": "sis",
    "beta": 0.1,
    "gamma": 1.0,
    "initial_infected": [0, 1, 2],
    "seed": 9,
    "horizon": 10.0,
    "sample_dt": 0.5,
}
# SIS over a preferential-attachment graph whose recipe leaves out the optional seed
BA_SEEDLESS_EPIDEMIC = {
    "kind": "epidemic",
    "graph": {"generator": "barabasi_albert", "n": 60, "m": 2},
    "model": "sis",
    "beta": 0.3,
    "gamma": 1.0,
    "initial_infected": [0, 5],
    "seed": 2,
    "horizon": 12.0,
    "sample_dt": 1.0,
}
# SIS over a 1100-node preferential-attachment graph: past 1024 nodes, its Fenwick list pads to 2048
BA_1100_EPIDEMIC = {
    "kind": "epidemic",
    "graph": {"generator": "barabasi_albert", "n": 1100, "m": 2, "seed": 3},
    "model": "sis",
    "beta": 0.2,
    "gamma": 1.0,
    "initial_infected": [0, 600, 1099],
    "seed": 4,
    "horizon": 3.0,
    "sample_dt": 0.5,
}
# SIR over a graph given by its edges, the edge 2-3 twice, once reversed: the graph keeps it once
EXPLICIT_EPIDEMIC = {
    "kind": "epidemic",
    "graph": {"generator": "explicit", "n": 8,
              "edges": [[0, 1], [1, 2], [2, 3], [3, 2], [3, 4], [4, 5], [5, 6], [6, 7], [7, 0], [1, 5]]},
    "model": "sir",
    "beta": 0.8,
    "gamma": 1.0,
    "initial_infected": [0],
    "seed": 3,
    "horizon": 10.0,
    "sample_dt": 1.0,
}
# the predator's decline outruns its gain from the prey: it dies out near t = 11.46
EXTINCTION = {
    "kind": "community",
    "species": [
        {"id": "prey", "role": "producer", "growth_rate": 1.0, "self_limitation": 0.1},
        {"id": "predator", "role": "consumer", "trophic_level": 1, "growth_rate": 2.0},
    ],
    "interactions": [
        {"species_i": "predator", "species_j": "prey", "kind": "predation", "coeff_i": 0.1,
         "response": {"type": "linear", "rate": 0.01}}
    ],
    "initial_densities": {"prey": 10.0, "predator": 8.0},
    "horizon": 20.0,
}
# 200 RK4 steps of 0.1, then a remainder step of 0.05 that ends on the horizon
REMAINDER = {
    "kind": "community",
    "species": [
        {"id": "prey", "role": "producer", "growth_rate": 1.0, "self_limitation": 0.02},
        {"id": "predator", "role": "consumer", "trophic_level": 1, "growth_rate": 0.4},
    ],
    "interactions": [
        {"species_i": "predator", "species_j": "prey", "kind": "predation", "coeff_i": 0.5,
         "response": {"type": "holling2", "rate": 0.2, "handling": 0.1}}
    ],
    "initial_densities": {"prey": 20.0, "predator": 5.0},
    "integrator": {"method": "rk4_fixed", "step": 0.1},
    "horizon": 20.05,
}

# competition at rates of 1e200: Newton's residual norms overflow to inf
HUGE_RATES = {
    "kind": "community",
    "species": [
        {"id": "a", "role": "producer", "growth_rate": 1e200, "self_limitation": 1e200},
        {"id": "b", "role": "producer", "growth_rate": 1e200, "self_limitation": 1e200},
    ],
    "interactions": [{"species_i": "a", "species_j": "b", "kind": "competition", "coeff_i": 1e200, "coeff_j": 1e200}],
    "initial_densities": {"a": 1.0, "b": 1.0},
    "horizon": 1.0,
}
NO_SPECIES = {"kind": "community", "species": [], "interactions": [], "initial_densities": {}, "horizon": 1}
# a logistic producer alone: the fixed-point search of one species, whose de-duplication distance is one abs
ONE_SPECIES = {
    "kind": "community",
    "species": [{"id": "algae", "role": "producer", "growth_rate": 0.8, "self_limitation": 0.2}],
    "interactions": [],
    "initial_densities": {"algae": 1.0},
    "horizon": 10.0,
}
# one entry of each mass-action kind next to a predation entry: the stability Jacobian inlines all three
THREE_KINDS = {
    "kind": "community",
    "species": [
        {"id": "grass", "role": "producer", "growth_rate": 1.0, "self_limitation": 0.1},
        {"id": "shrub", "role": "producer", "growth_rate": 0.8, "self_limitation": 0.1},
        {"id": "grazer", "role": "consumer", "trophic_level": 1, "growth_rate": 0.3, "self_limitation": 0.05},
    ],
    "interactions": [
        {"species_i": "grass", "species_j": "shrub", "kind": "competition", "coeff_i": 0.05, "coeff_j": 0.04},
        {"species_i": "shrub", "species_j": "grazer", "kind": "symbiosis", "coeff_i": 0.02, "coeff_j": 0.01},
        {"species_i": "grazer", "species_j": "grass", "kind": "predation", "coeff_i": 0.5,
         "response": {"type": "linear", "rate": 0.1}},
    ],
    "initial_densities": {"grass": 5.0, "shrub": 4.0, "grazer": 1.0},
    "horizon": 20.0,
}
# an RK4 symbiosis pair whose densities pass the divergence bound near t = 0.85: the refused state raises
SYMBIOSIS_DIVERGENCE = {
    "kind": "community",
    "species": [
        {"id": "a", "role": "producer", "growth_rate": 1.0, "self_limitation": 1.0},
        {"id": "b", "role": "producer", "growth_rate": 1.0, "self_limitation": 1.0},
    ],
    "interactions": [{"species_i": "a", "species_j": "b", "kind": "symbiosis", "coeff_i": 3.0, "coeff_j": 1.0}],
    "initial_densities": {"a": 1.0, "b": 1.0},
    "integrator": {"method": "rk4_fixed", "step": 0.01},
    "horizon": 5.0,
}
# the s0-s1 symbiosis diverges and s1 preys on s2 through an Ivlev response: an RK4 stage drives s2 far
# below 0, where exp(-saturation * x) overflows, and the refused state raises a non-finite derivative
IVLEV_OVERFLOW = {
    "kind": "community",
    "species": [{"id": f"s{k}", "role": "producer", "growth_rate": 0.0} for k in range(3)],
    "interactions": [
        {"species_i": "s0", "species_j": "s1", "kind": "symbiosis", "coeff_i": 1.0, "coeff_j": 1.0},
        {"species_i": "s1", "species_j": "s2", "kind": "predation", "coeff_i": 0.0,
         "response": {"type": "ivlev", "rate": 1.0, "saturation": 1.0}},
    ],
    "initial_densities": {"s0": 1.0, "s1": 1.0, "s2": 1.0},
    "integrator": {"method": "rk4_fixed", "step": 0.07},
    "horizon": 2.0,
}


# the documents that run with --csv --svg, in order: the demos' (but mimicry's, which has no document form),
# the document-runs workload's, then the ones above
DEMOS = ("lv-classic", "food-chain", "arms-race", "malware-epidemic", "mimicry")
RUNS = (*DEMOS[:-1], "food-chain-rk45", "selection", "discrete", "sir-epidemic", "k30-epidemic",
        "ba-seedless-epidemic", "ba-1100-epidemic", "explicit-epidemic", "extinction", "remainder")
COMMUNITIES = ("lv-classic", "food-chain", "arms-race", "food-chain-rk45", "extinction", "remainder")
EMPIRICAL = "threshold malware-epidemic.json --empirical --runs 4 --horizon 10"
LV_SWEEP = "sweep lv-classic.json --param initial.prey --from 20 --to 30 --points 2"
ARMS_SWEEP = "sweep arms-race.json --param interaction.attacker:victim.alpha --from 1"


def _outputs(prefix: str) -> str:
    return f"--csv {prefix}.csv --svg {prefix}.svg"


#: Every command in the order it runs, with the exit code it gives.
COMMANDS = [
    *((command, code) for name in DEMOS for command, code in (
        (f"demo {name} --emit", 1 if name == "mimicry" else 0), (f"demo {name} {_outputs(f'demo-{name}')}", 0))),
    *((f"run {name}.json {_outputs(f'run-{name}')}", 0) for name in RUNS),
    *((f"stability {name}.json", 0) for name in COMMUNITIES),
    (f"run malware-epidemic.json --seed 9 {_outputs('run-malware-epidemic-seed-9')}", 0),
    (f"{ARMS_SWEEP} --to -1 --points 21 --metric final:victim --csv sweep.csv", 0),
    ("sweep extinction.json --param interaction.predator:prey.coeff_i --from 0.1 --to 10 --points 3"
     " --csv sweep-extinction.csv", 0),
    ("sweep malware-epidemic.json --param beta --from 0.02 --to 0.2 --points 3 --runs 4 --csv sweep-epidemic.csv", 0),
    ("threshold malware-epidemic.json", 0),
    (f"{EMPIRICAL} --bisections 2", 0),
    (f"{EMPIRICAL} --bisections -1", 1),
    ("run missing.json", 1),
    ("run bad.json", 1),
    *((f"run {name}.json {_outputs(f'run-{name}')}", 1)
      for name in ("covariance-overflow", "means-overflow", "gradient-overflow")),
    ("run no-species.json", 1),
    ("run lv-classic.json --csv missing/run.csv", 1),
    (f"{LV_SWEEP} --metric final:nope", 1),
    (f"{LV_SWEEP} --metric bogus", 1),
    ("sweep malware-epidemic.json --param beta --from 0.02 --to 0.2 --points 3 --metric final:x", 1),
    ("threshold lv-classic.json", 1),
    (f"{LV_SWEEP} --svg sweep.svg", 2),
    ("stability huge-rates.json", 0),
    ("stability three-kinds.json", 0),
    ("stability one-species.json", 0),
    ("run horizon-1e300.json", 1),
    ("run horizon-huge-integer.json", 1),
    ("run horizon-long-integer.json", 1),
    # a predation entry has no coeff_j
    ("sweep lv-classic.json --param interaction.predator:prey.coeff_j --from 0 --to 1 --points 2", 1),
    ("sweep selection.json --param beta --from 0.1 --to 0.2 --points 2", 1),
    ("stability malware-epidemic.json", 1),
    (f"{ARMS_SWEEP} --to inf --points 2", 1),
    (f"{ARMS_SWEEP} --to -1 --points -1", 1),
    ("sweep lv-classic.json --param species.predator.trophic_level --from 1 --to 2 --points 3", 1),
    # the RK4 refusal paths, then RKF45's settle step on the same documents and on the dying predator's
    ("run symbiosis-divergence.json", 2),
    ("run ivlev-overflow.json", 2),
    ("run symbiosis-divergence-rk45.json", 2),
    ("run ivlev-overflow-rk45.json", 2),
    (f"run extinction-rk45.json {_outputs('run-extinction-rk45')}", 0),
    ("run continuum-no-self-limitation.json", 1),
    ("run continuum-unknown-species.json", 1),
]


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def mask_warnings(stderr: str) -> str:
    """stderr without the location and source line of each Python warning."""
    return WARNING.sub(r"<file>:<line>: \1\n", stderr)


def _workload_documents(workdir: str) -> dict[str, str]:
    """The document-runs workload's extra documents at its default seed, by name."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.DocumentRuns(workdir).inputs(workloads.DEFAULT_SEED)["documents"]


def _rk45(document: dict) -> dict:
    """`document` switched to rk45_adaptive, from the initial step it has."""
    return dict(document, integrator=dict(document.get("integrator", {}), method="rk45_adaptive"))


def documents(workdir: str) -> dict[str, str]:
    """The text of every `<name>.json` that COMMANDS read, by name."""
    from ecolab import serialize_scenario
    from ecolab.demos import demo_document

    texts = {name: serialize_scenario(demo_document(name)) for name in DEMOS[:-1]}
    texts.update(_workload_documents(workdir))
    selection, arms_race = json.loads(texts["selection"]), json.loads(texts["arms-race"])
    attacker, victim = arms_race["species"]
    objects = {
        "sir-epidemic": SIR_EPIDEMIC,
        "k30-epidemic": K30_EPIDEMIC,
        "ba-seedless-epidemic": BA_SEEDLESS_EPIDEMIC,
        "ba-1100-epidemic": BA_1100_EPIDEMIC,
        "explicit-epidemic": EXPLICIT_EPIDEMIC,
        "extinction": EXTINCTION,
        "remainder": REMAINDER,
        # a symmetrized covariance sum that overflows, then means that overflow
        "covariance-overflow": dict(selection, covariance=dict(selection["covariance"], c_display_preference=1e308)),
        "means-overflow": dict(selection, steps=100000),
        # 1e308 * 10 is inf: the linear natural gradient fails at the initial means, before the run starts
        "gradient-overflow": dict(
            selection,
            means=dict(selection["means"], display=10.0),
            natural_gradient={"type": "linear", "intercept": [0, 0, 0],
                              "matrix": [[1e308, 0, 0], [0, 0, 0], [0, 0, 0]]},
        ),
        "no-species": NO_SPECIES,
        "huge-rates": HUGE_RATES,
        "three-kinds": THREE_KINDS,
        "one-species": ONE_SPECIES,
        # about 1e302 RK4 steps of 0.1: the step budget refuses the document
        "horizon-1e300": dict(REMAINDER, horizon=1e300),
        # an integer horizon too large for a float
        "horizon-huge-integer": dict(REMAINDER, horizon=10**400),
        "symbiosis-divergence": SYMBIOSIS_DIVERGENCE,
        "ivlev-overflow": IVLEV_OVERFLOW,
        "symbiosis-divergence-rk45": _rk45(SYMBIOSIS_DIVERGENCE),
        "ivlev-overflow-rk45": _rk45(IVLEV_OVERFLOW),
        "extinction-rk45": _rk45(EXTINCTION),
        "continuum-no-self-limitation": dict(arms_race, species=[attacker, dict(victim, self_limitation=0)]),
        "continuum-unknown-species": dict(
            arms_race, interactions=[dict(arms_race["interactions"][0], species_j="zz")]
        ),
    }
    texts.update((name, json.dumps(document)) for name, document in objects.items())
    texts["bad"] = '{"kind": "community",'
    # an integer horizon past int()'s limit of 4300 digits: json.dumps cannot write one of 5001 digits, so it
    # replaces a placeholder
    texts["horizon-long-integer"] = json.dumps(dict(REMAINDER, horizon="<long>")).replace(
        '"<long>"', "1" + "0" * 5000
    )
    return texts


def _run(argv: list[str]) -> tuple[int | str, str, str]:
    """One command through cli_main: exit code, stdout, stderr."""
    import ecolab

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        # each command warns as it would in a fresh process
        warnings.simplefilter("default")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = ecolab.cli_main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # recorded, so the commands after it still run
                code = f"uncaught {type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def digest_lines() -> list[str]:
    """The digest lines of every command, run in a fresh temporary work directory."""
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="ecolab-cli-digests-") as workdir:
        os.chdir(workdir)
        try:
            for name, text in documents(workdir).items():
                with open(f"{name}.json", "w", encoding="utf-8") as handle:
                    handle.write(text)
            for command, _ in COMMANDS:
                before = set(os.listdir())
                code, stdout, stderr = _run(command.split())
                lines.append(f"{command}\tstdout\t{_sha256(WALL_CLOCK.sub('wall clock: <masked>', stdout))}")
                lines.append(f"{command}\tstderr\t{_sha256(mask_warnings(stderr))}")
                lines.append(f"{command}\texit\t{code}")
                for written in sorted(set(os.listdir()) - before):
                    with open(written, "rb") as handle:
                        lines.append(f"{command}\t{written}\t{_sha256(handle.read())}")
        finally:
            os.chdir(cwd)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory ecolab is imported from")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    for line in digest_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
