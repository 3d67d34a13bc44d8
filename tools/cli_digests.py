"""sha256 digests of what a fixed list of ecolab CLI commands prints and writes.

    python3 tools/cli_digests.py > change.txt
    python3 tools/cli_digests.py --src /path/to/other/checkout/src > base.txt
    diff base.txt change.txt

Every command runs in-process through `ecolab.cli_main`, imported from
`--src` (default: this checkout's `src/`): each demo with and without
`--emit`, `run --csv --svg` on each demo's document, on the three extra
documents of the benchmark's document-runs workload, on an SIR epidemic,
on an SIS epidemic over the recipe `{"generator": "complete", "n": 30}`,
on one over a `barabasi_albert` recipe that leaves out its seed and on
one over a 1100-node `barabasi_albert` graph, past the generator's
1024-position padding, on a predator-prey community whose predator dies
out and on one whose horizon ends in a shorter RK4 step (the remainder
step), `stability` on the community documents, one arms-race `sweep`
over the continuum dial, one `sweep` of the dying predator's conversion
efficiency, one epidemic `sweep` over beta, `threshold` on the malware
demo with and without `--empirical`, and the error paths of a missing
file, bad JSON, a negative `--bisections`, a covariance whose
symmetrized sum overflows, a selection run whose means overflow, a
selection document whose linear natural gradient overflows at its
initial means, a community with no species, a CSV path in a missing
directory, a sweep metric naming no species, a sweep given `--svg`,
`stability` on a competition pair with rates of 1e200, a sweep of
`coeff_j` on a predation entry (which has none), `sweep` on a selection
and `stability` on an epidemic document, a sweep to `--to inf`, a sweep
of `--points -1`, a sweep of a trophic level through 1.5, `stability` on
a community with a competition, a symbiosis and a predation entry,
`stability` on a logistic producer alone, `run` on an RK4 document whose
horizon of 1e300 is past the step budget, `run` on a document whose
horizon is an integer too large for a float, `run` on one whose horizon
is an integer past int()'s limit of 4300 digits, and the RK4 refusal
paths: `run` on a symbiosis pair that diverges and on a community whose
Ivlev response overflows in a stage (a non-finite derivative), the paths
of RKF45's settle step: `run` on those two documents and on the dying
predator's, each switched to rk45_adaptive from the initial step it has
(two divergences, the second after a clamp, and an extinction, with
`--csv --svg`), and `run` on the arms-race document with the victim's
self-limitation set to 0 and with its continuum entry naming an unknown
species. For each command it prints one line per stdout, stderr, exit
code and written file:

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


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def mask_warnings(stderr: str) -> str:
    """stderr without the location and source line of each Python warning."""
    return WARNING.sub(r"<file>:<line>: \1\n", stderr)


def _documents(workdir: str) -> dict[str, str]:
    """The document-runs workload's extra documents at its default seed, by name."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.DocumentRuns(workdir).inputs(workloads.DEFAULT_SEED)["documents"]


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
    from ecolab import Scenario, parse_scenario
    from ecolab.demos import DEMO_NAMES

    lines = []

    def record(*argv: str) -> str:
        before = set(os.listdir())
        code, stdout, stderr = _run(list(argv))
        label = " ".join(argv)
        lines.append(f"{label}\tstdout\t{_sha256(WALL_CLOCK.sub('wall clock: <masked>', stdout))}")
        lines.append(f"{label}\tstderr\t{_sha256(mask_warnings(stderr))}")
        lines.append(f"{label}\texit\t{code}")
        for written in sorted(set(os.listdir()) - before):
            with open(written, "rb") as handle:
                lines.append(f"{label}\t{written}\t{_sha256(handle.read())}")
        return stdout if code == 0 else ""

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="ecolab-cli-digests-") as workdir:
        os.chdir(workdir)
        try:
            texts = {}
            for demo in DEMO_NAMES:
                texts[demo] = record("demo", demo, "--emit")
                record("demo", demo, "--csv", f"demo-{demo}.csv", "--svg", f"demo-{demo}.svg")
            texts = {name: text for name, text in texts.items() if text}
            texts.update(_documents(workdir))
            texts.update({"sir-epidemic": json.dumps(SIR_EPIDEMIC), "k30-epidemic": json.dumps(K30_EPIDEMIC),
                          "ba-seedless-epidemic": json.dumps(BA_SEEDLESS_EPIDEMIC),
                          "ba-1100-epidemic": json.dumps(BA_1100_EPIDEMIC),
                          "extinction": json.dumps(EXTINCTION), "remainder": json.dumps(REMAINDER)})
            for name, text in texts.items():
                with open(f"{name}.json", "w", encoding="utf-8") as handle:
                    handle.write(text)
            for name in texts:
                record("run", f"{name}.json", "--csv", f"run-{name}.csv", "--svg", f"run-{name}.svg")
            for name, text in texts.items():
                if isinstance(parse_scenario(text), Scenario):
                    record("stability", f"{name}.json")
            record(
                "sweep", "arms-race.json", "--param", "interaction.attacker:victim.alpha",
                "--from", "1", "--to", "-1", "--points", "21", "--metric", "final:victim", "--csv", "sweep.csv",
            )
            record(
                "sweep", "extinction.json", "--param", "interaction.predator:prey.coeff_i",
                "--from", "0.1", "--to", "10", "--points", "3", "--csv", "sweep-extinction.csv",
            )
            record(
                "sweep", "malware-epidemic.json", "--param", "beta", "--from", "0.02", "--to", "0.2",
                "--points", "3", "--runs", "4", "--csv", "sweep-epidemic.csv",
            )
            record("threshold", "malware-epidemic.json")
            empirical = ("threshold", "malware-epidemic.json", "--empirical", "--runs", "4", "--horizon", "10")
            record(*empirical, "--bisections", "2")
            record(*empirical, "--bisections", "-1")
            record("run", "missing.json")
            with open("bad.json", "w", encoding="utf-8") as handle:
                handle.write('{"kind": "community",')
            record("run", "bad.json")
            selection = json.loads(texts["selection"])
            covariance = dict(selection["covariance"], c_display_preference=1e308)
            overflows = {
                "covariance-overflow": dict(selection, covariance=covariance),
                "means-overflow": dict(selection, steps=100000),
                # 1e308 * 10 is inf: the document fails before its run starts
                "gradient-overflow": dict(
                    selection,
                    means=dict(selection["means"], display=10.0),
                    natural_gradient={"type": "linear", "intercept": [0, 0, 0],
                                      "matrix": [[1e308, 0, 0], [0, 0, 0], [0, 0, 0]]},
                ),
            }
            for name, document in overflows.items():
                with open(f"{name}.json", "w", encoding="utf-8") as handle:
                    json.dump(document, handle)
                record("run", f"{name}.json", "--csv", f"run-{name}.csv", "--svg", f"run-{name}.svg")
            with open("no-species.json", "w", encoding="utf-8") as handle:
                json.dump(NO_SPECIES, handle)
            record("run", "no-species.json")
            record("run", "lv-classic.json", "--csv", "missing/run.csv")
            lv_sweep = ("sweep", "lv-classic.json", "--param", "initial.prey", "--from", "20", "--to", "30",
                        "--points", "2")
            record(*lv_sweep, "--metric", "final:nope")
            record(*lv_sweep, "--svg", "sweep.svg")
            with open("huge-rates.json", "w", encoding="utf-8") as handle:
                json.dump(HUGE_RATES, handle)
            record("stability", "huge-rates.json")
            with open("three-kinds.json", "w", encoding="utf-8") as handle:
                json.dump(THREE_KINDS, handle)
            record("stability", "three-kinds.json")
            with open("one-species.json", "w", encoding="utf-8") as handle:
                json.dump(ONE_SPECIES, handle)
            record("stability", "one-species.json")
            # about 1e302 RK4 steps of 0.1: the step budget refuses the document
            with open("horizon-1e300.json", "w", encoding="utf-8") as handle:
                json.dump(dict(REMAINDER, horizon=1e300), handle)
            record("run", "horizon-1e300.json")
            with open("horizon-huge-integer.json", "w", encoding="utf-8") as handle:
                json.dump(dict(REMAINDER, horizon=10**400), handle)
            record("run", "horizon-huge-integer.json")
            # json.dumps cannot write an integer of 5001 digits, so it replaces a placeholder
            with open("horizon-long-integer.json", "w", encoding="utf-8") as handle:
                handle.write(json.dumps(dict(REMAINDER, horizon="<long>")).replace('"<long>"', "1" + "0" * 5000))
            record("run", "horizon-long-integer.json")
            record("sweep", "lv-classic.json", "--param", "interaction.predator:prey.coeff_j", "--from", "0",
                   "--to", "1", "--points", "2")
            record("sweep", "selection.json", "--param", "beta", "--from", "0.1", "--to", "0.2", "--points", "2")
            record("stability", "malware-epidemic.json")
            arms_sweep = ("sweep", "arms-race.json", "--param", "interaction.attacker:victim.alpha", "--from", "1")
            record(*arms_sweep, "--to", "inf", "--points", "2")
            record(*arms_sweep, "--to", "-1", "--points", "-1")
            record("sweep", "lv-classic.json", "--param", "species.predator.trophic_level", "--from", "1", "--to", "2",
                   "--points", "3")
            for name, document in (("symbiosis-divergence", SYMBIOSIS_DIVERGENCE), ("ivlev-overflow", IVLEV_OVERFLOW)):
                with open(f"{name}.json", "w", encoding="utf-8") as handle:
                    json.dump(document, handle)
                record("run", f"{name}.json")
            for name, document in (("symbiosis-divergence", SYMBIOSIS_DIVERGENCE), ("ivlev-overflow", IVLEV_OVERFLOW),
                                   ("extinction", EXTINCTION)):
                integrator = dict(document.get("integrator", {}), method="rk45_adaptive")
                with open(f"{name}-rk45.json", "w", encoding="utf-8") as handle:
                    json.dump(dict(document, integrator=integrator), handle)
            record("run", "symbiosis-divergence-rk45.json")
            record("run", "ivlev-overflow-rk45.json")
            record("run", "extinction-rk45.json", "--csv", "run-extinction-rk45.csv",
                   "--svg", "run-extinction-rk45.svg")
            arms_race = json.loads(texts["arms-race"])
            attacker, victim = arms_race["species"]
            continuum_errors = {
                "continuum-no-self-limitation": dict(arms_race, species=[attacker, dict(victim, self_limitation=0)]),
                "continuum-unknown-species": dict(
                    arms_race, interactions=[dict(arms_race["interactions"][0], species_j="zz")]
                ),
            }
            for name, document in continuum_errors.items():
                with open(f"{name}.json", "w", encoding="utf-8") as handle:
                    json.dump(document, handle)
                record("run", f"{name}.json")
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
