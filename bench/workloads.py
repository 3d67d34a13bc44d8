"""The four benchmark workloads: input generation, one pass, output checks.

Each workload builds its inputs from the workload seed, runs one pass
against ecolab's public API (always looked up on the `ecolab` package at
call time, so the tracer's wrappers are seen), and checks the pass's
output.  A pass is a short sequence of operations, each timed on its own
through the `clock` it is given: `with clock("name"): ...`.  At
DEFAULT_SEED the inputs are the documented ones and the outputs are
pinned; at any other seed only invariants are checked.

A pass takes 0.5-1.3 s on a 2-core Xeon VM, so that a 25 s run times
some twenty of them; measure.py reports the median over passes.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import random
import shutil
import tempfile
import warnings
from dataclasses import replace

import numpy as np

import ecolab
from ecolab.demos import demo_document

DEFAULT_SEED = 0


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


class CommunitySweep:
    """The arms-race continuum dial swept from mutualism to parasitism."""

    name = "community-sweep"
    unit = "grid points"
    path = "interaction.attacker:victim.alpha"

    # The demo's horizon is cut from 60 to 6 time units to keep a pass short;
    # every grid point is still 2-species RK4 (600 steps) plus the Newton
    # search, and criterion 08's transition and classes are unchanged.
    horizon = 6.0
    pinned_transitions = ((-0.3, -0.4),)
    pinned_classes = ("stable_node",) * 14 + ("stable_focus",) * 7
    pinned_final_digest = "b9c0e121752bcdb802d9cd8989bb8c4af6ad594020fc150129413b47851e24aa"

    def inputs(self, seed: int) -> dict:
        scenario = replace(demo_document("arms-race"), horizon=self.horizon)
        if seed != DEFAULT_SEED:
            rng = random.Random(seed)
            scenario = replace(
                scenario,
                initial_densities={
                    "attacker": 0.5 * rng.uniform(0.8, 1.2),
                    "victim": 1.5 * rng.uniform(0.8, 1.2),
                },
            )
        return {"scenario": scenario, "grid": np.linspace(1.0, -1.0, 21)}

    def units(self, inputs: dict) -> int:
        return len(inputs["grid"])

    def run(self, inputs: dict, clock):
        with clock("sweep"):
            return ecolab.sweep(inputs["scenario"], self.path, inputs["grid"])

    def fingerprint(self, report) -> str:
        return _sha256(repr(report))

    def check(self, inputs: dict, report, pinned: bool) -> list[str]:
        problems = []
        grid = tuple(float(g) for g in inputs["grid"])
        if report.grid != grid or len(report.points) != len(grid):
            problems.append("sweep grid or point count differs from the input grid")
            return problems
        classes = tuple(p.classification.value if p.classification else None for p in report.points)
        if None in classes:
            problems.append(f"unclassified grid points: {classes}")
        for point in report.points:
            state = np.asarray(point.final_state, dtype=float)
            if not (np.all(np.isfinite(state)) and np.all(state >= 0)):
                problems.append(f"final state at {point.value!r} is not finite and >= 0")
        expected = tuple(
            (grid[k], grid[k + 1]) for k in range(len(grid) - 1) if classes[k] != classes[k + 1]
        )
        if report.transitions != expected:
            problems.append(f"transitions {report.transitions} do not match the classifications")
        if pinned:
            rounded = tuple((round(a, 9), round(b, 9)) for a, b in report.transitions)
            if rounded != self.pinned_transitions:
                problems.append(f"transitions {rounded}, pinned {self.pinned_transitions}")
            if classes != self.pinned_classes:
                problems.append(f"classifications {classes}, pinned {self.pinned_classes}")
            digest = _sha256(repr(tuple(p.final_state for p in report.points)))
            if digest != self.pinned_final_digest:
                problems.append(f"final-state digest {digest}, pinned {self.pinned_final_digest}")
        return problems


class EpidemicThreshold:
    """Monte Carlo bisection of the persistence threshold on a small complete graph."""

    name = "epidemic-threshold"
    unit = "simulations"

    # Criterion 07's search with 40 runs per point and a persistence horizon
    # of 15 (not 60 and 60), to keep a pass short.  The bisection path, and
    # so the work, varies little with the seed: estimated events per pass
    # spread 3% (IQR/median) over seeds 1-20.
    pinned_bracket = (0.02578125, 0.027265625)
    pinned_survival = (0.0, 1.0)

    def inputs(self, seed: int) -> dict:
        return {
            "graph": ecolab.complete_graph(50),
            "beta_range": (0.005, 0.1),
            "runs": 40,
            "horizon": 15.0,
            "bisections": 6,
            "seed": seed,
        }

    def units(self, inputs: dict) -> int:
        return inputs["runs"] * (2 + inputs["bisections"])

    def run(self, inputs: dict, clock):
        with clock("estimate_threshold"):
            return ecolab.estimate_threshold(
                inputs["graph"],
                1.0,
                inputs["beta_range"],
                runs_per_point=inputs["runs"],
                persistence_horizon=inputs["horizon"],
                n_bisections=inputs["bisections"],
                master_seed=inputs["seed"],
            )

    def fingerprint(self, estimate) -> str:
        return _sha256(repr(estimate))

    def check(self, inputs: dict, estimate, pinned: bool) -> list[str]:
        problems = []
        low0, high0 = inputs["beta_range"]
        low, high = estimate.bracket
        width = (high0 - low0) / 2 ** inputs["bisections"]
        if not (low0 <= low < high <= high0):
            problems.append(f"bracket {estimate.bracket} outside {inputs['beta_range']}")
        if not math.isclose(estimate.bracket_width, width, rel_tol=1e-9):
            problems.append(f"bracket width {estimate.bracket_width}, expected {width}")
        if estimate.beta != 0.5 * (low + high):
            problems.append("estimate is not the bracket midpoint")
        runs = inputs["runs"]
        for fraction in (estimate.survival_low, estimate.survival_high):
            if fraction * runs != round(fraction * runs):
                problems.append(f"survival fraction {fraction} is not a count over {runs} runs")
        if not (estimate.survival_low < 0.1 and estimate.survival_high > 0.9):
            problems.append("survival fractions do not bracket the transition")
        if pinned:
            if estimate.bracket != self.pinned_bracket:
                problems.append(f"bracket {estimate.bracket}, pinned {self.pinned_bracket}")
            survival = (estimate.survival_low, estimate.survival_high)
            if survival != self.pinned_survival:
                problems.append(f"survival {survival}, pinned {self.pinned_survival}")
            ratio = estimate.beta * 49.0
            if not 0.5 < ratio < 2.0:
                problems.append(f"estimate {estimate.beta} not within 2x of 1/49")
        return problems


class EpidemicLarge:
    """SIS at three times the mean-field threshold on a preferential-attachment graph."""

    name = "epidemic-large"
    unit = "graph nodes"

    pinned_edge_digest = "27e738a39f4e0e954f1d11cf734dbceea32630072809f807d46d0c1ca51788a7"
    pinned_prevalence_digest = "6cc43493687a2e7be3d6608408ec5df516301ccdc8cff778ec578bf6edbf3388"

    # 3000 nodes rather than 10k keeps both operations near 0.3 s.  The
    # per-event cost still grows with n, which is the O(n) and O(I)
    # sampling scans: in the same traced runs it was 1.6 times that on
    # epidemic-threshold's 50 nodes.
    # The graph is the same at every seed and a tenth of the nodes start
    # infected, so the work varies little with the seed: estimated events
    # spread 2.5% (IQR/median) over seeds 21-40, against 11% when the
    # graph followed the seed and 1% started infected.
    n_nodes = 3000
    graph_seed = 0

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {
            "n": self.n_nodes,
            "m": 3,
            "graph_seed": self.graph_seed,
            "initial_infected": frozenset(rng.sample(range(self.n_nodes), self.n_nodes // 10)),
            "model_seed": seed,
            "horizon": 20.0,
            "sample_dt": 0.1,
        }

    def units(self, inputs: dict) -> int:
        return inputs["n"]

    def run(self, inputs: dict, clock):
        with clock("barabasi_albert"):
            graph = ecolab.barabasi_albert(inputs["n"], inputs["m"], seed=inputs["graph_seed"])
        with clock("simulate_epidemic"):
            model = ecolab.EpidemicModel(
                graph=graph,
                kind=ecolab.EpidemicKind.SIS,
                beta=3.0 * ecolab.mean_field_threshold(graph, 1.0),
                gamma=1.0,
                initial_infected=inputs["initial_infected"],
                seed=inputs["model_seed"],
            )
            prevalence = ecolab.simulate_epidemic(model, inputs["horizon"], inputs["sample_dt"])
        return graph, prevalence

    @staticmethod
    def _digests(output) -> tuple[str, str]:
        graph, prevalence = output
        edges = _sha256(repr(sorted(graph.edges)))
        series = _sha256(prevalence.infected_fraction.tobytes() + repr(prevalence.extinction_time).encode())
        return edges, series

    def fingerprint(self, output) -> str:
        return _sha256("".join(self._digests(output)))

    def check(self, inputs: dict, output, pinned: bool) -> list[str]:
        problems = []
        graph, prevalence = output
        n, m = inputs["n"], inputs["m"]
        if graph.n_nodes != n or graph.n_edges != m * (m + 1) // 2 + m * (n - m - 1):
            problems.append(f"graph has {graph.n_nodes} nodes and {graph.n_edges} edges")
        if graph.degrees().min() < m:
            problems.append("a node has fewer than m edges")
        samples = int(math.floor(inputs["horizon"] / inputs["sample_dt"] + 1e-9)) + 1
        fractions = prevalence.infected_fraction
        if fractions.shape != (samples,):
            problems.append(f"{fractions.shape} prevalence samples, expected {samples}")
        elif fractions[0] != len(inputs["initial_infected"]) / n:
            problems.append("first prevalence sample is not the initial infected fraction")
        edges, series = self._digests(output)
        if edges != self.pinned_edge_digest:
            problems.append(f"edge-set digest {edges}, pinned {self.pinned_edge_digest}")
        if pinned and series != self.pinned_prevalence_digest:
            problems.append(f"prevalence digest {series}, pinned {self.pinned_prevalence_digest}")
        return problems


# The README's selection and discrete documents, and a food-chain variant
# that takes the adaptive integrator and both saturating responses.
_SELECTION = {
    "kind": "selection",
    "means": {"display": 1.0, "preference": 1.0, "fitness": 0.0},
    "covariance": {
        "v_display": 1.0,
        "v_preference": 1.0,
        "v_fitness": 0.0,
        "c_display_preference": 0.9,
    },
    "natural_gradient": {"type": "constant", "value": [-0.05, 0, 0]},
    "sexual_gradient": {
        "type": "linear",
        "intercept": [0, 0, 0],
        "matrix": [[0, 0.1, 0], [0, 0, 0], [0, 0, 0]],
    },
    "mutation": [0, 0, 0],
    "steps": 100,
}
_DISCRETE = {
    "kind": "discrete",
    "map": "nicholson_bailey",
    "params": {"growth_factor": 2.0, "search_efficiency": 0.1, "conversion": 1.0},
    "initial": {"host": 14.0, "parasitoid": 7.0},
    "generations": 50,
}
_FOOD_CHAIN_RK45 = {
    "kind": "community",
    "species": [
        {"id": "plant", "role": "producer", "growth_rate": 1.0, "self_limitation": 0.1},
        {"id": "grazer", "role": "consumer", "trophic_level": 1, "growth_rate": 0.2,
         "self_limitation": 0.05},
        {"id": "carnivore", "role": "consumer", "trophic_level": 2, "growth_rate": 0.1,
         "self_limitation": 0.05},
    ],
    "interactions": [
        {"species_i": "grazer", "species_j": "plant", "kind": "predation", "coeff_i": 0.5,
         "response": {"type": "holling2", "rate": 0.2, "handling": 0.5}},
        {"species_i": "carnivore", "species_j": "grazer", "kind": "predation", "coeff_i": 0.4,
         "response": {"type": "ivlev", "rate": 0.25, "saturation": 1.0}},
    ],
    "initial_densities": {"plant": 6.0, "grazer": 2.0, "carnivore": 1.0},
    "integrator": {"method": "rk45_adaptive", "step": 0.01},
    "horizon": 120.0,
}
_DEMOS = ("lv-classic", "food-chain", "arms-race", "malware-epidemic")
_COMMUNITY = ("lv-classic", "food-chain", "arms-race", "food-chain-rk45")


class DocumentRuns:
    """Every document kind through the in-process CLI, writing CSV and SVG."""

    name = "document-runs"
    unit = "CLI commands"

    pinned_digests = {
        "arms-race.csv": "67a5cbf74064b2a31682924ac63ea67a1c60f57159dd59ae19543be431ed4cbe",
        "arms-race.stability": "253468d05f92abef22fd1ebe249c3fe15e412325795bb7b3d26439aa413bcf8a",
        "arms-race.svg": "28c17aa2704186314280a950fe1b8cd7933164d9e607ea98d4ef3e1d9ee493c6",
        "discrete.csv": "51e91ca3b1a3c910d0d2db92fa5d154b4e7eaf020dde643b99d7693fdd7ccc30",
        "discrete.svg": "83fb6d021415dc9411c92caaa199d0675ed76166ebc0c7c84dafc05b5e879bdb",
        "food-chain-rk45.csv": "6d98cb7efc803002f716d9ec59c78aa9bfdeb54443d7647664e8113f333c4c13",
        "food-chain-rk45.stability": "31b75b25af172892037da06446ec52dee20c2e316bf967f1ac996d5b9dd0ca5e",
        "food-chain-rk45.svg": "f00df6bc32305923247ef5c262a7bbabf3988f6a0ae7848220a435a09b7abee5",
        "food-chain.csv": "14bde3ce6783764b1ea2c51fe755b3b53edb830dcb8f457d6c9a6d03b8536312",
        "food-chain.stability": "8f3d0abbb7a8043631996e1582dc7ba48f378935446f7d148ca913f42e557f7e",
        "food-chain.svg": "69aa7969d48913a9ae6d3cceef8c6b3ce78e02ddec65b761ffe2d3dc0fcaf2fe",
        "lv-classic.csv": "ba25a5822f597abeb2f4b48fe570d81ecfeea71ea6dc68bef9c55e3566cfb813",
        "lv-classic.stability": "4bb05d17065a8b071034a70ba6e970224faca48bd53019255c2a8c027cd33a0f",
        "lv-classic.svg": "85e4df1ab5a584a09074d5cf05f643e77823884bf039405fedada5a55dae5000",
        "malware-epidemic.csv": "c85070413fc1649dea9690398befa373f2869e75e6f4803e183b7576c49c96e9",
        "malware-epidemic.svg": "89be2428d9ac6173c1b05b8a66f122754b8d667e4749a96982914231de5e8617",
        "selection.csv": "2370a25bad308abe8ed137269f014431ece547dd1adaeaff48916f8f459769c4",
        "selection.svg": "d87e2965e24ed4353deb6b20830293e0c11072bdcc6833c1d6b0a57b81741b6e",
    }

    def __init__(self, work_root: str):
        self.work_root = work_root

    def inputs(self, seed: int) -> dict:
        selection, discrete, variant = copy.deepcopy((_SELECTION, _DISCRETE, _FOOD_CHAIN_RK45))
        if seed != DEFAULT_SEED:
            rng = random.Random(seed)
            selection["covariance"]["c_display_preference"] = rng.uniform(0.8, 0.95)
            discrete["params"]["growth_factor"] = rng.uniform(1.8, 2.2)
            discrete["initial"]["host"] = rng.uniform(12.0, 16.0)
            variant["initial_densities"]["plant"] = rng.uniform(5.0, 7.0)
            variant["interactions"][0]["response"]["handling"] = rng.uniform(0.4, 0.6)
        return {
            "seed": seed,
            "documents": {
                "food-chain-rk45": json.dumps(variant, indent=2),
                "selection": json.dumps(selection, indent=2),
                "discrete": json.dumps(discrete, indent=2),
            },
        }

    def units(self, inputs: dict) -> int:
        # emit each demo, run every document, stability on the community ones
        return len(_DEMOS) + len(_DEMOS) + len(inputs["documents"]) + len(_COMMUNITY)

    @staticmethod
    def _cli(argv: list[str], document: str, log: list, clock) -> str:
        """Run one timed CLI command in-process; log (command, document, exit code, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            # Setting a filter resets which warnings count as already shown,
            # so each command warns as it would in a fresh process.
            warnings.simplefilter("default")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), clock(f"{argv[0]} {document}"):
                code = ecolab.cli_main(argv)
        log.append((argv[0], document, code, err.getvalue()))
        return out.getvalue()

    def run(self, inputs: dict, clock) -> dict:
        os.makedirs(self.work_root, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=self.work_root)
        log: list = []
        texts = dict(inputs["documents"])
        try:
            for demo in _DEMOS:
                texts[demo] = self._cli(["demo", demo, "--emit"], demo, log, clock)
            files = {}
            for name, text in texts.items():
                path = os.path.join(tmp, name + ".json")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                files[name] = path
            for name, path in files.items():
                base = os.path.join(tmp, name)
                self._cli(
                    ["run", path, "--csv", base + ".csv", "--svg", base + ".svg",
                     "--seed", str(inputs["seed"]), "--quiet"],
                    name,
                    log,
                    clock,
                )
            stability = {}
            for name in _COMMUNITY:
                stability[name] = self._cli(["stability", files[name]], name, log, clock)
            outputs = {}
            for name in files:
                for ext in (".csv", ".svg"):
                    path = os.path.join(tmp, name + ext)
                    if os.path.exists(path):
                        with open(path, "rb") as handle:
                            outputs[name + ext] = handle.read()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return {"log": log, "texts": texts, "outputs": outputs, "stability": stability}

    @staticmethod
    def _digests(result: dict) -> dict[str, str]:
        digests = {name: _sha256(data) for name, data in sorted(result["outputs"].items())}
        for name, text in sorted(result["stability"].items()):
            digests[name + ".stability"] = _sha256(text)
        return digests

    def fingerprint(self, result: dict) -> str:
        return _sha256(repr((result["log"], self._digests(result))))

    def check(self, inputs: dict, result: dict, pinned: bool) -> list[str]:
        problems = [
            f"'{cmd}' on {doc} exited {code}: {err.strip()}"
            for cmd, doc, code, err in result["log"]
            if code != 0
        ]
        if len(result["log"]) != self.units(inputs):
            problems.append(f"{len(result['log'])} commands ran, expected {self.units(inputs)}")
        for name, text in result["texts"].items():
            document = ecolab.parse_scenario(text)
            if ecolab.parse_scenario(ecolab.serialize_scenario(document)) != document:
                problems.append(f"parse(serialize(d)) != d for {name}")
            base = name + ".csv"
            if base not in result["outputs"] or name + ".svg" not in result["outputs"]:
                problems.append(f"{name}: CSV or SVG missing")
                continue
            table = ecolab.read_csv(result["outputs"][base].decode("utf-8"))
            if table.times.shape[0] < 2 or not np.all(np.isfinite(table.values)):
                problems.append(f"{base}: fewer than two rows or non-finite values")
            svg = result["outputs"][name + ".svg"]
            if not (svg.startswith(b"<?xml") and svg.endswith(b"</svg>\n")):
                problems.append(f"{name}.svg is not a complete SVG document")
        if pinned:
            digests = self._digests(result)
            if digests != self.pinned_digests:
                changed = sorted(
                    k for k in set(digests) | set(self.pinned_digests)
                    if digests.get(k) != self.pinned_digests.get(k)
                )
                problems.append(f"output digests differ from the pins: {changed}")
        return problems


def make_workloads(work_root: str) -> dict:
    """All workloads by name; `work_root` holds the files document-runs writes."""
    workloads = [CommunitySweep(), DocumentRuns(work_root), EpidemicThreshold(), EpidemicLarge()]
    return {w.name: w for w in workloads}
