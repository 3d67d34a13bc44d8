"""Built-in demo scenarios, also emittable as JSON for editing.

Four demos are full scenario documents; the mimicry demo is a payoff
sweep over the mimic density and has no document form.
"""

from __future__ import annotations

import numpy as np

from .core import (
    ContinuumParams,
    IntegratorConfig,
    InteractionKind,
    InteractionSpec,
    LinearResponse,
    Role,
    Scenario,
    SpeciesSpec,
    continuum_interaction,
)
from .epidemic import EpidemicKind, EpidemicModel, barabasi_albert
from .scenario_io import Document, EpidemicBundle
from .selection import MimicryParams, mimic_frequency, mimicry_payoffs

__all__ = ["DEMO_NAMES", "demo_document", "mimicry_table", "MIMICRY_DEMO_PARAMS"]


def _lv_classic() -> Scenario:
    """The canonical two-species oscillator."""
    return Scenario(
        species=(
            SpeciesSpec(id="prey", name="Prey", role=Role.PRODUCER, growth_rate=1.0),
            SpeciesSpec(
                id="predator",
                name="Predator",
                role=Role.CONSUMER,
                trophic_level=1,
                growth_rate=0.5,
            ),
        ),
        interactions=(
            InteractionSpec(
                species_i="predator",
                species_j="prey",
                kind=InteractionKind.PREDATION,
                coeff_i=0.2,
                response=LinearResponse(0.1),
            ),
        ),
        initial_densities={"prey": 30.0, "predator": 8.0},
        integrator=IntegratorConfig(method="rk4_fixed", step=0.01),
        horizon=60.0,
    )


def _food_chain() -> Scenario:
    """Producer, grazer and top consumer stacked over three trophic levels."""
    return Scenario(
        species=(
            SpeciesSpec(id="plant", name="Plant", role=Role.PRODUCER, growth_rate=1.0, self_limitation=0.1),
            SpeciesSpec(
                id="grazer",
                name="Grazer",
                role=Role.CONSUMER,
                trophic_level=1,
                growth_rate=0.2,
                self_limitation=0.05,
            ),
            SpeciesSpec(
                id="carnivore",
                name="Carnivore",
                role=Role.CONSUMER,
                trophic_level=2,
                growth_rate=0.1,
                self_limitation=0.05,
            ),
        ),
        interactions=(
            InteractionSpec(
                species_i="grazer",
                species_j="plant",
                kind=InteractionKind.PREDATION,
                coeff_i=0.5,
                response=LinearResponse(0.2),
            ),
            InteractionSpec(
                species_i="carnivore",
                species_j="grazer",
                kind=InteractionKind.PREDATION,
                coeff_i=0.4,
                response=LinearResponse(0.25),
            ),
        ),
        initial_densities={"plant": 6.0, "grazer": 2.0, "carnivore": 1.0},
        integrator=IntegratorConfig(method="rk4_fixed", step=0.01),
        horizon=120.0,
    )


def _arms_race() -> Scenario:
    """One pair on the mutualism-parasitism dial, parked on the parasitic side.

    Sweeping interaction.attacker:victim.alpha from 1 to -1 moves the
    coexistence point from an overdamped node into a damped-spiral focus.
    """
    entry = continuum_interaction("attacker", "victim", ContinuumParams(alpha=-0.6, base_strength=0.5))
    return Scenario(
        species=(
            SpeciesSpec(
                id="attacker",
                name="Attacker",
                role=Role.CONSUMER,
                trophic_level=1,
                growth_rate=0.5,
                self_limitation=0.6,
            ),
            SpeciesSpec(
                id="victim",
                name="Victim",
                role=Role.PRODUCER,
                growth_rate=1.2,
                self_limitation=0.6,
            ),
        ),
        interactions=(entry,),
        initial_densities={"attacker": 0.5, "victim": 1.5},
        integrator=IntegratorConfig(method="rk4_fixed", step=0.01),
        horizon=80.0,
    )


def _malware_epidemic() -> EpidemicBundle:
    """SIS spread over a heavy-tailed preferential-attachment contact graph.

    beta sits around 3x the degree-based mean-field threshold of this
    graph (~0.086), so the infection settles into a metastable prevalence
    instead of dying out.
    """
    return EpidemicBundle(
        model=EpidemicModel(
            graph=barabasi_albert(200, 3, seed=7),
            kind=EpidemicKind.SIS,
            beta=0.25,
            gamma=1.0,
            initial_infected=frozenset(range(5)),
            seed=1234,
        ),
        horizon=40.0,
        sample_dt=0.5,
    )


_BUILDERS = {
    "lv-classic": _lv_classic,
    "food-chain": _food_chain,
    "arms-race": _arms_race,
    "malware-epidemic": _malware_epidemic,
}

DEMO_NAMES = (*_BUILDERS, "mimicry")

#: Fixed payoff parameters of the mimicry demo sweep.
MIMICRY_DEMO_PARAMS = {
    "model_density": 1.0,
    "venom_cost": 3.0,
    "prey_value": 1.0,
    "model_weapon_cost": 0.4,
    "mimic_signal_cost": 0.05,
}


def demo_document(name: str) -> Document:
    """Document for a named demo; the mimicry demo has no document form."""
    if name == "mimicry":
        raise ValueError(
            "demo 'mimicry' is a built-in payoff sweep without a scenario document"
        )
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown demo {name!r}; available: {', '.join(DEMO_NAMES)}") from None


def mimicry_table():
    """Payoff sweep over mimic densities 0, 0.05, ..., 4 for the demo parameters.

    Returns (column_names, mimic_densities, value matrix); the attack
    decision flips where the mimic frequency crosses
    venom_cost / (venom_cost + prey_value).
    """
    names = (
        "mimic_frequency",
        "attack_probability",
        "mimic_net_payoff",
        "model_net_payoff",
        "predator_expected_payoff",
    )
    densities = np.linspace(0.0, 4.0, 81)
    rows = []
    for density in densities:
        p = MimicryParams(mimic_density=float(density), **MIMICRY_DEMO_PARAMS)
        result = mimicry_payoffs(p)
        rows.append(
            (
                mimic_frequency(p),
                result.attack_probability,
                result.mimic_net_payoff,
                result.model_net_payoff,
                result.predator_expected_payoff,
            )
        )
    return names, densities, np.array(rows)
