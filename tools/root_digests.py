"""sha256 digests of the fixed points `find_fixed_points` returns, one per scenario.

    python3 tools/root_digests.py > change.txt
    python3 tools/root_digests.py --src /path/to/other/checkout/src > base.txt
    diff base.txt change.txt

ecolab is imported from `--src` (default: this checkout's `src/`). The
scenarios are 400 random communities and the 21 points of the arms-race
continuum dial that the benchmark's community-sweep workload runs:

- Community k is drawn from `random.Random(k)`: 2 + k % 4 species (so
  2 to 5), each a producer or a consumer with a growth rate and, half of
  the time, a self-limitation in [0, 2]; each pair of species gets, with
  probability 2/3, one entry of a kind other than sexual, its rates in
  [0, 2] and, on a predation or parasitism entry, a linear, Holling II
  or Ivlev response. Initial densities lie in [0.1, 10] or are 0, 1e-12
  or 5e-10. Up to three extra starts are drawn from values at the edges
  of the search: 0, -0, -1e-10, 1e-13, 1e-200, 0.5, 3, 1e155, inf and NaN.
- Arms-race point j sets the dial to the j-th value of
  `np.linspace(1.0, -1.0, 21)`, as `sweep` does, and passes the state
  that the demo reaches at horizon 6 as the extra start.

Each line is `<scenario>\t<sha256>`, the digest of the bytes of every
root in order, of the exception type and message when the search raises,
and of each warning it gives. Two checkouts whose root search gives the
same bits print the same lines.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import random
import sys
import warnings
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMUNITIES = 400
_EDGE_STARTS = (0.0, -0.0, -1e-10, 1e-13, 1e-200, 0.5, 3.0, 1e155, math.inf, math.nan)


def _rate(rng: random.Random) -> float:
    return rng.uniform(0.0, 2.0)


def community(k: int):
    """Community k and its extra starts."""
    from ecolab import (
        HollingTypeII,
        InteractionKind,
        InteractionSpec,
        IvlevResponse,
        LinearResponse,
        Role,
        Scenario,
        SpeciesSpec,
    )

    rng = random.Random(k)
    n = 2 + k % 4
    species = []
    for i in range(n):
        role = rng.choice((Role.PRODUCER, Role.CONSUMER))
        species.append(SpeciesSpec(
            id=f"s{i}",
            role=role,
            trophic_level=0 if role == Role.PRODUCER else 1,
            growth_rate=_rate(rng),
            self_limitation=_rate(rng) if rng.random() < 0.5 else 0.0,
        ))
    kinds = [kind for kind in InteractionKind if kind != InteractionKind.SEXUAL]
    responses = (
        lambda: LinearResponse(_rate(rng)),
        lambda: HollingTypeII(_rate(rng), _rate(rng)),
        lambda: IvlevResponse(_rate(rng), _rate(rng)),
    )
    interactions = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 1 / 3:
                continue
            kind = rng.choice(kinds)
            a, b = (j, i) if rng.random() < 0.5 else (i, j)
            if kind in (InteractionKind.PREDATION, InteractionKind.PARASITISM):
                entry = InteractionSpec(f"s{a}", f"s{b}", kind, coeff_i=_rate(rng), response=rng.choice(responses)())
            else:
                entry = InteractionSpec(f"s{a}", f"s{b}", kind, coeff_i=_rate(rng), coeff_j=_rate(rng))
            interactions.append(entry)
    densities = {}
    for sp in species:
        densities[sp.id] = rng.uniform(0.1, 10.0) if rng.random() < 0.7 else rng.choice((0.0, 1e-12, 5e-10))
    scenario = Scenario(tuple(species), tuple(interactions), densities, horizon=1.0)
    extra = [[rng.choice(_EDGE_STARTS) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    return scenario, extra


def arms_race_points():
    """(label, scenario, extra starts) of the 21 points of the arms-race sweep."""
    import numpy as np

    from ecolab import integrate, set_parameter
    from ecolab.demos import demo_document

    arms = replace(demo_document("arms-race"), horizon=6.0)
    points = []
    for alpha in np.linspace(1.0, -1.0, 21):
        scenario = set_parameter(arms, "interaction.attacker:victim.alpha", alpha)
        final = integrate(scenario).final_state()
        points.append((f"arms-race alpha={float(alpha)!r}", scenario, [final]))
    return points


def _digest(scenario, extra) -> str:
    from ecolab import find_fixed_points

    digest = hashlib.sha256()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for root in find_fixed_points(scenario, extra_starts=extra):
                digest.update(root.tobytes())
        except Exception as exc:  # recorded, so the scenarios after it still run
            digest.update(f"{type(exc).__name__}: {exc}".encode())
    for warning in caught:
        digest.update(f"{warning.category.__name__}: {warning.message}".encode())
    return digest.hexdigest()


def digest_lines(communities: int = COMMUNITIES) -> list[str]:
    """One line per scenario: the first `communities` random communities, then the arms-race points."""
    lines = []
    for k in range(communities):
        scenario, extra = community(k)
        lines.append(f"community {k} ({len(scenario.species)} species)\t{_digest(scenario, extra)}")
    for label, scenario, extra in arms_race_points():
        lines.append(f"{label}\t{_digest(scenario, extra)}")
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
