"""Pathogen spread on contact networks.

Graph generation, exact event-driven SIS/SIR simulation with
exponential waiting times, and the transmission threshold both as the
degree-based mean-field formula and as a seeded Monte Carlo estimate.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .core import Trajectory, _count

__all__ = [
    "Graph",
    "complete_graph",
    "erdos_renyi",
    "barabasi_albert",
    "from_edges",
    "read_edge_list",
    "EpidemicKind",
    "EpidemicModel",
    "PrevalenceTrajectory",
    "simulate_epidemic",
    "mean_field_threshold",
    "persistence_fraction",
    "ThresholdBracketError",
    "ThresholdEstimate",
    "estimate_threshold",
    "run_seed",
]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 0..n_nodes-1; a generated graph also keeps its generator's `recipe`."""

    n_nodes: int
    edges: frozenset[tuple[int, int]]
    recipe: tuple[str, tuple] | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        object.__setattr__(self, "n_nodes", operator.index(self.n_nodes))
        normalized = set()
        for u, v in self.edges:
            u, v = operator.index(u), operator.index(v)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ValueError(f"edge ({u}, {v}) outside node range [0, {self.n_nodes})")
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(normalized))

    @classmethod
    def _built(cls, n_nodes: int, edges: frozenset[tuple[int, int]], recipe: tuple[str, tuple]) -> Graph:
        """A generator's graph, with its recipe: an int node count, edges in range and u < v by construction."""
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        graph = object.__new__(cls)
        object.__setattr__(graph, "n_nodes", n_nodes)
        object.__setattr__(graph, "edges", edges)
        object.__setattr__(graph, "recipe", recipe)
        return graph

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        # each neighbour list is sorted on its own, which is cheaper than
        # sorting the edge set and gives the same ascending tuples
        neighbors: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for u, v in self.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        for ns in neighbors:
            ns.sort()
        return tuple(map(tuple, neighbors))

    def degrees(self) -> np.ndarray:
        return np.array([len(ns) for ns in self.adjacency], dtype=float)


def complete_graph(n: int) -> Graph:
    n = operator.index(n)
    return Graph._built(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)), ("complete", (n,)))


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """Independent edge sampling; deterministic for a given seed."""
    n = operator.index(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return Graph._built(n, frozenset(edges), ("erdos_renyi", (n, p, seed)))


def barabasi_albert(n: int, m: int, seed: int = 0) -> Graph:
    """Preferential attachment growth, deterministic for a given seed.

    Starts from a clique on m+1 nodes; every later node attaches exactly
    m edges to distinct targets drawn proportionally to degree (sampling
    without replacement, degrees taken as of the node's arrival).  The
    degrees sit in one Fenwick list (Fenwick 1994), padded to a power of
    two and walked with integer steps, so each draw is O(log n).
    """
    n, m = operator.index(n), operator.index(m)
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    rng = random.Random(seed)
    # the pairs are distinct and (u, v) with u < v by construction: one list, one frozenset
    edges = [(u, v) for u in range(m + 1) for v in range(u + 1, m + 1)]
    # every node arrives with degree m, so the list starts with m at every position; a draw
    # below `total`, the degree sum of the nodes placed so far, never reaches a later node,
    # nor reads the whole sum at index `size`, so the list stops below it
    size = 1 << (n - 1).bit_length()
    tree = [m * (i & -i) for i in range(size)]
    steps = [size >> k for k in range(1, size.bit_length())]
    total = m * (m + 1)
    for new in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            # the prefix sums are integers and the draw is >= 0, so `prefix <= draw` is
            # `prefix <= floor(draw)`: the first node whose prefix exceeds the draw
            rest = int(rng.random() * total)
            pos = 0
            for step in steps:
                weight = tree[pos + step]
                if weight <= rest:
                    pos += step
                    rest -= weight
            targets.add(pos)
        for t in targets:
            edges.append((t, new))
            i = t + 1
            while i < size:
                tree[i] += 1
                i += i & -i
        total += 2 * m
    return Graph._built(n, frozenset(edges), ("barabasi_albert", (n, m, seed)))


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    return Graph(n_nodes=n, edges=frozenset(tuple(e) for e in edges))


def read_edge_list(text: str) -> Graph:
    """Parse a plain edge-list: one "u v" pair per line, 0-indexed.

    Blank lines and lines starting with '#' are skipped.  The node count
    is one past the largest index seen.
    """
    edges = []
    top = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: node indices must be integers, got {line!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: node indices must be >= 0")
        edges.append((u, v))
        top = max(top, u, v)
    if not edges:
        raise ValueError("edge list is empty")
    return from_edges(top + 1, edges)


class EpidemicKind(str, Enum):
    SIS = "sis"
    SIR = "sir"


@dataclass(frozen=True)
class EpidemicModel:
    """Stochastic epidemic on a contact graph.

    Infection crosses each susceptible-infected edge at rate `beta`;
    infected nodes recover at rate `gamma` (back to susceptible for SIS,
    to immune for SIR).  The seed fixes the whole event sequence.
    """

    graph: Graph
    kind: EpidemicKind = EpidemicKind.SIS
    beta: float = 0.1
    gamma: float = 1.0
    initial_infected: frozenset[int] = frozenset({0})
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", EpidemicKind(self.kind))
        object.__setattr__(self, "initial_infected", frozenset(map(operator.index, self.initial_infected)))
        object.__setattr__(self, "seed", operator.index(self.seed))
        if not self.initial_infected:
            raise ValueError("initial_infected must not be empty")
        for node in self.initial_infected:
            if not 0 <= node < self.graph.n_nodes:
                raise ValueError(f"initial infected node {node} outside range [0, {self.graph.n_nodes})")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be finite and >= 0")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be finite and > 0")


@dataclass(frozen=True)
class PrevalenceTrajectory(Trajectory):
    """One run's sampled infected fraction, plus the recovered fraction for SIR.

    The columns are "infected_fraction" and, for SIR, "recovered_fraction";
    each lies in [0, 1] and their sum stays <= 1.  `extinction_time` is
    when the last infected node recovered, or None if infection was alive
    at the horizon.
    """

    extinction_time: float | None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.variable_names not in (("infected_fraction",), ("infected_fraction", "recovered_fraction")):
            raise ValueError(
                f"prevalence variables must be infected_fraction[, recovered_fraction], got {self.variable_names}"
            )
        infected, recovered = self.infected_fraction, self.recovered_fraction
        if np.any((infected < 0) | (infected > 1)):
            raise ValueError("infected fractions must lie in [0, 1]")
        if recovered is not None:
            if np.any((recovered < 0) | (recovered > 1)):
                raise ValueError("recovered fractions must lie in [0, 1]")
            if np.any(infected + recovered > 1.0 + 1e-12):
                raise ValueError("infected + recovered must stay <= 1")

    @property
    def infected_fraction(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def recovered_fraction(self) -> np.ndarray | None:
        return self.values[:, 1] if self.values.shape[1] == 2 else None


def run_seed(master_seed: int, run_index: int) -> int:
    """Stable per-run seed derived from a master seed and a run index.

    A cryptographic mix keeps sweeps reproducible across platforms. Both
    arguments are integers: a float or a string raises TypeError.
    """
    mask = (1 << 64) - 1
    digest = hashlib.sha256(
        b"ecolab.run" + (operator.index(master_seed) & mask).to_bytes(8, "little")
        + (operator.index(run_index) & mask).to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest[:8], "little")


#: Each block sum covers 2**_BLOCK_BITS consecutive slots of the infected
#: list, and each superblock sum 2**_SUPER_BITS of them: 8 blocks of 8.
_BLOCK_BITS = 3
_SUPER_BITS = 6


def _check_window(horizon: float, sample_dt: float) -> None:
    """Refuse a horizon or a sampling interval that is not a finite value > 0."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be > 0")
    if not (math.isfinite(sample_dt) and sample_dt > 0):
        raise ValueError("sample_dt must be > 0")


def simulate_epidemic(model: EpidemicModel, horizon: float, sample_dt: float = 1.0) -> PrevalenceTrajectory:
    """Exact continuous-time simulation sampled on a uniform grid.

    Samples sit at k * sample_dt up to the horizon; a last grid time that
    rounds past the horizon is labelled with the horizon itself.

    Waiting times are exponential in the total event rate; each event is
    an infection across a uniformly chosen susceptible-infected edge or
    the recovery of a uniformly chosen infected node.  No discretization
    enters anywhere, so threshold experiments see no step-size bias.
    Identical (model, seed) pairs give bit-identical trajectories.  On a
    complete graph each event costs O(1), on other graphs O(degree) plus
    the search for an infection source.
    """
    _check_window(horizon, sample_dt)
    n = model.graph.n_nodes
    sir = model.kind == EpidemicKind.SIR
    n_samples = int(math.floor(horizon / sample_dt + 1e-9)) + 1
    infected_counts = np.empty(n_samples, dtype=float)
    recovered_counts = np.empty(n_samples, dtype=float) if sir else None
    k, n_infected, n_recovered, extinction_time = _event_loop(model.graph)(
        model, model.seed, horizon, sample_dt, infected_counts, recovered_counts
    )

    # nothing happens between the last event and the horizon, and a last
    # grid time rounded past the horizon still gets the state at the horizon
    infected_counts[k:] = n_infected
    times = np.arange(n_samples) * sample_dt
    times[-1] = min(times[-1], horizon)
    if not sir:
        return PrevalenceTrajectory(("infected_fraction",), times, infected_counts / n, extinction_time)
    recovered_counts[k:] = n_recovered
    values = np.column_stack((infected_counts, recovered_counts)) / n
    return PrevalenceTrajectory(("infected_fraction", "recovered_fraction"), times, values, extinction_time)


def _event_loop(graph: Graph):
    """The event loop for `graph`: the O(1) one on a complete graph, else the contact-graph one."""
    n = graph.n_nodes
    return _complete_graph_events if graph.n_edges == n * (n - 1) // 2 else _contact_graph_events


# On a complete graph the two event loops below draw the same random
# numbers in the same order and keep the same counts, so a seed gives one
# trajectory whichever loop runs.  Each runs `model` from `seed`, fills
# the samples taken before its last event and returns (samples filled,
# infected, recovered, extinction time or None).  Given empty sample
# buffers they fill none and only run the events: a Monte Carlo run needs
# no samples, nor a model of its own.
#
# Both loops make random.Random's draws themselves, value for value from
# the same stream, without the method calls around each one:
# rng.expovariate(r) is -log(1.0 - rng.random()) / r, and rng.randrange(m)
# for an int m >= 1 repeats getrandbits(m.bit_length()) until the value is
# below m, as CPython's _randbelow_with_getrandbits does (3.10 to 3.13).
# The complete-graph loop discards the values it draws.  test_epidemic's
# guard tests fail if a Python upgrade changes either draw.


def _contact_graph_events(model, seed, horizon, sample_dt, infected_counts, recovered_counts):
    """Any graph: O(I/64 + 16) per infection source, O(I) up to 64 nodes, plus O(degree) upkeep."""
    graph = model.graph
    n = graph.n_nodes
    adjacency = graph.adjacency
    rng = random.Random(seed)
    uniform, getrandbits, log = rng.random, rng.getrandbits, math.log
    sir = model.kind == EpidemicKind.SIR
    n_samples = len(infected_counts)

    S, I, R = 0, 1, 2
    status = [S] * n
    infected: list[int] = []
    position = [-1] * n
    for node in sorted(model.initial_infected):
        status[node] = I
        position[node] = len(infected)
        infected.append(node)
    sus_count = [0] * n
    total_si = 0
    for node in infected:
        count = sum(1 for nb in adjacency[node] if status[nb] == S)
        sus_count[node] = count
        total_si += count

    # blocks[b] sums sus_count over the 8 slots infected[8 * b:8 * b + 8],
    # and supers[s] over the 64 slots infected[64 * s:64 * s + 64], so an
    # infection source is found by walking the superblocks, then at most 8
    # blocks, then scanning at most 8 slots.  While the whole list fits in
    # one superblock, a plain scan of it was measured to cost less than the
    # sums' upkeep, so graphs of at most 64 nodes skip it.
    bits, super_bits = _BLOCK_BITS, _SUPER_BITS
    blocked = n > 1 << super_bits
    blocks = [0] * -(-n // (1 << bits))
    supers = [0] * -(-n // (1 << super_bits))
    if blocked:
        for pos, node in enumerate(infected):
            blocks[pos >> bits] += sus_count[node]
            supers[pos >> super_bits] += sus_count[node]

    beta, gamma = model.beta, model.gamma
    t = 0.0
    k = 0
    next_sample = 0.0
    n_infected = len(infected)
    n_recovered = 0

    while True:
        if n_infected == 0:
            return k, 0, n_recovered, t
        infection_rate = beta * total_si
        total_rate = infection_rate + gamma * n_infected
        t_next = t - log(1.0 - uniform()) / total_rate
        if t_next > horizon:
            return k, n_infected, n_recovered, None
        # every grid time before the event sees the state before it
        while next_sample < t_next and k < n_samples:
            infected_counts[k] = n_infected
            if sir:
                recovered_counts[k] = n_recovered
            k += 1
            next_sample = k * sample_dt
        pick = uniform() * total_rate
        if pick < infection_rate:
            # infection: weighted choice of an infected node by its
            # susceptible-neighbor count, then a uniform susceptible neighbor
            target_weight = uniform() * total_si
            acc = 0
            slot = 0
            if blocked:
                s = 0
                while target_weight >= acc + supers[s]:
                    acc += supers[s]
                    s += 1
                b = s << (super_bits - bits)
                while target_weight >= acc + blocks[b]:
                    acc += blocks[b]
                    b += 1
                slot = b << bits
            source = infected[slot]
            acc += sus_count[source]
            while target_weight >= acc:
                slot += 1
                source = infected[slot]
                acc += sus_count[source]
            m = sus_count[source]
            w = m.bit_length()
            which = getrandbits(w)
            while which >= m:
                which = getrandbits(w)
            for new in adjacency[source]:
                if status[new] == S:
                    if which == 0:
                        break
                    which -= 1
            status[new] = I
            position[new] = n_infected
            infected.append(new)
            count = 0
            for nb in adjacency[new]:
                nb_status = status[nb]
                if nb_status == S:
                    count += 1
                elif nb_status == I:
                    sus_count[nb] -= 1
                    total_si -= 1
                    if blocked:
                        pos = position[nb]
                        blocks[pos >> bits] -= 1
                        supers[pos >> super_bits] -= 1
            sus_count[new] = count
            total_si += count
            if blocked:
                blocks[n_infected >> bits] += count
                supers[n_infected >> super_bits] += count
            n_infected += 1
        else:
            w = n_infected.bit_length()
            pos = getrandbits(w)
            while pos >= n_infected:
                pos = getrandbits(w)
            node = infected[pos]
            last = infected[-1]
            infected[pos] = last
            position[last] = pos
            infected.pop()
            n_infected -= 1
            if blocked:
                moved = sus_count[last] - sus_count[node]
                blocks[pos >> bits] += moved
                supers[pos >> super_bits] += moved
                blocks[n_infected >> bits] -= sus_count[last]
                supers[n_infected >> super_bits] -= sus_count[last]
            total_si -= sus_count[node]
            if sir:
                status[node] = R
                n_recovered += 1
            else:
                status[node] = S
                for nb in adjacency[node]:
                    if status[nb] == I:
                        sus_count[nb] += 1
                        total_si += 1
                        if blocked:
                            pos = position[nb]
                            blocks[pos >> bits] += 1
                            supers[pos >> super_bits] += 1
        t = t_next


def _complete_graph_events(model, seed, horizon, sample_dt, infected_counts, recovered_counts):
    """The complete graph K_n: O(1) per event.

    Every infected node has all s susceptible nodes as neighbours, so the
    susceptible-infected edges number I * s, and on K_n no sampled count
    depends on which node is infected or recovers.  The loop keeps the
    counts only, and makes the draws that pick those nodes without using
    them, so the random stream runs as in the contact-graph loop.
    """
    rng = random.Random(seed)
    uniform, getrandbits, log = rng.random, rng.getrandbits, math.log
    sir = model.kind == EpidemicKind.SIR
    n_samples = len(infected_counts)

    beta, gamma = model.beta, model.gamma
    t = 0.0
    k = 0
    next_sample = 0.0
    n_infected = len(model.initial_infected)
    n_susceptible = model.graph.n_nodes - n_infected
    n_recovered = 0

    while True:
        if n_infected == 0:
            return k, 0, n_recovered, t
        total_si = n_infected * n_susceptible
        infection_rate = beta * total_si
        total_rate = infection_rate + gamma * n_infected
        t_next = t - log(1.0 - uniform()) / total_rate
        if t_next > horizon:
            return k, n_infected, n_recovered, None
        # every grid time before the event sees the state before it
        while next_sample < t_next and k < n_samples:
            infected_counts[k] = n_infected
            if sir:
                recovered_counts[k] = n_recovered
            k += 1
            next_sample = k * sample_dt
        pick = uniform() * total_rate
        if pick < infection_rate:
            uniform()  # weighs the infection sources
            # picks the source's susceptible neighbour: randrange's draws, inline
            w = n_susceptible.bit_length()
            while getrandbits(w) >= n_susceptible:
                pass
            n_infected += 1
            n_susceptible -= 1
        else:
            # picks the node that recovers
            w = n_infected.bit_length()
            while getrandbits(w) >= n_infected:
                pass
            n_infected -= 1
            if sir:
                n_recovered += 1
            else:
                n_susceptible += 1
        t = t_next


def mean_field_threshold(graph: Graph, gamma: float = 1.0) -> float:
    """Critical infection rate gamma * <k> / <k^2> from the degree moments.

    Heavy-tailed degree distributions push the threshold far below the
    homogeneous guess gamma / <k>.
    """
    if graph.n_edges == 0:
        raise ValueError("graph has no edges")
    degrees = graph.degrees()
    return float(gamma * degrees.mean() / (degrees**2).mean())


def default_initial_infected(graph: Graph) -> frozenset[int]:
    """A tenth of the nodes (at least one), used by threshold estimation."""
    return frozenset(range(max(1, graph.n_nodes // 10)))


def _runs_alive(model: EpidemicModel, horizon: float, master_seed: int) -> Iterator[bool]:
    """Whether run k = 0, 1, 2, ... of `model` still carries infection at the horizon.

    Run k uses the derived seed run_seed(master_seed, k) and samples nothing.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be > 0")
    events = _event_loop(model.graph)
    for k in itertools.count():
        yield events(model, run_seed(master_seed, k), horizon, horizon, [], [])[3] is None


def _monte_carlo_model(
    graph: Graph, beta: float, gamma: float, kind: EpidemicKind, initial_infected: frozenset[int] | None
) -> EpidemicModel:
    if initial_infected is None:
        initial_infected = default_initial_infected(graph)
    return EpidemicModel(graph=graph, kind=kind, beta=beta, gamma=gamma, initial_infected=initial_infected)


def persistence_fraction(
    graph: Graph,
    beta: float,
    gamma: float,
    horizon: float,
    n_runs: int,
    master_seed: int = 0,
    kind: EpidemicKind = EpidemicKind.SIS,
    initial_infected: frozenset[int] | None = None,
) -> float:
    """Fraction of seeded runs with infected individuals alive at the horizon.

    Run k uses the derived seed run_seed(master_seed, k), so the answer
    depends on the inputs and master_seed alone.
    """
    n_runs = _count("n_runs", n_runs, 1)
    model = _monte_carlo_model(graph, beta, gamma, kind, initial_infected)
    return sum(itertools.islice(_runs_alive(model, horizon, master_seed), n_runs)) / n_runs


def _half_persist(runs: Iterator[bool], n_runs: int) -> bool:
    """Whether at least half of the first n_runs >= 1 of `runs` survive, drawing only those that settle it.

    The answer is known once ceil(n_runs / 2) of them survive, or once
    more than the rest die out.
    """
    needed = -(-n_runs // 2)
    alive = extinct = 0
    for survived in itertools.islice(runs, n_runs):
        alive += survived
        extinct += not survived
        if alive == needed or extinct > n_runs - needed:
            break
    return alive >= needed


class ThresholdBracketError(RuntimeError):
    """The supplied beta range does not straddle the persistence transition."""


@dataclass(frozen=True)
class ThresholdEstimate:
    beta: float
    bracket: tuple[float, float]
    bracket_width: float
    survival_low: float
    survival_high: float


def estimate_threshold(
    graph: Graph,
    gamma: float,
    beta_range: tuple[float, float],
    runs_per_point: int = 40,
    persistence_horizon: float = 60.0,
    n_bisections: int = 8,
    master_seed: int = 0,
) -> ThresholdEstimate:
    """Monte Carlo bisection for the empirical persistence threshold.

    Every run starts from `default_initial_infected(graph)`.  The
    criterion is "at least half of the seeded runs still carry
    infection at the persistence horizon".  The beta range must bracket
    the transition: survival below 0.1 at the low end and above 0.9 at
    the high end, otherwise a ThresholdBracketError reports the observed
    fractions.  Returns the final bracket midpoint and width.
    """
    low, high = float(beta_range[0]), float(beta_range[1])
    if not (0 <= low < high):
        raise ValueError("beta_range must satisfy 0 <= low < high")
    runs_per_point = _count("runs_per_point", runs_per_point, 1)
    n_bisections = _count("n_bisections", n_bisections, 0)

    def survival(beta: float, evaluation: int) -> float:
        return persistence_fraction(
            graph,
            beta,
            gamma,
            persistence_horizon,
            runs_per_point,
            master_seed=run_seed(master_seed, evaluation),
        )

    survival_low = survival(low, 0)
    survival_high = survival(high, 1)
    if survival_low >= 0.1 or survival_high <= 0.9:
        raise ThresholdBracketError(
            f"beta range [{low:g}, {high:g}] does not bracket the transition: "
            f"survival {survival_low:.2f} at the low end, {survival_high:.2f} at the high end"
        )
    # a midpoint only needs "survival >= 0.5", so it stops once that is
    # settled; its runs are persistence_fraction's
    for evaluation in range(2, 2 + n_bisections):
        mid = 0.5 * (low + high)
        model = _monte_carlo_model(graph, mid, gamma, EpidemicKind.SIS, None)
        runs = _runs_alive(model, persistence_horizon, run_seed(master_seed, evaluation))
        if _half_persist(runs, runs_per_point):
            high = mid
        else:
            low = mid
    return ThresholdEstimate(
        beta=0.5 * (low + high),
        bracket=(low, high),
        bracket_width=high - low,
        survival_low=survival_low,
        survival_high=survival_high,
    )
