"""Scenario documents: strict JSON parsing, serialization, parameter edits, CSV and digests.

A document is a JSON object with a top-level "kind" of community,
epidemic, selection or discrete (schema_version 1).  Parsing is strict:
unknown fields and repeated keys are errors, so a typo in a rate name
fails loudly instead of silently running the wrong experiment.  serialize/parse round-trips
to an equal structure.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from typing import Any, Union

import numpy as np

from .core import (
    TROPHIC_KINDS,
    ContinuumParams,
    HollingTypeII,
    IntegratorConfig,
    InteractionKind,
    InteractionSpec,
    IvlevResponse,
    LinearResponse,
    Role,
    Scenario,
    SpeciesSpec,
    Trajectory,
    _count,
    continuum_interaction,
    validate_scenario,
)
from .discrete import NicholsonBaileyParams
from .epidemic import (
    EpidemicKind,
    EpidemicModel,
    Graph,
    _check_window,
    barabasi_albert,
    complete_graph,
    erdos_renyi,
    from_edges,
)
from .selection import TRAIT_NAMES, GradientSpec, SelectionState, make_g_matrix

__all__ = [
    "ParseError",
    "EpidemicBundle",
    "SelectionBundle",
    "DiscreteBundle",
    "Document",
    "parse_scenario",
    "serialize_scenario",
    "scenario_digest",
    "set_parameter",
    "write_csv",
    "read_csv",
]

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Malformed scenario document; the message pinpoints the field."""


@dataclass(frozen=True)
class EpidemicBundle:
    """An epidemic document: `model` run to `horizon`, sampled every `sample_dt`.

    `recipe` is the graph's generator recipe in document form (ints through `operator.index`, `p` a float),
    written in place of the edges; None for any other graph, or for an argument such as a str seed."""

    model: EpidemicModel
    horizon: float
    sample_dt: float
    recipe: tuple[str, tuple] | None = field(init=False)

    def __post_init__(self) -> None:
        _check_window(self.horizon, self.sample_dt)
        try:
            generator, args = self.model.graph.recipe
            readers = _GENERATORS[generator][1].values()
            recipe = generator, tuple(float(a) if r is _number else operator.index(a) for r, a in zip(readers, args))
        except TypeError:  # no recipe, or an argument that a document field cannot hold
            recipe = None
        object.__setattr__(self, "recipe", recipe)


@dataclass(frozen=True)
class SelectionBundle:
    state: SelectionState
    steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", _count("steps", self.steps, 0))


@dataclass(frozen=True)
class DiscreteBundle:
    params: NicholsonBaileyParams
    initial_host: float
    initial_parasitoid: float
    generations: int

    def __post_init__(self) -> None:
        for name in ("initial_host", "initial_parasitoid"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite value >= 0, got {value!r}")
        object.__setattr__(self, "generations", _count("generations", self.generations, 0))


Document = Union[Scenario, EpidemicBundle, SelectionBundle, DiscreteBundle]

#: The JSON "type" of each functional response.
_RESPONSES = {"linear": LinearResponse, "holling2": HollingTypeII, "ivlev": IvlevResponse}

#: The covariance keys of a selection document, in make_g_matrix's argument
#: order; the three variances are required, the covariances default to 0.
_COVARIANCE_KEYS = (
    "v_display",
    "v_preference",
    "v_fitness",
    "c_display_preference",
    "c_display_fitness",
    "c_preference_fitness",
)


def _document_kind(document: Document) -> str:
    for kind, (document_type, _, _) in _CODECS.items():
        if isinstance(document, document_type):
            return kind
    raise TypeError(f"not a scenario document: {document!r}")


# ---------------------------------------------------------------------------
# strict object walking

def _require_object(data: Any, path: str) -> dict:
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected an object, got {type(data).__name__}")
    return data


def _check_keys(data: dict, path: str, required: set[str], optional: set[str]) -> None:
    unknown = sorted(set(data) - required - optional)
    if unknown:
        allowed = ", ".join(sorted(required | optional))
        raise ParseError(f"{path}: unknown field(s) {', '.join(unknown)} (valid fields: {allowed})")
    missing = sorted(required - set(data))
    if missing:
        raise ParseError(f"{path}: missing required field(s) {', '.join(missing)}")


def _finite(value: Any, path: str) -> float:
    """A JSON number as a float; an infinity, a NaN or an integer too large for a float is not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected a number")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(f"{path}: must be finite")
    return value


def _number(data: dict, key: str, path: str, default=None) -> float:
    if key not in data:
        return default
    return _finite(data[key], f"{path}.{key}")


def _integer(data: dict, key: str, path: str, default=None) -> int:
    if key not in data:
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}.{key}: expected an integer")
    return value


def _string(data: dict, key: str, path: str, default=None) -> str:
    if key not in data:
        return default
    value = data[key]
    if not isinstance(value, str):
        raise ParseError(f"{path}.{key}: expected a string")
    return value


def _vector(data: dict, key: str, path: str, length: int, default=None):
    if key not in data:
        return default
    value = data[key]
    if not isinstance(value, list) or len(value) != length:
        raise ParseError(f"{path}.{key}: expected a list of {length} numbers")
    return tuple(_finite(item, f"{path}.{key}[{k}]") for k, item in enumerate(value))


def _role(data: dict, key: str, path: str, default=None) -> Role:
    if key not in data:
        return default
    value = _string(data, key, path)
    if value not in ("producer", "consumer"):
        raise ParseError(f"{path}.{key}: expected 'producer' or 'consumer', got {value!r}")
    return Role(value)


#: Reader for each field annotation a record may carry; the record modules
#: postpone annotation evaluation, so the annotations are these strings.
_READERS = {"float": _number, "int": _integer, "str": _string, "Role": _role}


def _record(record_type, data: dict, path: str, tags: frozenset[str] = frozenset()):
    """Build a dataclass from the JSON object holding one key per field.

    Fields are read in declaration order by their annotation; a field
    with a default is optional.  `tags` are further required keys that
    the caller reads.  A ValueError from the constructor is reported at
    `path`.
    """
    spec = fields(record_type)
    required = {f.name for f in spec if f.default is MISSING}
    _check_keys(data, path, required | tags, {f.name for f in spec} - required)
    values = {f.name: _READERS[f.type](data, f.name, path, f.default) for f in spec}
    try:
        return record_type(**values)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _record_json(record) -> dict:
    """A dataclass as the JSON object that `_record` reads back; a float field is written as a float."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, Enum):
            value = value.value
        elif f.type == "float":
            value = float(value)
        out[f.name] = value
    return out


# ---------------------------------------------------------------------------
# parsing

def _parse_response(data: Any, path: str):
    data = _require_object(data, path)
    tag = _string(data, "type", path)
    if tag not in _RESPONSES:
        raise ParseError(f"{path}.type: unknown response type {tag!r} ({', '.join(_RESPONSES)})")
    return _record(_RESPONSES[tag], data, path, frozenset({"type"}))


def _parse_entry(raw: Any, path: str) -> InteractionSpec:
    """One interaction entry of a community document; `validate_scenario` checks its species."""
    raw = _require_object(raw, path)
    kind_raw = _string(raw, "kind", path)
    if kind_raw == "continuum":
        params = _record(ContinuumParams, raw, path, frozenset({"species_i", "species_j", "kind"}))
        return continuum_interaction(_string(raw, "species_i", path), _string(raw, "species_j", path), params)
    try:
        kind = InteractionKind(kind_raw)
    except ValueError:
        valid = ", ".join([k.value for k in InteractionKind] + ["continuum"])
        raise ParseError(f"{path}.kind: unknown kind {kind_raw!r} (valid: {valid})") from None
    victim_side = "response" if kind in TROPHIC_KINDS else "coeff_j"
    _check_keys(raw, path, {"species_i", "species_j", "kind", "coeff_i", victim_side}, set())
    pair = _string(raw, "species_i", path), _string(raw, "species_j", path)
    coeff_i = _number(raw, "coeff_i", path)
    if kind in TROPHIC_KINDS:
        response = _parse_response(raw["response"], f"{path}.response")
        return InteractionSpec(*pair, kind, coeff_i, response=response)
    coeff_j = _number(raw, "coeff_j", path)
    return InteractionSpec(*pair, kind, coeff_i, coeff_j=coeff_j)


def _parse_community(data: dict) -> Scenario:
    _check_keys(
        data,
        "document",
        {"kind", "species", "interactions", "initial_densities", "horizon"},
        {"schema_version", "integrator"},
    )
    species = []
    raw_species = data["species"]
    if not isinstance(raw_species, list):
        raise ParseError("document.species: expected a list")
    for idx, raw in enumerate(raw_species):
        path = f"species[{idx}]"
        raw = _require_object(raw, path)
        spec = _record(SpeciesSpec, raw, path, frozenset({"role", "growth_rate"}))
        if spec.role == Role.CONSUMER and "trophic_level" not in raw:  # a consumer sits at level 1 by default
            spec = replace(spec, trophic_level=1)
        species.append(spec)

    raw_entries = data["interactions"]
    if not isinstance(raw_entries, list):
        raise ParseError("document.interactions: expected a list")
    interactions = [_parse_entry(raw, f"interactions[{idx}]") for idx, raw in enumerate(raw_entries)]

    densities_raw = _require_object(data["initial_densities"], "document.initial_densities")
    densities = {key: _finite(value, f"document.initial_densities.{key}") for key, value in densities_raw.items()}

    integrator_raw = _require_object(data.get("integrator", {}), "document.integrator")
    scenario = Scenario(
        species=tuple(species),
        interactions=tuple(interactions),
        initial_densities=densities,
        integrator=_record(IntegratorConfig, integrator_raw, "document.integrator"),
        horizon=_number(data, "horizon", "document"),
    )
    return validate_scenario(scenario)


#: Generated graphs: generator -> (function, its parameters in call order
#: with their readers).  "seed" is optional and defaults to 0.
_GENERATORS = {
    "complete": (complete_graph, {"n": _integer}),
    "erdos_renyi": (erdos_renyi, {"n": _integer, "p": _number, "seed": _integer}),
    "barabasi_albert": (barabasi_albert, {"n": _integer, "m": _integer, "seed": _integer}),
}


def _build_graph(raw: dict, path: str) -> Graph:
    raw = _require_object(raw, path)
    generator = _string(raw, "generator", path)
    if generator in _GENERATORS:
        build, params = _GENERATORS[generator]
        _check_keys(raw, path, {"generator", *params} - {"seed"}, {"seed"} & set(params))
        args = [read(raw, key, path, 0) for key, read in params.items()]
    elif generator == "explicit":
        _check_keys(raw, path, {"generator", "n", "edges"}, set())
        edges_raw = raw["edges"]
        if not isinstance(edges_raw, list):
            raise ParseError(f"{path}.edges: expected a list of [u, v] pairs")
        edges = []
        for k, pair in enumerate(edges_raw):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
            ):
                raise ParseError(f"{path}.edges[{k}]: expected [u, v] with integer nodes")
            edges.append((pair[0], pair[1]))
        n = _integer(raw, "n", path)
        build, args = from_edges, (n, edges)
    else:
        raise ParseError(
            f"{path}.generator: unknown generator {generator!r} "
            f"({', '.join([*_GENERATORS, 'explicit'])})"
        )
    try:
        return build(*args)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _parse_epidemic(data: dict) -> EpidemicBundle:
    _check_keys(
        data,
        "document",
        {"kind", "graph", "model", "beta", "gamma", "initial_infected", "horizon"},
        {"schema_version", "seed", "sample_dt"},
    )
    graph = _build_graph(data["graph"], "document.graph")
    model_raw = _string(data, "model", "document")
    if model_raw not in ("sis", "sir"):
        raise ParseError(f"document.model: expected 'sis' or 'sir', got {model_raw!r}")
    infected_raw = data["initial_infected"]
    if not isinstance(infected_raw, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in infected_raw
    ):
        raise ParseError("document.initial_infected: expected a list of node indices")
    beta = _number(data, "beta", "document")
    gamma = _number(data, "gamma", "document")
    seed = _integer(data, "seed", "document", default=0)
    try:
        model = EpidemicModel(
            graph=graph,
            kind=EpidemicKind(model_raw),
            beta=beta,
            gamma=gamma,
            initial_infected=frozenset(infected_raw),
            seed=seed,
        )
    except ValueError as exc:
        raise ParseError(f"document: {exc}") from None
    horizon = _number(data, "horizon", "document")
    if horizon <= 0:
        raise ParseError("document.horizon: must be > 0")
    sample_dt = _number(data, "sample_dt", "document", default=1.0)
    if sample_dt <= 0:
        raise ParseError("document.sample_dt: must be > 0")
    return EpidemicBundle(model=model, horizon=horizon, sample_dt=sample_dt)


def _parse_gradient(raw: Any, path: str) -> GradientSpec:
    raw = _require_object(raw, path)
    kind = _string(raw, "type", path)
    if kind == "constant":
        _check_keys(raw, path, {"type", "value"}, set())
        return GradientSpec(type="constant", value=_vector(raw, "value", path, 3))
    if kind == "linear":
        _check_keys(raw, path, {"type", "intercept", "matrix"}, set())
        matrix_raw = raw["matrix"]
        if not isinstance(matrix_raw, list) or len(matrix_raw) != 3:
            raise ParseError(f"{path}.matrix: expected 3 rows of 3 numbers")
        rows = []
        for k, row in enumerate(matrix_raw):
            if not isinstance(row, list) or len(row) != 3:
                raise ParseError(f"{path}.matrix[{k}]: expected 3 numbers")
            values = []
            for item in row:
                if isinstance(item, bool) or not isinstance(item, (int, float)):
                    raise ParseError(f"{path}.matrix[{k}]: expected 3 numbers")
                values.append(_finite(item, f"{path}.matrix[{k}]"))
            rows.append(tuple(values))
        return GradientSpec(
            type="linear",
            intercept=_vector(raw, "intercept", path, 3),
            matrix=tuple(rows),
        )
    raise ParseError(f"{path}.type: unknown gradient type {kind!r} (constant, linear)")


def _parse_selection(data: dict) -> SelectionBundle:
    _check_keys(
        data,
        "document",
        {"kind", "means", "covariance", "natural_gradient", "sexual_gradient"},
        {"schema_version", "mutation", "steps"},
    )
    means_raw = _require_object(data["means"], "document.means")
    _check_keys(means_raw, "document.means", set(TRAIT_NAMES), set())
    means = tuple(_number(means_raw, key, "document.means") for key in TRAIT_NAMES)
    path = "document.covariance"
    cov_raw = _require_object(data["covariance"], path)
    _check_keys(cov_raw, path, set(_COVARIANCE_KEYS[:3]), set(_COVARIANCE_KEYS[3:]))
    covariance = tuple(_number(cov_raw, key, path, default=0.0) for key in _COVARIANCE_KEYS)
    steps = _integer(data, "steps", "document", default=100)
    if steps < 0:
        raise ParseError("document.steps: must be >= 0")
    natural = _parse_gradient(data["natural_gradient"], "document.natural_gradient")
    sexual = _parse_gradient(data["sexual_gradient"], "document.sexual_gradient")
    mutation = _vector(data, "mutation", "document", 3, default=(0.0, 0.0, 0.0))
    try:
        state = SelectionState(means, make_g_matrix(*covariance), natural, sexual, mutation)
    except ValueError as exc:
        raise ParseError(f"document: {exc}") from None
    return SelectionBundle(state=state, steps=steps)


def _parse_discrete(data: dict) -> DiscreteBundle:
    _check_keys(
        data,
        "document",
        {"kind", "map", "params", "initial", "generations"},
        {"schema_version"},
    )
    map_name = _string(data, "map", "document")
    if map_name != "nicholson_bailey":
        raise ParseError(f"document.map: unknown map {map_name!r} (nicholson_bailey)")
    params_raw = _require_object(data["params"], "document.params")
    params = _record(NicholsonBaileyParams, params_raw, "document.params")
    initial_raw = _require_object(data["initial"], "document.initial")
    _check_keys(initial_raw, "document.initial", {"host", "parasitoid"}, set())
    host = _number(initial_raw, "host", "document.initial")
    parasitoid = _number(initial_raw, "parasitoid", "document.initial")
    if host < 0 or parasitoid < 0:
        raise ParseError("document.initial: densities must be >= 0")
    generations = _integer(data, "generations", "document")
    if generations < 0:
        raise ParseError("document.generations: must be >= 0")
    return DiscreteBundle(
        params=params, initial_host=host, initial_parasitoid=parasitoid, generations=generations
    )


# ---------------------------------------------------------------------------
# serialization

def _response_to_json(response) -> dict:
    tag = next(tag for tag, cls in _RESPONSES.items() if isinstance(response, cls))
    return {"type": tag, **_record_json(response)}


def _entry_to_json(entry: InteractionSpec) -> dict:
    out = {"species_i": entry.species_i, "species_j": entry.species_j}
    if entry.continuum_alpha is not None:
        alpha, strength = entry.continuum_alpha, entry.continuum_strength
        return {**out, "kind": "continuum", "alpha": float(alpha), "base_strength": float(strength)}
    out.update(kind=entry.kind.value, coeff_i=float(entry.coeff_i))
    if entry.kind in TROPHIC_KINDS:
        out["response"] = _response_to_json(entry.response)
    else:
        out["coeff_j"] = float(entry.coeff_j)
    return out


def _community_to_json(scenario: Scenario) -> dict:
    return {
        "species": [_record_json(sp) for sp in scenario.species],
        "interactions": [_entry_to_json(entry) for entry in scenario.interactions],
        "initial_densities": {sp.id: float(scenario.initial_densities[sp.id]) for sp in scenario.species},
        "integrator": _record_json(scenario.integrator),
        "horizon": float(scenario.horizon),
    }


def _graph_to_json(bundle: EpidemicBundle) -> dict:
    if bundle.recipe is not None:
        generator, args = bundle.recipe
        return {"generator": generator, **dict(zip(_GENERATORS[generator][1], args))}
    return {
        "generator": "explicit",
        "n": bundle.model.graph.n_nodes,
        "edges": sorted(list(e) for e in bundle.model.graph.edges),
    }


def _epidemic_to_json(bundle: EpidemicBundle) -> dict:
    model = bundle.model
    return {
        "graph": _graph_to_json(bundle),
        "model": model.kind.value,
        "beta": float(model.beta),
        "gamma": float(model.gamma),
        "initial_infected": sorted(model.initial_infected),
        "seed": model.seed,
        "horizon": float(bundle.horizon),
        "sample_dt": float(bundle.sample_dt),
    }


def _gradient_to_json(spec: GradientSpec) -> dict:
    if not isinstance(spec, GradientSpec):
        raise TypeError(f"a selection document stores GradientSpec gradients, not {spec!r}")
    if spec.type == "constant":
        return {"type": "constant", "value": [float(v) for v in spec.value]}
    return {
        "type": "linear",
        "intercept": [float(v) for v in spec.intercept],
        "matrix": [[float(v) for v in row] for row in spec.matrix],
    }


def _selection_to_json(bundle: SelectionBundle) -> dict:
    state = bundle.state
    # g[0, 0], g[1, 1], g[2, 2], g[0, 1], g[0, 2], g[1, 2]: the symmetrized matrix
    # holds the document's entries, since (x + x) / 2 == x for every finite x
    covariance = state.g_matrix[(0, 1, 2, 0, 0, 1), (0, 1, 2, 1, 2, 2)].tolist()
    return {
        "means": dict(zip(TRAIT_NAMES, state.means.tolist())),
        "covariance": dict(zip(_COVARIANCE_KEYS, covariance)),
        "natural_gradient": _gradient_to_json(state.natural),
        "sexual_gradient": _gradient_to_json(state.sexual),
        "mutation": state.mutation_step.tolist(),
        "steps": bundle.steps,
    }


def _discrete_to_json(bundle: DiscreteBundle) -> dict:
    return {
        "map": "nicholson_bailey",
        "params": _record_json(bundle.params),
        "initial": {"host": float(bundle.initial_host), "parasitoid": float(bundle.initial_parasitoid)},
        "generations": bundle.generations,
    }


#: Document kind -> (type, parser of the document object, writer of the
#: fields that follow "schema_version" and "kind").
_CODECS = {
    "community": (Scenario, _parse_community, _community_to_json),
    "discrete": (DiscreteBundle, _parse_discrete, _discrete_to_json),
    "epidemic": (EpidemicBundle, _parse_epidemic, _epidemic_to_json),
    "selection": (SelectionBundle, _parse_selection, _selection_to_json),
}


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object's pairs as a dict, refusing a key given twice (json.loads would keep the last)."""
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ParseError(f"duplicate key {next(key for k, key in enumerate(keys) if key in keys[:k])!r}")
    return data


def _json_integer(text: str) -> int | float:
    """A JSON integer; one past int()'s digit limit reads as an infinity, which no field accepts."""
    try:
        return int(text)
    except ValueError:
        return math.inf


def parse_scenario(text: str) -> Document:
    """Parse a scenario document; see the module docstring for the schema.

    Raises ParseError with line/column on JSON syntax errors and with a
    field path on schema violations; community invariant violations come
    through as ScenarioValidationError from validate_scenario.
    """
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys, parse_int=_json_integer)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"JSON syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    data = _require_object(data, "document")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _CODECS:
        raise ParseError(f"unknown kind {kind!r}; valid kinds: {', '.join(_CODECS)}")
    version = _integer(data, "schema_version", "document", default=SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version} (current: {SCHEMA_VERSION})")
    _, parse, _ = _CODECS[kind]
    return parse(data)


def serialize_scenario(document: Document) -> str:
    """Canonical JSON text for a document; parse(serialize(x)) equals x."""
    kind = _document_kind(document)
    _, _, write = _CODECS[kind]
    payload = {"schema_version": SCHEMA_VERSION, "kind": kind, **write(document)}
    return json.dumps(payload, indent=2) + "\n"


def scenario_digest(document: Document) -> str:
    """Stable hex digest of the canonical serialized document."""
    return hashlib.sha256(serialize_scenario(document).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# parameter edits

def _split_path(path: str) -> list[str]:
    parts = path.split(".")
    if not all(parts):
        raise ValueError(f"unresolvable parameter path '{path}'")
    return parts


def _number_paths(form: dict) -> list[str]:
    """The dotted paths of the numbers in a document-form object, in document order."""
    paths = []
    for key, item in form.items():
        if isinstance(item, dict):
            paths.extend(f"{key}.{sub}" for sub in _number_paths(item))
        elif isinstance(item, (int, float)):
            paths.append(key)
    return paths


def _set_number(form: dict, fields: list[str], value: float, path: str, owner: str) -> dict:
    """The document-form object `form` with its number at `fields` set to value."""
    numbers = _number_paths(form)
    if ".".join(fields) not in numbers:
        raise ValueError(
            f"unresolvable parameter path '{path}': {owner} has no number '{'.'.join(fields)}' "
            f"(its numbers: {', '.join(numbers)})"
        )
    target = form
    for name in fields[:-1]:
        target = target[name]
    target[fields[-1]] = value
    return form


def set_parameter(scenario: Scenario, path: str, value: float) -> Scenario:
    """Functionally update one number of a scenario's document form.

    Paths:
        horizon
        species.<id>.<field>
        initial.<id>
        interaction.<i>:<j>.<field>[.<field>]

    A field is a number that `serialize_scenario` writes for that species
    or entry.  An entry is rebuilt from its edited document form, so a
    continuum entry edits its dial (alpha, base_strength) and re-derives
    its coefficients.  A trophic level takes only an integral value.
    """
    parts = _split_path(path)
    head = parts[0]
    if head == "horizon" and len(parts) == 1:
        return replace(scenario, horizon=float(value))
    if head == "species" and len(parts) >= 3:
        sp_id, fields = parts[1], parts[2:]
        species = list(scenario.species)
        for k, sp in enumerate(species):
            if sp.id == sp_id:
                _set_number(_record_json(sp), fields, value, path, f"species {sp_id}")
                value = float(value)
                if fields == ["trophic_level"]:
                    if not value.is_integer():
                        raise ValueError(f"{path} must be an integer, got {value!r}")
                    value = int(value)
                species[k] = replace(sp, **{fields[0]: value})
                return replace(scenario, species=tuple(species))
        raise ValueError(f"unresolvable parameter path '{path}': no species '{sp_id}'")
    if head == "initial" and len(parts) == 2:
        sp_id = parts[1]
        if sp_id not in scenario.initial_densities:
            raise ValueError(f"unresolvable parameter path '{path}': no species '{sp_id}'")
        densities = dict(scenario.initial_densities)
        densities[sp_id] = float(value)
        return replace(scenario, initial_densities=densities)
    if head == "interaction" and len(parts) >= 3:
        pair = parts[1].split(":")
        if len(pair) != 2:
            raise ValueError(f"unresolvable parameter path '{path}': expected interaction.<i>:<j>")
        entries = list(scenario.interactions)
        for k, entry in enumerate(entries):
            if {entry.species_i, entry.species_j} == set(pair):
                label = f"interaction {parts[1]}"
                form = _set_number(_entry_to_json(entry), parts[2:], float(value), path, label)
                entries[k] = _parse_entry(form, label)
                return replace(scenario, interactions=tuple(entries))
        raise ValueError(f"unresolvable parameter path '{path}': no entry for pair {parts[1]}")
    raise ValueError(
        f"unresolvable parameter path '{path}' "
        "(roots: horizon, species.<id>, initial.<id>, interaction.<i>:<j>)"
    )


# ---------------------------------------------------------------------------
# CSV

# rows formatted per `%` call; bounds the temporary lists and tuples
CSV_BLOCK_ROWS = 1024


def write_csv(trajectory: Trajectory) -> str:
    """Comma-separated samples, one row per time, shortest round-trip decimals.

    The header is "time,<name1>,<name2>,..." in variable order. A value is
    its `repr`, except that integer values below 1e16 in magnitude drop the
    ".0" (so -0.0 is written "0"). `read_csv` reads the text back into an
    equal trajectory, bit for bit but for the sign of zero. Raises
    ValueError for a variable name containing "," or a line break, which
    would break the table.
    """
    for name in trajectory.variable_names:
        if "," in name or name.splitlines() != [name]:
            raise ValueError(f"variable name {name!r} cannot head a CSV column: it contains ',' or a line break")
    times, values = trajectory.times, trajectory.values
    row = ",".join(["%s"] * (1 + values.shape[1])) + "\n"
    parts = ["time," + ",".join(trajectory.variable_names) + "\n"]
    for start in range(0, times.shape[0], CSV_BLOCK_ROWS):
        stop = start + CSV_BLOCK_ROWS
        block = np.column_stack((times[start:stop], values[start:stop]))
        cells = block.ravel()
        items = cells.tolist()  # "%s" of a float is its repr
        whole = np.flatnonzero((cells == np.trunc(cells)) & (np.abs(cells) < 1e16))
        for i, value in zip(whole.tolist(), cells[whole].astype(np.int64).tolist()):
            items[i] = value
        parts.append(row * block.shape[0] % tuple(items))
    return "".join(parts)


def read_csv(text: str) -> Trajectory:
    """Read `write_csv` text back into its trajectory.

    Raises ValueError for text that is not such a table, including rows
    that do not form a trajectory (none at all, times that do not start
    at 0 or do not increase, non-finite values).
    """
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    if header[0] != "time":
        raise ValueError("first CSV column must be 'time'")
    names = tuple(header[1:])
    times = []
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(names) + 1:
            raise ValueError(f"row has {len(cells)} cells, expected {len(names) + 1}")
        times.append(float(cells[0]))
        rows.append([float(c) for c in cells[1:]])
    return Trajectory(names, np.array(times), np.array(rows).reshape(len(rows), len(names)))
