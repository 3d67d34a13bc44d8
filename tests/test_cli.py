import hashlib
import json
import re
import warnings

import numpy as np
import pytest

from ecolab import cli, cli_main, iterate_selection, parse_scenario, read_csv, serialize_scenario
from ecolab.demos import DEMO_NAMES, demo_document
from ecolab.selection import TRAIT_NAMES
from helpers import HUGE_RATES


def run_cli(*argv) -> int:
    return cli_main(list(argv))


def test_demo_csv_first_row_and_exit_code(tmp_path, capsys):
    out = tmp_path / "lv.csv"
    assert run_cli("demo", "lv-classic", "--csv", str(out), "--quiet") == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "time,prey,predator"
    assert lines[1] == "0,30,8"


def test_end_to_end_determinism(tmp_path):
    first_csv, first_svg = tmp_path / "a.csv", tmp_path / "a.svg"
    second_csv, second_svg = tmp_path / "b.csv", tmp_path / "b.svg"
    assert run_cli("demo", "lv-classic", "--seed", "0", "--csv", str(first_csv), "--svg", str(first_svg), "--quiet") == 0
    assert run_cli("demo", "lv-classic", "--seed", "0", "--csv", str(second_csv), "--svg", str(second_svg), "--quiet") == 0
    assert first_csv.read_bytes() == second_csv.read_bytes()
    assert first_svg.read_bytes() == second_svg.read_bytes()


def test_missing_file_names_it(capsys):
    assert run_cli("run", "missing.json") == 1
    assert "missing.json" in capsys.readouterr().err


def test_malformed_json_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "community",')
    assert run_cli("run", str(bad)) == 1
    assert "syntax error" in capsys.readouterr().err


def test_invariant_violation_exit_code(tmp_path, capsys):
    scenario = json.loads(serialize_scenario(demo_document("lv-classic")))
    scenario["initial_densities"]["prey"] = -3.0
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(scenario))
    assert run_cli("run", str(path)) == 1
    assert "negative density" in capsys.readouterr().err


def test_runtime_divergence_exit_code(tmp_path, capsys):
    document = {
        "kind": "community",
        "species": [
            {"id": "a", "role": "producer", "growth_rate": 1.0},
            {"id": "b", "role": "producer", "growth_rate": 1.0},
        ],
        "interactions": [
            {"species_i": "a", "species_j": "b", "kind": "symbiosis", "coeff_i": 2.0, "coeff_j": 2.0}
        ],
        "initial_densities": {"a": 10.0, "b": 10.0},
        "horizon": 100.0,
    }
    path = tmp_path / "diverges.json"
    path.write_text(json.dumps(document))
    assert run_cli("run", str(path)) == 2
    assert "divergence" in capsys.readouterr().err


# the predator's decline (2.0) outruns its gain from the prey, so it dies out
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


def test_run_reports_extinctions(tmp_path, capsys):
    path = tmp_path / "extinction.json"
    path.write_text(json.dumps(EXTINCTION))
    assert run_cli("run", str(path)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["final densities: prey=10, predator=0", "extinctions: predator at t=11.46"]


def test_sweep_marks_extinct_points(tmp_path, capsys):
    path = tmp_path / "extinction.json"
    path.write_text(json.dumps(EXTINCTION))
    argv = ("sweep", str(path), "--param", "interaction.predator:prey.coeff_i", "--from", "0.1", "--to", "10")
    assert run_cli(*argv, "--points", "3") == 0
    assert capsys.readouterr().out.splitlines()[1:4] == [
        "  interaction.predator:prey.coeff_i=0.1  stable_node  final=10/0  extinct:predator",
        "  interaction.predator:prey.coeff_i=5.05  stable_node  final=10/0  extinct:predator",
        "  interaction.predator:prey.coeff_i=10  stable_node  final=10/1.525e-08",
    ]


def test_unknown_demo(capsys):
    assert run_cli("demo", "nope") == 1
    assert "unknown demo" in capsys.readouterr().err


def test_unknown_demo_with_emit(capsys):
    assert run_cli("demo", "nope", "--emit") == 1
    assert capsys.readouterr().err == f"error: unknown demo 'nope'; available: {', '.join(DEMO_NAMES)}\n"


@pytest.mark.parametrize("name", [n for n in DEMO_NAMES if n != "mimicry"])
def test_demo_emit_round_trips(name, capsys):
    assert run_cli("demo", name, "--emit") == 0
    text = capsys.readouterr().out
    assert parse_scenario(text) == demo_document(name)


def test_mimicry_demo_has_no_document(capsys):
    assert run_cli("demo", "mimicry", "--emit") == 1
    assert "payoff sweep" in capsys.readouterr().err


def test_mimicry_demo_writes_table(tmp_path, capsys):
    out = tmp_path / "mimicry.csv"
    assert run_cli("demo", "mimicry", "--csv", str(out)) == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("mimic_density,mimic_frequency,attack_probability")
    assert "0.7531" in capsys.readouterr().out


def test_run_on_emitted_file(tmp_path):
    path = tmp_path / "lv.json"
    path.write_text(serialize_scenario(demo_document("lv-classic")))
    out = tmp_path / "out.csv"
    assert run_cli("run", str(path), "--csv", str(out), "--quiet") == 0
    assert out.read_text().splitlines()[1] == "0,30,8"


def test_threshold_on_complete_graph(tmp_path, capsys):
    document = {
        "kind": "epidemic",
        "graph": {"generator": "complete", "n": 50},
        "model": "sis",
        "beta": 0.08,
        "gamma": 1.0,
        "initial_infected": [0],
        "horizon": 200.0,
    }
    path = tmp_path / "k50.json"
    path.write_text(json.dumps(document))
    assert run_cli("threshold", str(path)) == 0
    out = capsys.readouterr().out
    value = float(out.split("=")[1].strip())
    assert abs(value - 1.0 / 49.0) < 1e-12


K20_EPIDEMIC = {
    "kind": "epidemic",
    "graph": {"generator": "complete", "n": 20},
    "model": "sis",
    "beta": 0.1,
    "gamma": 1.0,
    "initial_infected": [0],
    "horizon": 20.0,
}


def test_threshold_quiet_prints_nothing(tmp_path, capsys):
    path = tmp_path / "k20.json"
    path.write_text(json.dumps(K20_EPIDEMIC))
    argv = ("threshold", str(path), "--empirical", "--runs", "8", "--bisections", "2", "--horizon", "20")
    assert run_cli(*argv, "--quiet") == 0
    assert capsys.readouterr().out == ""
    assert run_cli(*argv) == 0
    assert "empirical threshold" in capsys.readouterr().out


def test_threshold_empirical_ignores_document_initial_infected(tmp_path, capsys):
    # every Monte Carlo run starts from a tenth of the nodes, whatever the document lists
    path = tmp_path / "k20.json"
    outputs = []
    for infected in ([0], [3, 7, 11, 12, 19]):
        path.write_text(json.dumps(dict(K20_EPIDEMIC, initial_infected=infected)))
        argv = ("threshold", str(path), "--empirical", "--runs", "8", "--bisections", "3", "--horizon", "20")
        assert run_cli(*argv) == 0
        outputs.append(capsys.readouterr().out)
    assert "empirical threshold" in outputs[0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("threshold", "--empirical", "--runs", "0"), "runs_per_point must be >= 1"),
        (("sweep", "--param", "beta", "--from", "0.05", "--to", "0.2", "--points", "2", "--runs", "0"),
         "runs_per_point must be >= 1"),
    ],
    ids=["threshold", "sweep"],
)
def test_zero_monte_carlo_runs_is_an_input_error(tmp_path, capsys, argv, message):
    path = tmp_path / "k20.json"
    path.write_text(json.dumps(K20_EPIDEMIC))
    assert run_cli(argv[0], str(path), *argv[1:]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_negative_bisections_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "k20.json"
    path.write_text(json.dumps(K20_EPIDEMIC))
    assert run_cli("threshold", str(path), "--empirical", "--runs", "4", "--bisections", "-2") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: n_bisections must be >= 0\n"
    assert "empirical threshold" not in captured.out


def test_threshold_requires_epidemic(tmp_path, capsys):
    path = tmp_path / "lv.json"
    path.write_text(serialize_scenario(demo_document("lv-classic")))
    assert run_cli("threshold", str(path)) == 1


def test_stability_reports_center_like(tmp_path, capsys):
    path = tmp_path / "lv.json"
    path.write_text(serialize_scenario(demo_document("lv-classic")))
    assert run_cli("stability", str(path)) == 0
    out = capsys.readouterr().out
    assert "center_like" in out
    assert "fixed point" in out


def test_stability_on_overflowing_rates_prints_no_warning(tmp_path, capsys):
    # Newton's residual norms overflow to inf, which fails every comparison without a numpy warning
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_RATES))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("stability", str(path)) == 0
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("fixed point") == 3


def test_stability_takes_no_seed(tmp_path, capsys):
    # the analysis draws no random numbers, so a seed would be accepted and do nothing
    path = tmp_path / "lv.json"
    path.write_text(serialize_scenario(demo_document("lv-classic")))
    with pytest.raises(SystemExit) as exit_info:
        run_cli("stability", str(path), "--seed", "5")
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run_cli("stability", "--help")
    assert "--seed" not in capsys.readouterr().out


def test_sweep_arms_race_detects_transition(tmp_path, capsys):
    path = tmp_path / "arms.json"
    path.write_text(serialize_scenario(demo_document("arms-race")))
    code = run_cli(
        "sweep",
        str(path),
        "--param",
        "interaction.attacker:victim.alpha",
        "--from",
        "1",
        "--to",
        "-1",
        "--points",
        "11",
    )
    assert code == 0
    assert "classification transition inside" in capsys.readouterr().out


def test_sweep_epidemic_beta(tmp_path, capsys):
    document = {
        "kind": "epidemic",
        "graph": {"generator": "complete", "n": 20},
        "model": "sis",
        "beta": 0.01,
        "gamma": 1.0,
        "initial_infected": [0, 1],
        "horizon": 20.0,
    }
    path = tmp_path / "epi.json"
    path.write_text(json.dumps(document))
    code = run_cli(
        "sweep", str(path), "--param", "beta", "--from", "0.01", "--to", "0.4",
        "--points", "3", "--runs", "10", "--seed", "1",
    )
    assert code == 0
    assert "metric=" in capsys.readouterr().out


def test_sweep_metric_flag(tmp_path, capsys):
    path = tmp_path / "lv.json"
    path.write_text(serialize_scenario(demo_document("lv-classic")))
    code = run_cli(
        "sweep", str(path), "--param", "initial.prey", "--from", "20", "--to", "30",
        "--points", "2", "--metric", "final:prey",
    )
    assert code == 0
    assert "metric=" in capsys.readouterr().out


def test_sweep_bad_path(tmp_path, capsys):
    path = tmp_path / "lv.json"
    path.write_text(serialize_scenario(demo_document("lv-classic")))
    code = run_cli("sweep", str(path), "--param", "bogus", "--from", "0", "--to", "1", "--points", "3")
    assert code == 1
    assert "unresolvable" in capsys.readouterr().err


def test_sweep_has_no_svg_option(tmp_path, capsys):
    # a sweep writes its per-point table as CSV and draws no chart
    path = tmp_path / "lv.json"
    path.write_text(serialize_scenario(demo_document("lv-classic")))
    with pytest.raises(SystemExit) as exit_info:
        run_cli(
            "sweep", str(path), "--param", "initial.prey", "--from", "20", "--to", "30", "--points", "2",
            "--svg", str(tmp_path / "x.svg"),
        )
    assert exit_info.value.code == 2
    assert "--svg" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("run", "{empty}"), "scenario needs at least one species"),
    (("stability", "{empty}"), "scenario needs at least one species"),
    (("sweep", "{lv}", "--param", "initial.prey", "--from", "20", "--to", "30", "--points", "2",
      "--metric", "final:nope"), "unknown species 'nope' in metric 'final:nope'"),
    (("run", "{lv}", "--csv", "{missing}/a.csv"), "[Errno 2] No such file or directory: '{missing}/a.csv'"),
    (("run", "{lv}", "--svg", "{missing}/a.svg"), "[Errno 2] No such file or directory: '{missing}/a.svg'"),
    (("sweep", "{sel}", "--param", "beta", "--from", "0.1", "--to", "0.2", "--points", "2"),
     "sweep supports community and epidemic documents"),
    (("sweep", "{epi}", "--param", "beta", "--from", "0.1", "--to", "0.2", "--points", "2", "--metric", "final:0"),
     "epidemic sweeps always report the persistence metric"),
    (("sweep", "{lv}", "--param", "initial.prey", "--from", "20", "--to", "30", "--points", "2",
      "--metric", "bogus"), "unknown metric 'bogus' (community sweeps support final:<species_id>)"),
    (("stability", "{epi}"), "stability analysis needs a community document"),
    (("sweep", "{lv}", "--param", "interaction.predator:prey.coeff_j", "--from", "0", "--to", "1", "--points", "2"),
     "unresolvable parameter path 'interaction.predator:prey.coeff_j': interaction predator:prey has no number "
     "'coeff_j' (its numbers: coeff_i, response.rate)"),
    (("sweep", "{lv}", "--param", "initial.prey", "--from", "1", "--to", "inf", "--points", "2"),
     "sweep bounds must be finite, got --from 1.0 --to inf"),
    (("sweep", "{lv}", "--param", "initial.prey", "--from", "20", "--to", "30", "--points", "-1"),
     "grid needs at least two points"),
    (("sweep", "{sel}", "--param", "beta", "--from", "0.1", "--to", "0.2", "--points", "1"),
     "grid needs at least two points"),
    (("sweep", "{lv}", "--param", "species.predator.trophic_level", "--from", "1", "--to", "2", "--points", "3"),
     "species.predator.trophic_level must be an integer, got 1.5"),
    # refused before its first step, where it used to ask for about 1e302 samples and never return
    (("sweep", "{lv}", "--param", "horizon", "--from", "1e300", "--to", "1e301", "--points", "2"),
     "rk4_fixed horizon / step must be <= 1000000 steps, got 1e+302"),
    # JSON integers too large for a float, where float() raises OverflowError
    (("run", "{huge_horizon}"), "document.horizon: must be finite"),
    (("stability", "{huge_growth}"), "species[1].growth_rate: must be finite"),
    # an integer past int()'s limit of 4300 digits, where json.loads alone raises a ValueError naming no field
    (("run", "{long_horizon}"), "document.horizon: must be finite"),
], ids=["run-no-species", "stability-no-species", "unknown-metric-species", "csv-in-missing-dir",
        "svg-in-missing-dir", "sweep-selection", "sweep-epidemic-metric", "sweep-unknown-metric",
        "stability-epidemic", "sweep-predation-coeff_j", "sweep-to-inf", "sweep-negative-points",
        "sweep-one-point-of-a-selection", "sweep-fractional-trophic-level", "sweep-horizon-past-the-step-budget",
        "run-huge-integer-horizon", "stability-huge-integer-growth-rate", "run-horizon-past-the-digit-limit"])
def test_input_errors_exit_1_with_a_fixed_message(tmp_path, capsys, argv, message):
    paths = {name: tmp_path / f"{name}.json" for name in ("empty", "lv", "sel", "epi")}
    paths["missing"] = tmp_path / "missing"
    paths["empty"].write_text('{"kind": "community", "species": [], "interactions": [], '
                              '"initial_densities": {}, "horizon": 1}')
    paths["lv"].write_text(serialize_scenario(demo_document("lv-classic")))
    lv = json.loads(paths["lv"].read_text())
    paths["huge_horizon"] = tmp_path / "huge-horizon.json"
    paths["huge_horizon"].write_text(json.dumps(dict(lv, horizon=10**400)))
    paths["long_horizon"] = tmp_path / "long-horizon.json"
    paths["long_horizon"].write_text(json.dumps(dict(lv, horizon="<long>")).replace('"<long>"', "1" + "0" * 5000))
    lv["species"][1]["growth_rate"] = 10**400
    paths["huge_growth"] = tmp_path / "huge-growth.json"
    paths["huge_growth"].write_text(json.dumps(lv))
    paths["sel"].write_text(json.dumps(RUNAWAY_SELECTION))
    paths["epi"].write_text(json.dumps(K20_EPIDEMIC))
    with warnings.catch_warnings():
        # the message is the whole of stderr: no numpy warning may come before it
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(*(arg.format(**paths) for arg in argv)) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(**paths)}\n")


def test_calls_in_one_process_parse_their_own_argv(tmp_path, capsys):
    # cli_main builds its parser once; no call may see what an earlier one parsed
    path = tmp_path / "lv.json"
    path.write_text(serialize_scenario(demo_document("lv-classic")))
    argvs = [
        ["run", str(path), "--quiet", "--csv", str(tmp_path / "a.csv")],
        ["run", str(path)],
        ["sweep", str(path), "--param", "initial.prey", "--from", "20", "--to", "30", "--points", "2", "--quiet"],
        ["stability", str(path)],
    ]
    for argv in argvs:
        assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    assert cli._parser() is cli._parser()
    assert run_cli(*argvs[0]) == 0
    assert capsys.readouterr().out == ""
    assert run_cli(*argvs[1]) == 0
    assert capsys.readouterr().out.startswith("digest: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "lv.json"]


def test_usage_error_matches_a_fresh_parser(capsys):
    argv = ["sweep", "lv.json", "--param", "initial.prey", "--points", "2"]
    with pytest.raises(SystemExit) as first:
        cli_main(argv)
    once = capsys.readouterr()
    with pytest.raises(SystemExit) as fresh:
        cli.build_parser().parse_args(argv)
    assert first.value.code == fresh.value.code == 2
    assert once == capsys.readouterr()
    assert once.out == "" and once.err.endswith("error: the following arguments are required: --from, --to\n")


def test_quiet_suppresses_report(tmp_path, capsys):
    path = tmp_path / "lv.json"
    path.write_text(serialize_scenario(demo_document("lv-classic")))
    assert run_cli("run", str(path), "--quiet") == 0
    assert capsys.readouterr().out == ""


def test_epidemic_seed_flag_overrides_document(tmp_path, capsys):
    document = {
        "kind": "epidemic",
        "graph": {"generator": "complete", "n": 30},
        "model": "sis",
        "beta": 0.06,
        "gamma": 1.0,
        "initial_infected": [0],
        "seed": 11,
        "horizon": 30.0,
    }
    path = tmp_path / "epi.json"
    path.write_text(json.dumps(document))
    out_a, out_b, out_c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert run_cli("run", str(path), "--csv", str(out_a), "--quiet") == 0
    assert run_cli("run", str(path), "--csv", str(out_b), "--seed", "999", "--quiet") == 0
    assert run_cli("run", str(path), "--csv", str(out_c), "--seed", "999", "--quiet") == 0
    assert out_b.read_bytes() == out_c.read_bytes()
    assert out_a.read_bytes() != out_b.read_bytes()


def test_sir_run_writes_recovered_column(tmp_path):
    document = {
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
    path = tmp_path / "sir.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "sir.csv"
    assert run_cli("run", str(path), "--csv", str(out), "--quiet") == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "time,infected_fraction,recovered_fraction"
    assert len(lines) == 17


def test_epidemic_csv_labels_the_last_sample_with_the_horizon(tmp_path):
    # 7 * 0.1 rounds to 0.7000000000000001; the row holds the state at 0.7
    document = {
        "kind": "epidemic",
        "graph": {"generator": "complete", "n": 30},
        "model": "sis",
        "beta": 0.3,
        "gamma": 1.0,
        "initial_infected": [0, 1, 2],
        "seed": 2,
        "horizon": 0.7,
        "sample_dt": 0.1,
    }
    path = tmp_path / "short.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "short.csv"
    assert run_cli("run", str(path), "--csv", str(out), "--quiet") == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 9
    assert lines[-1].startswith("0.7,")


def test_discrete_document_runs(tmp_path):
    document = {
        "kind": "discrete",
        "map": "nicholson_bailey",
        "params": {"growth_factor": 2.0, "search_efficiency": 0.1, "conversion": 1.0},
        "initial": {"host": 14.0, "parasitoid": 7.0},
        "generations": 20,
    }
    path = tmp_path / "nb.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "nb.csv"
    assert run_cli("run", str(path), "--csv", str(out), "--quiet") == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "time,host,parasitoid"
    assert len(lines) == 22


def test_selection_document_runs(tmp_path):
    document = {
        "kind": "selection",
        "means": {"display": 1.0, "preference": 1.0, "fitness": 0.0},
        "covariance": {"v_display": 1.0, "v_preference": 1.0, "v_fitness": 0.0, "c_display_preference": 0.9},
        "natural_gradient": {"type": "constant", "value": [-0.05, 0.0, 0.0]},
        "sexual_gradient": {
            "type": "linear",
            "intercept": [0.0, 0.0, 0.0],
            "matrix": [[0.0, 0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        },
        "steps": 50,
    }
    path = tmp_path / "sel.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "sel.csv"
    svg = tmp_path / "sel.svg"
    assert run_cli("run", str(path), "--csv", str(out), "--svg", str(svg), "--quiet") == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "time,display,preference,fitness"
    assert len(lines) == 52
    assert svg.read_text().startswith("<?xml")


# The README's runaway selection document.
RUNAWAY_SELECTION = {
    "kind": "selection",
    "means": {"display": 1.0, "preference": 1.0, "fitness": 0.0},
    "covariance": {"v_display": 1.0, "v_preference": 1.0, "v_fitness": 0.0, "c_display_preference": 0.9},
    "natural_gradient": {"type": "constant", "value": [-0.05, 0, 0]},
    "sexual_gradient": {"type": "linear", "intercept": [0, 0, 0], "matrix": [[0, 0.1, 0], [0, 0, 0], [0, 0, 0]]},
    "mutation": [0, 0, 0],
    "steps": 100,
}


@pytest.mark.parametrize("document, message", [
    (dict(RUNAWAY_SELECTION, steps=100000), "means must be finite"),
    (dict(RUNAWAY_SELECTION, covariance=dict(RUNAWAY_SELECTION["covariance"], c_display_preference=1e308)),
     "document: g_matrix must be finite"),
    (dict(RUNAWAY_SELECTION, means=dict(RUNAWAY_SELECTION["means"], preference=1e308),
          sexual_gradient={"type": "linear", "intercept": [0, 0, 0], "matrix": [[0, 10, 0], [0, 0, 0], [0, 0, 0]]}),
     "document: sexual_gradient must be finite"),
    # 1e308 * 10 overflows in the linear natural gradient at the initial means
    (dict(RUNAWAY_SELECTION, means=dict(RUNAWAY_SELECTION["means"], display=10.0),
          natural_gradient={"type": "linear", "intercept": [0, 0, 0], "matrix": [[1e308, 0, 0], [0, 0, 0], [0, 0, 0]]}),
     "document: natural_gradient must be finite"),
], ids=["means", "covariance", "initial-gradient", "initial-natural-gradient"])
def test_selection_overflow_reports_only_the_error(tmp_path, capsys, document, message):
    # the finiteness checks name the failure; a numpy warning would add the install path to stderr
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(document))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("run", str(path), "--csv", str(tmp_path / "a.csv")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["overflow.json"]


# A selection run whose constant natural gradient drives display below 0:
# the signed case every sampled series must carry through CSV and SVG.
SIGNED_SELECTION = {
    "kind": "selection",
    "means": {"display": 0.5, "preference": 0.2, "fitness": 0.0},
    "covariance": {"v_display": 1.0, "v_preference": 0.5, "v_fitness": 0.0, "c_display_preference": 0.3},
    "natural_gradient": {"type": "constant", "value": [-0.07, 0.0, 0.0]},
    "sexual_gradient": {"type": "constant", "value": [0.0, 0.01, 0.0]},
    "steps": 40,
}


def test_signed_selection_run_pinned(tmp_path, capsys):
    path = tmp_path / "signed.json"
    path.write_text(json.dumps(SIGNED_SELECTION))
    csv, svg = tmp_path / "signed.csv", tmp_path / "signed.svg"
    assert run_cli("run", str(path), "--csv", str(csv), "--svg", str(svg)) == 0
    # the wall-clock line is the one part of stdout that is not deterministic
    stdout = re.sub(r"wall clock: .* ms", "wall clock: - ms", capsys.readouterr().out)

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    assert sha(csv.read_bytes()) == "dd92e0956bf730453411c83e55223b8e13f294f0a1d91d6df1db00c9672dc045"
    assert sha(svg.read_bytes()) == "86d8307aa719be9025468f74225dc286fb2b41ed629062b418ff2780fa646fcc"
    assert sha(stdout.encode("utf-8")) == "841b146a5eec16a57a7496f2d63ffb5bed081a8349c512c4fad584f7e89fbfae"

    bundle = parse_scenario(path.read_text())
    history = iterate_selection(bundle.state, bundle.steps)
    table = read_csv(csv.read_text())
    assert table.variable_names == TRAIT_NAMES
    assert table.times.tobytes() == history.times.tobytes()
    values = np.column_stack([history.column(name) for name in TRAIT_NAMES])
    assert table.values.tobytes() == values.tobytes()
    assert values[:, 0].min() < 0.0


def test_run_that_cannot_be_drawn_writes_no_csv(tmp_path, capsys):
    # zero steps give one sample, too few for a chart: neither file may appear
    path = tmp_path / "sel.json"
    path.write_text(json.dumps(dict(SIGNED_SELECTION, steps=0)))
    argv = ("run", str(path), "--csv", str(tmp_path / "a.csv"), "--svg", str(tmp_path / "a.svg"))
    assert run_cli(*argv) == 1
    assert "need at least two samples" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sel.json"]


def test_run_on_a_range_a_few_ulps_wide_writes_both_files(tmp_path, capsys):
    # every trait mean sits at 2**53 - 1 or 2**53, where no tick step moves a tick
    document = dict(
        SIGNED_SELECTION,
        means={name: 2.0**53 - 1 for name in TRAIT_NAMES},
        covariance={"v_display": 1.0, "v_preference": 0.0, "v_fitness": 0.0, "c_display_preference": 0.0},
        natural_gradient={"type": "constant", "value": [1.0, 0.0, 0.0]},
        sexual_gradient={"type": "constant", "value": [0.0, 0.0, 0.0]},
        steps=3,
    )
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(document))
    csv, svg = tmp_path / "a.csv", tmp_path / "a.svg"
    assert run_cli("run", str(path), "--csv", str(csv), "--svg", str(svg), "--quiet") == 0
    assert capsys.readouterr().err == ""
    table = read_csv(csv.read_text())
    assert (table.values.min(), table.values.max()) == (2.0**53 - 1, 2.0**53)
    assert svg.read_text().startswith("<?xml")


def test_species_id_that_would_break_the_csv_header_writes_nothing(tmp_path, capsys):
    # "prey,fast" would head two columns over rows of one cell each
    document = json.loads(serialize_scenario(demo_document("lv-classic")))
    text = json.dumps(document).replace('"prey"', '"prey,fast"')
    path = tmp_path / "comma.json"
    path.write_text(text)
    assert parse_scenario(text).species[0].id == "prey,fast"
    argv = ("run", str(path), "--csv", str(tmp_path / "a.csv"), "--svg", str(tmp_path / "a.svg"))
    assert run_cli(*argv) == 1
    assert "'prey,fast'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["comma.json"]


# The demos' CSV and SVG bytes, digested before the writers worked a block of
# rows at a time; the per-value writers gave exactly these bytes.
DEMO_OUTPUT_SHA256 = {
    "food-chain.csv": "14bde3ce6783764b1ea2c51fe755b3b53edb830dcb8f457d6c9a6d03b8536312",
    "food-chain.svg": "69aa7969d48913a9ae6d3cceef8c6b3ce78e02ddec65b761ffe2d3dc0fcaf2fe",
    "malware-epidemic.csv": "b8e10e6f954bed1df05cba73ceb05f9d7079a2e8e75bdfffeb15bbe48a3fdb67",
    "malware-epidemic.svg": "52c694c6204fb87398092b1a675e9282173b0592b6863a8a7fc53e30917fe159",
}


@pytest.mark.parametrize("name", ["food-chain", "malware-epidemic"])
def test_demo_outputs_pinned(name, tmp_path):
    csv, svg = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
    assert run_cli("demo", name, "--csv", str(csv), "--svg", str(svg), "--quiet") == 0
    for path in (csv, svg):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DEMO_OUTPUT_SHA256[path.name]
