import json
import logging
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

import zdq.infinite
import zdq.sources
from zdq.cli import main
from zdq.config import ConfigError, validate_config


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


CHAIN3 = {
    "type": "chain",
    "transition": [[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]],
    "initial": [0.4, 0.3, 0.3],
    "state_values": [-1.0, 0.0, 1.0],
}
CHAIN2 = {
    "type": "chain",
    "transition": [[0.9, 0.1], [0.2, 0.8]],
    "initial": [0.5, 0.5],
}
AR1 = {"type": "gaussian", "a": 0.5, "noise_std": 1.0}


# ---------------------------------------------------------------------------
# validation


def test_validate_rejects_unknown_keys():
    with pytest.raises(ConfigError) as exc:
        validate_config({"task": "schedule", "horizons": [2, 4], "k_max": 1, "frobs": 1})
    assert "frobs" in str(exc.value)


def test_validate_requires_seed_for_stochastic():
    doc = {
        "task": "rollout",
        "source": CHAIN2,
        "quantizers": {"type": "partitions", "levels": 2},
        "horizon": 3,
        "n_paths": 10,
        "policy": {"type": "greedy"},
    }
    with pytest.raises(ConfigError) as exc:
        validate_config(doc)
    assert "seed" in str(exc.value)


def test_validate_task_mismatch():
    with pytest.raises(ConfigError):
        validate_config({"task": "schedule", "horizons": [2, 4], "k_max": 1}, task="design")


def test_validate_nested_paths_in_errors():
    doc = {
        "task": "design",
        "source": {"type": "gaussian", "a": 0.5},
        "quantizers": {"type": "intervals", "levels": 2, "lo": -1, "hi": 1, "steps": 5},
        "horizon": 1,
    }
    with pytest.raises(ConfigError) as exc:
        validate_config(doc)
    assert "source.noise_std" in str(exc.value)


def test_validate_discount_range():
    doc = {
        "task": "discounted-vi",
        "source": CHAIN2,
        "quantizers": {"type": "partitions", "levels": 2},
        "discount": 1.0,
    }
    with pytest.raises(ConfigError) as exc:
        validate_config(doc)
    assert "discount" in str(exc.value)


@pytest.mark.parametrize(
    "source, item, path",
    [
        (
            AR1,
            {"type": "hyperplane", "dim": 1, "levels": 2,
             "hyperplanes": [{"i": 1, "j": 2, "normal": [1.0], "offset": 0.0}]},
            "quantizers.items[0].type",
        ),
        (AR1, {"type": "voronoi", "levels": 2}, "quantizers.items[0].type"),
        (AR1, {"type": "finite_partition", "assignment": [1, 2], "levels": 2},
         "quantizers.items[0].type"),
        (CHAIN2, {"type": "interval", "thresholds": [0.0]}, "quantizers.items[0].type"),
        (AR1, {"type": "interval", "levels": 2}, "quantizers.items[0].thresholds"),
        (CHAIN2, {"type": "finite_partition", "assignment": [1, 2]},
         "quantizers.items[0].levels"),
        (AR1, {"type": "interval", "thresholds": [1.0, 0.0]}, "quantizers.items[0]"),
        (CHAIN2, {"type": "finite_partition", "assignment": [1, 2, 1], "levels": 2},
         "quantizers.items[0].assignment"),
        (AR1, {"type": "interval", "thresholds": [0.0], "levels": 3},
         "quantizers.items[0].levels"),
    ],
    ids=["hyperplane", "unknown-type", "partition-on-gaussian", "interval-on-chain",
         "missing-thresholds", "missing-levels", "bad-thresholds", "wrong-size",
         "wrong-interval-levels"],
)
def test_explicit_item_errors_exit_2(tmp_path, capsys, source, item, path):
    cfg = write_config(
        tmp_path,
        {
            "task": "design",
            "source": source,
            "quantizers": {"type": "explicit", "items": [item]},
            "horizon": 1,
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["design", "--config", cfg]) == 2
    assert f"config error: {path}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, quantizers",
    [
        (CHAIN3, {"type": "partitions", "levels": 2}),
        (AR1, {"type": "intervals", "levels": 3, "lo": -1, "hi": 1, "steps": 3}),
    ],
    ids=["finite-partition-items", "interval-items-with-levels"],
)
def test_explicit_items_design_as_their_enumeration(tmp_path, source, quantizers):
    # items holding an enumeration's to_json() dicts, in its order (an
    # interval's with its levels), give the enumeration's design
    doc = {"task": "design", "source": source, "quantizers": quantizers, "horizon": 2}
    items = [q.to_json() for q in validate_config(doc).candidates]
    trees = []
    for name, spec in (("enumerated", quantizers), ("explicit", {"type": "explicit", "items": items})):
        out = tmp_path / name
        cfg = write_config(tmp_path, dict(doc, quantizers=spec, output_dir=str(out)), f"{name}.json")
        assert main(["design", "--config", cfg]) == 0
        trees.append((out / "policy_tree.json").read_bytes())
    assert trees[0] == trees[1]


def test_configured_grid_reaches_invariant_belief_and_residual(tmp_path, monkeypatch):
    setup = validate_config(
        {
            "task": "occupancy",
            "seed": 3,
            "source": AR1,
            "quantizers": {"type": "intervals", "levels": 2, "lo": -2, "hi": 2, "steps": 5},
            "grid": {"n_points": 401},
            "initial_belief": "invariant",
            "horizon": 20,
            "policy": {"type": "greedy"},
            "binning": {"type": "grid_features"},
            "output_dir": str(tmp_path / "out"),
        }
    )
    belief = setup.initial_belief
    assert belief.grid.n_points == 401
    # every belief the rollout and invariance_residual filter is on that grid
    seen = set()
    original = zdq.infinite.filter_update

    def spy(belief, *args, **kwargs):
        seen.add(belief.grid.n_points)
        return original(belief, *args, **kwargs)

    monkeypatch.setattr(zdq.infinite, "filter_update", spy)
    cfg = write_config(tmp_path, setup.config)
    assert main(["occupancy", "--config", cfg]) == 0
    assert seen == {401}


def test_artifact_modes_follow_umask(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "task": "design",
            "source": CHAIN3,
            "quantizers": {"type": "partitions", "levels": 2},
            "horizon": 2,
            "output_dir": str(tmp_path / "out"),
        },
    )
    old = os.umask(0o027)
    try:
        assert main(["design", "--config", cfg]) == 0
    finally:
        os.umask(old)
    out = tmp_path / "out"
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert modes == {
        "results.json": 0o640, "policy_tree.json": 0o640, "policy_tree.csv": 0o640
    }


def test_validate_fills_defaults():
    doc = validate_config({"task": "schedule", "horizons": [2, 4], "k_max": 1}).config
    assert doc["output_dir"] == "."


# ---------------------------------------------------------------------------
# tasks end to end


def test_schedule_task(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "task": "schedule",
            "horizons": [2, 4, 8, 16],
            "k_max": 3,
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["schedule", "--config", cfg]) == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    assert results["n_reps"] == [1, 4, 6]
    assert results["boundaries"] == [2, 18, 66]
    lines = (tmp_path / "out" / "schedule.csv").read_text().splitlines()
    assert lines[0].startswith("k,horizon")
    assert len(lines) == 4
    # boundaries past the int64 range stay exact: 10 + 3 * T_2 > 2**63 - 1
    T2 = 3074457345618258602
    huge = {"task": "schedule", "horizons": [10, T2, T2 + 1], "k_max": 2,
            "output_dir": str(tmp_path / "huge")}
    assert main(["schedule", "--config", write_config(tmp_path, huge, "huge.json")]) == 0
    results = json.loads((tmp_path / "huge" / "results.json").read_text())
    assert results["n_reps"] == [1, 3]
    assert results["boundaries"] == [10, 10 + 3 * T2] and 10 + 3 * T2 > 2**63 - 1
    assert results["ratios"] == [10 / (3 * T2)]
    row = (tmp_path / "huge" / "schedule.csv").read_text().splitlines()[2]
    assert row.split(",")[4] == str(10 + 3 * T2)


def test_design_task(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "task": "design",
            "source": CHAIN3,
            "quantizers": {"type": "partitions", "levels": 2},
            "horizon": 3,
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["design", "--config", cfg]) == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    assert results["status"] == "ok"
    assert results["value"] > 0.0
    assert results["bellman_residual_max"] < 1e-9
    # four partitions at every expanded node, some of them pruned
    assert 0 < results["candidates_pruned"] < 4 * results["nodes_evaluated"]
    tree = json.loads((tmp_path / "out" / "policy_tree.json").read_text())
    assert tree["nodes"][tree["root"]]["t"] == 0
    # one row per tree node: t, node id, the quantizer (empty at leaves)
    # and the node value at full precision
    lines = (tmp_path / "out" / "policy_tree.csv").read_text().splitlines()
    assert lines[0] == "t,node,quantizer,value"
    assert len(lines) == len(tree["nodes"]) + 1
    for line, node in zip(lines[1:], tree["nodes"]):
        q = node["quantizer"]
        desc = "" if q is None else "assignment=" + "".join(map(str, q["assignment"]))
        assert line == f'{node["t"]},{node["id"]},{desc},{node["value"]!r}'


@pytest.mark.parametrize("task", ["design", "rollout"])
@pytest.mark.parametrize(
    "field, value, path",
    [
        ("transition", [[0.6, 0.5], [0.5, 0.5]], "source.transition"),
        ("transition", [[0.5, "x"], [0.5, 0.5]], "source.transition"),
        ("transition", [[1.0], [0.5, 0.5]], "source.transition"),
        ("transition", [[1.5, -0.5], [0.5, 0.5]], "source.transition"),
        ("initial", [0.7, 0.7], "source.initial"),
        ("initial", [1.0, 0.0, 0.0], "source.initial"),
        ("state_values", [0.0, 1.0, 2.0], "source.state_values"),
        ("state_values", [float("nan"), 1.0], "source.state_values"),
        ("state_values", [float("inf"), 1.0], "source.state_values"),
        ("belief", [0.5, 0.6], "initial_belief.probabilities"),
        ("belief", [float("nan"), 1.0], "initial_belief.probabilities"),
        ("cost", [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], "cost.table"),
    ],
    ids=["row-sum", "not-a-number", "ragged", "negative", "initial-sum",
         "initial-size", "state-values-size", "state-values-nan",
         "state-values-inf", "belief-sum", "belief-nan",
         "cost-table-rows"],
)
def test_bad_chain_exits_2_with_field_path(tmp_path, capsys, task, field, value, path):
    doc = {
        "task": task,
        "seed": 1,
        "source": CHAIN2 if field in ("belief", "cost") else dict(CHAIN2, **{field: value}),
        "initial_belief": {"probabilities": value} if field == "belief" else "model",
        "cost": {"kind": "bounded_tabular", "table": value} if field == "cost" else {"kind": "quadratic"},
        "quantizers": {"type": "partitions", "levels": 2},
        "horizon": 2,
        "output_dir": str(tmp_path / "out"),
    }
    if task == "rollout":
        doc.update(n_paths=10, policy={"type": "greedy"})
    else:
        del doc["seed"]
    assert main([task, "--config", write_config(tmp_path, doc)]) == 2
    assert f"config error: {path}:" in capsys.readouterr().err


# the base of each config section that a gaussian case changes
GAUSSIAN_SECTIONS = {
    "quantizers": {"type": "intervals", "levels": 2, "lo": -1, "hi": 1, "steps": 3},
    "initial_belief": {"mean": 0.0, "std": 0.1},
    "cost": {"table": [[0.0, 1.0], [1.0, 0.0]]},
    "grid": {},
}


@pytest.mark.parametrize(
    "field, value",
    [("noise_std", -1.0), ("init_std", -0.5), ("a", float("nan")), ("a", 1.0), ("a", -1.5),
     ("noise_std", 0.0), ("grid.span_stds", 0), ("quantizers.lo", float("nan")),
     ("initial_belief", {"mean": 1e6, "std": 0.1}), ("initial_belief.std", float("inf")),
     ("cost.kind", "bounded_tabular"), ("init_mean", 1e6),
     pytest.param("noise_std", 10**400, id="noise_std-401-digit-integer")],
)
def test_bad_gaussian_exits_2_with_field_path(tmp_path, capsys, field, value):
    doc = {
        "task": "design",
        "source": AR1,
        "quantizers": GAUSSIAN_SECTIONS["quantizers"],
        "horizon": 1,
        "output_dir": str(tmp_path / "out"),
    }
    section, _, key = field.rpartition(".")
    if section:  # one field of a section, set on the section's base
        doc[section] = dict(GAUSSIAN_SECTIONS[section], **{key: value})
    elif field in GAUSSIAN_SECTIONS:  # a whole section
        doc[field] = value
    else:
        doc["source"] = dict(AR1, **{field: value})
        field = f"source.{field}"
    assert main(["design", "--config", write_config(tmp_path, doc)]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


def test_randomized_table_with_nan_exits_2(tmp_path, capsys):
    # NaN passes both "< 0" and the row-sum check, so it is refused by name
    doc = {
        "task": "rollout",
        "seed": 1,
        "source": CHAIN2,
        "quantizers": {"type": "partitions", "levels": 2},
        "policy": {"type": "randomized", "binning": {"type": "simplex", "n_bins": 2},
                   "table": [[0.5, 0.5], [float("nan"), 1.0]]},
        "horizon": 2,
        "n_paths": 3,
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["rollout", "--config", write_config(tmp_path, doc)]) == 2
    assert "config error: policy.table: table entries must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.json").exists()


REDUCIBLE = {"type": "chain", "transition": [[1.0, 0.0], [0.0, 1.0]], "initial": [0.5, 0.5]}
PARTITIONS = {"type": "partitions", "levels": 2}


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"task": "discounted-vi", "source": CHAIN3, "quantizers": PARTITIONS, "discount": 0.9},
         "source.transition"),
        ({"task": "occupancy", "seed": 0, "source": CHAIN3, "quantizers": PARTITIONS,
          "policy": {"type": "greedy"}, "binning": {"type": "simplex"}, "horizon": 50},
         "binning.type"),
        ({"task": "rollout", "seed": 0, "source": CHAIN3, "quantizers": PARTITIONS,
          "policy": {"type": "randomized", "binning": {"type": "simplex", "n_bins": 2},
                     "table": [[0.25] * 4] * 2},
          "horizon": 3, "n_paths": 2},
         "policy.binning.type"),
        ({"task": "schedule", "horizons": [3, 2, 5, 7], "k_max": 2}, "horizons"),
        ({"task": "rollout", "seed": 0, "source": CHAIN3, "quantizers": PARTITIONS,
          "policy": {"type": "pieced", "horizons": [1, 2], "k_max": 2},
          "horizon": 3, "n_paths": 2},
         "policy.horizons"),
        ({"task": "design", "source": REDUCIBLE, "quantizers": PARTITIONS,
          "initial_belief": "invariant", "horizon": 2},
         "initial_belief"),
        ({"task": "rollout", "seed": 0, "source": AR1,
          "quantizers": {"type": "intervals", "levels": 2, "lo": -1, "hi": 1, "steps": 2},
          "policy": {"type": "randomized", "binning": {"type": "simplex", "n_bins": 2},
                     "table": [[0.5, 0.5]] * 2},
          "horizon": 3, "n_paths": 2},
         "policy.binning.type"),
    ],
    ids=["discounted-vi-3-states", "occupancy-simplex-3-states", "randomized-simplex-3-states",
         "schedule-decreasing", "pieced-too-few-horizons", "invariant-reducible",
         "randomized-simplex-gaussian"],
)
def test_library_checks_exit_2_before_any_output(tmp_path, capsys, doc, path):
    # checks that only the library makes still name the field at fault,
    # and the run stops before it makes its output directory
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(doc, output_dir=str(out)))
    assert main([doc["task"], "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}:" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_design_budget_exceeded(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "task": "design",
            "source": CHAIN3,
            "quantizers": {"type": "partitions", "levels": 2},
            "horizon": 3,
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["design", "--config", cfg, "--budget", "4"]) == 1
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    assert results["status"] == "budget_exceeded"
    assert results["greedy_upper_bound"] > 0.0
    assert 0.0 < results["lower_bound"] <= results["greedy_upper_bound"]


TREE_REPLAY = {"type": "tree_replay", "design_horizon": 2}
PIECED = {"type": "pieced", "horizons": [1, 2, 3], "k_max": 2}


@pytest.mark.parametrize(
    "task, policy, seed",
    [
        ("rollout", TREE_REPLAY, 0),
        ("rollout", TREE_REPLAY, 7),
        ("rollout", PIECED, 0),
        ("rollout", PIECED, 7),
        ("occupancy", TREE_REPLAY, 7),
    ],
)
def test_restart_belief_without_mass_exits_1_with_its_status(tmp_path, task, policy, seed):
    # the restart belief is a one-node spike at 0.5; once a path's state
    # has moved on, a block start puts it in a cell the spike gives no mass
    doc = {
        "task": task,
        "source": dict(AR1, init_mean=0.5, init_std=0.0),
        "quantizers": {"type": "intervals", "levels": 3, "lo": -2.0, "hi": 2.0, "steps": 4},
        "initial_belief": "model",
        "policy": policy,
        "horizon": 6,
        "seed": seed,
        "output_dir": str(tmp_path / "out"),
    }
    if task == "rollout":
        doc["n_paths"] = 20
    else:
        doc["binning"] = {"type": "grid_features"}
    assert main([task, "--config", write_config(tmp_path, doc)]) == 1
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    assert results["status"] == "zero_mass_symbol"
    assert re.fullmatch(
        r"step t=\d+: cell \d+ carries no mass; reconstruction undefined", results["error"]
    )
    assert sorted(os.listdir(tmp_path / "out")) == ["results.json"]


def test_oracle_check_task(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"task": "oracle-check", "output_dir": str(tmp_path / "out")}
    )
    assert main(["oracle-check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS, |dJ| = ")
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    assert results["abs_gap"] <= results["gap_tolerance"]


def test_rollout_task(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "task": "rollout",
            "seed": 42,
            "source": CHAIN3,
            "quantizers": {"type": "partitions", "levels": 2},
            "horizon": 3,
            "n_paths": 200,
            "policy": {"type": "tree_replay", "design_horizon": 3},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["rollout", "--config", cfg]) == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    assert results["status"] == "ok"
    assert results["stderr"] > 0.0
    header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x,symbol,u,stage_cost,belief_mean,belief_std,quantizer_id"


def test_rollout_missing_seed_exit_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "task": "rollout",
            "source": CHAIN3,
            "quantizers": {"type": "partitions", "levels": 2},
            "horizon": 3,
            "n_paths": 10,
            "policy": {"type": "greedy"},
        },
    )
    assert main(["rollout", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err


def test_unknown_key_exit_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"task": "schedule", "horizons": [2, 4], "k_max": 1, "n_path": 1},
    )
    assert main(["schedule", "--config", cfg]) == 2
    assert "n_path" in capsys.readouterr().err


def test_missing_config_exit_2(tmp_path, capsys):
    assert main(["design", "--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_config_directory_exits_2(tmp_path, capsys):
    assert main(["design", "--config", str(tmp_path)]) == 2
    assert "config error: <file>: cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("via", ["config", "--out"])
def test_output_dir_on_a_file_exits_2(tmp_path, capsys, via, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = str(blocker / "out" if under else blocker)
    doc = {"task": "schedule", "horizons": [2, 4], "k_max": 1}
    if via == "config":
        doc["output_dir"] = out
    argv = ["schedule", "--config", write_config(tmp_path, doc)]
    if via == "--out":
        argv += ["--out", out]
    assert main(argv) == 2
    assert "config error: output_dir: cannot create directory" in capsys.readouterr().err
    assert blocker.read_text() == ""


def test_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # json refuses integers of more than 4300 digits with a ValueError
    path = tmp_path / "config.json"
    path.write_text('{"task": "design", "horizon": 1' + "0" * 5000 + "}")
    assert main(["design", "--config", str(path)]) == 2
    assert "config error: <file>: unreadable JSON" in capsys.readouterr().err


def test_discounted_vi_task(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "task": "discounted-vi",
            "source": CHAIN2,
            "cost": {"kind": "bounded_tabular", "table": [[0.2, 1.0], [1.0, 0.1]]},
            "quantizers": {"type": "partitions", "levels": 2},
            "discount": 0.9,
            "grid_points": 101,
            "tol": 1e-6,
            "max_iter": 400,
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["discounted-vi", "--config", cfg]) == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    assert results["residual"] < 1e-6
    lines = (tmp_path / "out" / "value_function.csv").read_text().splitlines()
    assert len(lines) == 102  # header + grid points


DISCOUNTED_VI = {
    "task": "discounted-vi",
    "source": CHAIN2,
    "quantizers": {"type": "partitions", "levels": 2},
    "discount": 0.9,
    "grid_points": 51,
}


@pytest.mark.parametrize(
    "initial_belief", [{"probabilities": [0.5, 0.5]}, {"mean": 0.0, "std": 1.0}],
    ids=["probabilities", "mean-std"],
)
def test_discounted_vi_only_checks_its_initial_belief(tmp_path, initial_belief):
    # discounted-vi values every belief of its grid, so an initial_belief
    # object is checked, not built, and leaves the value function as it is
    tables = []
    for name, extra in (("default", {}), ("given", {"initial_belief": initial_belief})):
        out = tmp_path / name
        cfg = write_config(tmp_path, dict(DISCOUNTED_VI, output_dir=str(out), **extra), f"{name}.json")
        assert main(["discounted-vi", "--config", cfg]) == 0
        tables.append((out / "value_function.csv").read_bytes())
    assert tables[0] == tables[1]


def test_discounted_vi_rejects_a_zero_initial_std(tmp_path, capsys):
    doc = dict(DISCOUNTED_VI, initial_belief={"mean": 0.0, "std": 0.0},
               output_dir=str(tmp_path / "out"))
    assert main(["discounted-vi", "--config", write_config(tmp_path, doc)]) == 2
    assert "config error: initial_belief.std:" in capsys.readouterr().err


def test_occupancy_task(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "task": "occupancy",
            "seed": 13,
            "source": CHAIN2,
            "quantizers": {"type": "partitions", "levels": 2},
            "initial_belief": "invariant",
            "horizon": 3000,
            "policy": {"type": "fixed", "index": 1},
            "binning": {"type": "simplex", "n_bins": 50},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["occupancy", "--config", cfg]) == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    assert results["invariance_residual"] < 0.2
    hist = json.loads((tmp_path / "out" / "histogram.json").read_text())
    assert hist["steps"] == 3000


def test_seed_override_changes_results(tmp_path):
    doc = {
        "task": "rollout",
        "seed": 1,
        "source": CHAIN2,
        "quantizers": {"type": "partitions", "levels": 2},
        "horizon": 4,
        "n_paths": 50,
        "policy": {"type": "greedy"},
        "output_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, doc)
    assert main(["rollout", "--config", cfg]) == 0
    first = json.loads((tmp_path / "out" / "results.json").read_text())
    assert main(["rollout", "--config", cfg, "--seed", "2"]) == 0
    second = json.loads((tmp_path / "out" / "results.json").read_text())
    assert first["config"]["seed"] == 1
    assert second["config"]["seed"] == 2
    assert first["config_sha256"] != second["config_sha256"]


def test_results_are_reproducible(tmp_path):
    doc = {
        "task": "rollout",
        "seed": 5,
        "source": CHAIN2,
        "quantizers": {"type": "partitions", "levels": 2},
        "horizon": 4,
        "n_paths": 30,
        "policy": {"type": "greedy"},
        "output_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, doc)
    assert main(["rollout", "--config", cfg]) == 0
    first = (tmp_path / "out" / "results.json").read_bytes()
    assert main(["rollout", "--config", cfg]) == 0
    second = (tmp_path / "out" / "results.json").read_bytes()
    a = json.loads(first)
    b = json.loads(second)
    del a["timing"]
    del b["timing"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_log_level_reports_counters_and_leaves_results(tmp_path, capsys):
    doc = {
        "task": "rollout",
        "seed": 3,
        "source": CHAIN3,
        "quantizers": {"type": "partitions", "levels": 2},
        "horizon": 5,
        "n_paths": 40,
        "policy": {"type": "tree_replay", "design_horizon": 3},
        "output_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, doc)
    results = set()
    log = logging.getLogger("zdq")
    handlers, level_before = list(log.handlers), log.level
    # repeated in-process runs add no second handler: one INFO line each
    # for the counters and for each phase, whose seconds go under timing
    runs = ((None, 0), ("WARNING", 0), ("info", 1), ("DEBUG", 1), ("INFO", 1), ("ERROR", 0))
    for level, lines in runs:
        flag = [] if level is None else ["--log-level", level]
        assert main(["rollout", "--config", cfg, *flag]) == 0
        err = capsys.readouterr().err.splitlines()
        counters = [line for line in err if line.startswith("INFO zdq.infinite: rollout: 40 paths")]
        assert len(counters) == lines, (level, err)
        got = json.loads((tmp_path / "out" / "results.json").read_text())
        timing = got.pop("timing")
        for phase in ("build", "run", "write"):
            phase_lines = [line for line in err if line.startswith(f"INFO zdq.cli: {phase}: ")]
            assert len(phase_lines) == lines, (level, phase, err)
            assert 0.0 <= timing[f"{phase}_seconds"] <= timing["total_seconds"]
        results.add(json.dumps(got, sort_keys=True))
        # each run puts the zdq logger's handlers and level back
        assert (log.handlers, log.level) == (handlers, level_before)
    assert len(results) == 1


def test_cli_runs_without_scipy():
    # scipy is a test dependency only; a fresh interpreter that imports
    # the CLI, and so every module it uses, must not import it
    src = os.path.dirname(os.path.dirname(zdq.infinite.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, zdq.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _run_artifacts(out) -> tuple:
    """trajectory.csv bytes and results.json outside the fields that
    name the run's directory or time it."""
    results = json.loads((out / "results.json").read_text())
    for field in ("timing", "config_sha256"):
        del results[field]
    del results["config"]["output_dir"]
    return (out / "trajectory.csv").read_bytes(), results


@pytest.mark.parametrize("source", ["chain", "gaussian"])
def test_only_normal_draws_import_numpy_random(tmp_path, monkeypatch, source):
    # a chain rollout draws uniforms only, so a fresh interpreter that runs
    # one never imports numpy.random; a Gaussian rollout does, to draw its
    # normals, and writes what it writes when every path stream builds its
    # normal generator up front
    doc = {
        "task": "rollout",
        "seed": 5,
        "source": CHAIN3 if source == "chain" else AR1,
        "quantizers": (
            {"type": "partitions", "levels": 2}
            if source == "chain"
            else {"type": "intervals", "levels": 2, "lo": -1, "hi": 1, "steps": 5}
        ),
        "horizon": 20,
        "n_paths": 30,
        "policy": {"type": "greedy"},
        "output_dir": str(tmp_path / "fresh"),
    }
    cfg = write_config(tmp_path, doc)
    src = os.path.dirname(os.path.dirname(zdq.infinite.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, zdq.cli; code = zdq.cli.main(['rollout', '--config', sys.argv[1]]); "
        "print(code, 'numpy.random' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", code, cfg], env=env, capture_output=True, text=True)
    assert run.stdout.split() == ["0", str(source == "gaussian")], run.stderr
    built = zdq.sources._PathStreams.__init__

    def eager(self, *args):
        built(self, *args)
        self._generator = np.random.default_rng(0)

    monkeypatch.setattr(zdq.sources._PathStreams, "__init__", eager)
    assert main(["rollout", "--config", cfg, "--out", str(tmp_path / "eager")]) == 0
    assert _run_artifacts(tmp_path / "fresh") == _run_artifacts(tmp_path / "eager")


def test_bad_log_level_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"task": "schedule", "horizons": [2, 4], "k_max": 1})
    with pytest.raises(SystemExit) as exc:
        main(["schedule", "--config", cfg, "--log-level", "LOUD"])
    assert exc.value.code == 2
    assert "--log-level" in capsys.readouterr().err


DESIGN_AR1 = {
    "task": "design",
    "source": AR1,
    "quantizers": {"type": "intervals", "levels": 2, "lo": -2.0, "hi": 2.0, "steps": 11},
    "initial_belief": "invariant",
    "horizon": 3,
}


def test_design_counters_repeat_and_add_up(tmp_path, capsys):
    # deterministic counters outside timing: equal on a rerun and at
    # DEBUG, whose diagnostics change no artifact
    cfg = write_config(tmp_path, dict(DESIGN_AR1, output_dir=str(tmp_path / "out")))
    runs = []
    for flag in ([], [], ["--log-level", "DEBUG"]):
        assert main(["design", "--config", cfg, *flag]) == 0
        runs.append({name: (tmp_path / "out" / name).read_bytes() for name in ("policy_tree.json", "policy_tree.csv")})
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        del results["timing"]
        runs[-1]["results.json"] = results
    assert "DEBUG zdq" in capsys.readouterr().err
    assert runs[0] == runs[1] == runs[2]
    results = runs[0]["results.json"]
    counters = results["counters"]
    assert set(counters) == {
        "expansions_by_stage", "pruned_by_floor", "pruned_by_product", "mirror_twins",
        "memo_hits", "filter_calls", "branches_dropped", "lower_bound",
    }
    assert counters["pruned_by_floor"] + counters["pruned_by_product"] == results["candidates_pruned"]
    assert sum(counters["expansions_by_stage"]) == results["nodes_evaluated"]
    assert counters["expansions_by_stage"] == results["expansions_by_stage"]
    assert counters["mirror_twins"] > 0
    assert 0.0 < counters["lower_bound"] <= results["value"]


def test_a_second_task_finds_its_objects_by_identity(tmp_path, monkeypatch):
    # equal configs get the same source, grid and candidate set, so the
    # per-grid caches of a second in-process task compare nothing field
    # by field, and the task writes the same artifacts
    from zdq.beliefs import Grid, _cell_weights, _cut_weights
    from zdq.quantizers import IntervalQuantizer
    from zdq.sources import LinearGaussianSource, _kernel_cut_moments, _transition_kernel

    # earlier tests leave equal but distinct grids in the per-grid
    # caches, which a lookup would compare field by field
    for cache in (_cut_weights, _cell_weights, _transition_kernel, _kernel_cut_moments):
        cache.cache_clear()
    doc = json.loads(open(os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads",
                                       "occupancy-ar1.json")).read())
    doc["horizon"] = 60
    cfg = write_config(tmp_path, doc)
    outs = []
    for run in range(2):
        out = tmp_path / f"out{run}"
        calls = []
        for cls in (Grid, IntervalQuantizer, LinearGaussianSource):
            equal = cls.__eq__
            monkeypatch.setattr(cls, "__eq__", lambda a, b, equal=equal: calls.append(a) or equal(a, b))
        assert main(["occupancy", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
        monkeypatch.undo()
        outs.append((out / "histogram.json").read_bytes())
        results = json.loads((out / "results.json").read_text())
        for key in ("timing", "config_sha256"):
            del results[key]
        del results["config"]["output_dir"]
        outs.append(results)
    assert calls == []
    assert outs[0] == outs[2] and outs[1] == outs[3]
