"""Experiment configuration: loading, validation, and object building.

Configs are single JSON documents. Validation is strict: unknown keys
are rejected with their field path, required keys are reported by
path, and stochastic tasks must carry a seed. The goal is that a config
that validates always runs, and two textually identical configs always
produce identical results.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .beliefs import DEFAULT_GRID_POINTS, DEFAULT_SPAN_STDS, GridBelief, SimplexBelief, default_grid
from .costs import CostModel
from .infinite import GridFeatureBinning, SimplexBinning
from .quantizers import (
    enumerate_finite_partitions,
    enumerate_interval_candidates,
    quantizer_from_json,
)
from .sources import FiniteChain, LinearGaussianSource

__all__ = ["ConfigError", "TASKS", "load_config", "validate_config"]

TASKS = (
    "design",
    "rollout",
    "oracle-check",
    "discounted-vi",
    "schedule",
    "occupancy",
)

STOCHASTIC_TASKS = ("rollout", "occupancy")


class ConfigError(ValueError):
    """Invalid configuration; path names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path or "<root>"
        super().__init__(f"{self.path}: {message}")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("<file>", f"config file not found: {path}")
    except OSError as e:  # a directory, or a file that cannot be read
        raise ConfigError("<file>", f"cannot read config file {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        raise ConfigError("<file>", f"invalid JSON at line {e.lineno}: {e.msg}")
    except ValueError as e:  # an integer past Python's digit limit for str -> int
        raise ConfigError("<file>", f"unreadable JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# schema walking helpers


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(_join(path, key), "required key is missing")
    return cfg[key]


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_keys(cfg: dict, allowed, path: str):
    for key in cfg:
        if key not in allowed:
            raise ConfigError(_join(path, key), "unknown key")


def _as_int(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):  # json reads NaN, Infinity
        raise ConfigError(path, f"must be finite, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # json reads integers of any size
        raise ConfigError(
            path, f"an integer of {value.bit_length()} bits is past the float range"
        ) from None


def _as_str(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(path, f"must be one of {sorted(choices)}, got {value!r}")
    return value


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list, got {type(value).__name__}")
    return value


# ---------------------------------------------------------------------------
# section validators


def _validate_source(spec, path: str):
    spec = _as_dict(spec, path)
    kind = _as_str(_require(spec, "type", path), _join(path, "type"),
                   {"gaussian", "chain"})
    if kind == "gaussian":
        _check_keys(spec, {"type", "a", "noise_std", "init_mean", "init_std"}, path)
        _as_number(_require(spec, "a", path), _join(path, "a"))
        _as_number(_require(spec, "noise_std", path), _join(path, "noise_std"))
        for opt in ("init_mean", "init_std"):
            if opt in spec:
                _as_number(spec[opt], _join(path, opt))
    else:
        _check_keys(spec, {"type", "transition", "initial", "state_values"}, path)
        _as_list(_require(spec, "transition", path), _join(path, "transition"))
        _as_list(_require(spec, "initial", path), _join(path, "initial"))
        if "state_values" in spec:
            _as_list(spec["state_values"], _join(path, "state_values"))
    return spec


def _validate_cost(spec, path: str):
    spec = _as_dict(spec, path)
    kind = _as_str(_require(spec, "kind", path), _join(path, "kind"),
                   {"quadratic", "bounded_tabular"})
    if kind == "quadratic":
        _check_keys(spec, {"kind"}, path)
    else:
        _check_keys(spec, {"kind", "table"}, path)
        _as_list(_require(spec, "table", path), _join(path, "table"))
    return spec


# the explicit quantizer item type each source family can use
_ITEM_TYPES = {"gaussian": "interval", "chain": "finite_partition"}


def _validate_quantizer_item(item, path: str, source_kind: str):
    item = _as_dict(item, path)
    kind = _as_str(_require(item, "type", path), _join(path, "type"))
    expected = _ITEM_TYPES[source_kind]
    if kind != expected:
        raise ConfigError(
            _join(path, "type"),
            f"a {source_kind} source takes {expected!r} items, got {kind!r}",
        )
    if kind == "interval":
        _check_keys(item, {"type", "levels", "thresholds"}, path)
        thresholds = _as_list(_require(item, "thresholds", path), _join(path, "thresholds"))
        for i, t in enumerate(thresholds):
            _as_number(t, _join(path, f"thresholds[{i}]"))
        if "levels" in item:
            levels = _as_int(item["levels"], _join(path, "levels"), 1)
            if levels != len(thresholds) + 1:
                raise ConfigError(
                    _join(path, "levels"),
                    f"must be len(thresholds) + 1 = {len(thresholds) + 1}, got {levels}",
                )
    else:
        _check_keys(item, {"type", "levels", "assignment"}, path)
        assignment = _as_list(_require(item, "assignment", path), _join(path, "assignment"))
        for i, cell in enumerate(assignment):
            _as_int(cell, _join(path, f"assignment[{i}]"), 1)
        _as_int(_require(item, "levels", path), _join(path, "levels"), 1)


def _validate_quantizers(spec, path: str, source_kind: str):
    spec = _as_dict(spec, path)
    kind = _as_str(_require(spec, "type", path), _join(path, "type"),
                   {"intervals", "partitions", "explicit"})
    if kind == "intervals":
        _check_keys(spec, {"type", "levels", "lo", "hi", "steps"}, path)
        _as_int(_require(spec, "levels", path), _join(path, "levels"), 1)
        _as_number(_require(spec, "lo", path), _join(path, "lo"))
        _as_number(_require(spec, "hi", path), _join(path, "hi"))
        _as_int(_require(spec, "steps", path), _join(path, "steps"), 1)
    elif kind == "partitions":
        _check_keys(spec, {"type", "levels"}, path)
        _as_int(_require(spec, "levels", path), _join(path, "levels"), 1)
    else:
        _check_keys(spec, {"type", "items"}, path)
        items = _as_list(_require(spec, "items", path), _join(path, "items"))
        if not items:
            raise ConfigError(_join(path, "items"), "must be nonempty")
        for i, item in enumerate(items):
            _validate_quantizer_item(item, _join(path, f"items[{i}]"), source_kind)
    return spec


def _validate_initial_belief(spec, path: str):
    if isinstance(spec, str):
        if spec not in ("model", "invariant"):
            raise ConfigError(path, f"must be 'model', 'invariant', or an object, got {spec!r}")
        return spec
    spec = _as_dict(spec, path)
    if "probabilities" in spec:
        _check_keys(spec, {"probabilities"}, path)
        _as_list(spec["probabilities"], _join(path, "probabilities"))
    else:
        _check_keys(spec, {"mean", "std"}, path)
        _as_number(_require(spec, "mean", path), _join(path, "mean"))
        std = _as_number(_require(spec, "std", path), _join(path, "std"))
        if std <= 0:
            raise ConfigError(_join(path, "std"), f"must be > 0, got {std}")
    return spec


def _validate_binning(spec, path: str):
    spec = _as_dict(spec, path)
    kind = _as_str(_require(spec, "type", path), _join(path, "type"),
                   {"simplex", "grid_features"})
    if kind == "simplex":
        _check_keys(spec, {"type", "n_bins"}, path)
        if "n_bins" in spec:
            _as_int(spec["n_bins"], _join(path, "n_bins"), 2)
    else:
        _check_keys(spec, {"type", "n_mean", "n_std"}, path)
        for opt in ("n_mean", "n_std"):
            if opt in spec:
                _as_int(spec[opt], _join(path, opt), 2)
    return spec


def _validate_policy(spec, path: str):
    spec = _as_dict(spec, path)
    kind = _as_str(_require(spec, "type", path), _join(path, "type"),
                   {"greedy", "fixed", "tree_replay", "pieced", "randomized"})
    if kind == "greedy":
        _check_keys(spec, {"type"}, path)
    elif kind == "fixed":
        _check_keys(spec, {"type", "index"}, path)
        _as_int(_require(spec, "index", path), _join(path, "index"), 0)
    elif kind == "tree_replay":
        _check_keys(spec, {"type", "design_horizon"}, path)
        _as_int(_require(spec, "design_horizon", path),
                _join(path, "design_horizon"), 1)
    elif kind == "pieced":
        _check_keys(spec, {"type", "horizons", "k_max"}, path)
        horizons = _as_list(_require(spec, "horizons", path), _join(path, "horizons"))
        for i, T in enumerate(horizons):
            _as_int(T, _join(path, f"horizons[{i}]"), 1)
        _as_int(_require(spec, "k_max", path), _join(path, "k_max"), 1)
    else:
        _check_keys(spec, {"type", "table", "binning"}, path)
        _as_list(_require(spec, "table", path), _join(path, "table"))
        _validate_binning(_require(spec, "binning", path), _join(path, "binning"))
    return spec


_COMMON_KEYS = {"task", "output_dir", "seed"}
_MODEL_KEYS = {"source", "cost", "quantizers", "grid", "initial_belief"}

_TASK_KEYS = {
    "design": _COMMON_KEYS | _MODEL_KEYS | {"horizon", "node_budget"},
    "rollout": _COMMON_KEYS | _MODEL_KEYS | {"horizon", "n_paths", "policy"},
    "oracle-check": _COMMON_KEYS | {"horizon", "levels"},
    "discounted-vi": _COMMON_KEYS | _MODEL_KEYS
    | {"discount", "grid_points", "tol", "max_iter"},
    "schedule": _COMMON_KEYS | {"horizons", "k_max"},
    "occupancy": _COMMON_KEYS | _MODEL_KEYS | {"horizon", "policy", "binning"},
}

_NEEDS_MODEL = ("design", "rollout", "discounted-vi", "occupancy")


def validate_config(cfg: dict, task: str | None = None) -> dict:
    """Validate a config document and return it normalized.

    task, when given, is the CLI subcommand and must match the config's
    own task field if both are present. Normalization fills defaults
    (output_dir, cost, grid sizes) so the echo in results.json is
    self-contained.
    """
    cfg = dict(cfg)
    cfg_task = cfg.get("task")
    if cfg_task is not None:
        _as_str(cfg_task, "task", set(TASKS))
        if task is not None and cfg_task != task:
            raise ConfigError("task", f"config says {cfg_task!r} but the command line says {task!r}")
    elif task is None:
        raise ConfigError("task", "required key is missing")
    task = cfg_task or task
    cfg["task"] = task

    _check_keys(cfg, _TASK_KEYS[task], "")

    if "output_dir" in cfg:
        _as_str(cfg["output_dir"], "output_dir")
    else:
        cfg["output_dir"] = "."

    if "seed" in cfg:
        _as_int(cfg["seed"], "seed", 0)
    elif task in STOCHASTIC_TASKS:
        raise ConfigError("seed", f"required key is missing (task {task!r} is stochastic)")

    if task in _NEEDS_MODEL:
        cfg["source"] = _validate_source(_require(cfg, "source", ""), "source")
        cfg["cost"] = _validate_cost(cfg.get("cost", {"kind": "quadratic"}), "cost")
        cfg["quantizers"] = _validate_quantizers(
            _require(cfg, "quantizers", ""), "quantizers", cfg["source"]["type"]
        )
        if "grid" in cfg:
            grid = _as_dict(cfg["grid"], "grid")
            _check_keys(grid, {"n_points", "span_stds"}, "grid")
            if "n_points" in grid:
                _as_int(grid["n_points"], "grid.n_points", 16)
            if "span_stds" in grid and _as_number(grid["span_stds"], "grid.span_stds") <= 0:
                raise ConfigError("grid.span_stds", f"must be > 0, got {grid['span_stds']}")
        if "initial_belief" in cfg:
            cfg["initial_belief"] = _validate_initial_belief(
                cfg["initial_belief"], "initial_belief"
            )
        else:
            cfg["initial_belief"] = "model"

    if task == "design":
        _as_int(_require(cfg, "horizon", ""), "horizon", 1)
        if "node_budget" in cfg:
            _as_int(cfg["node_budget"], "node_budget", 1)
    elif task == "rollout":
        _as_int(_require(cfg, "horizon", ""), "horizon", 1)
        _as_int(_require(cfg, "n_paths", ""), "n_paths", 1)
        cfg["policy"] = _validate_policy(_require(cfg, "policy", ""), "policy")
    elif task == "oracle-check":
        if "horizon" in cfg:
            _as_int(cfg["horizon"], "horizon", 1)
            if cfg["horizon"] > 6:
                raise ConfigError("horizon", "oracle check is exhaustive; horizon must be <= 6")
        if "levels" in cfg:
            _as_int(cfg["levels"], "levels", 1)
            if cfg["levels"] > 3:
                raise ConfigError("levels", "oracle check is exhaustive; levels must be <= 3")
    elif task == "discounted-vi":
        discount = _as_number(_require(cfg, "discount", ""), "discount")
        if not 0.0 <= discount < 1.0:
            raise ConfigError("discount", f"must lie in [0, 1), got {discount}")
        if "grid_points" in cfg:
            _as_int(cfg["grid_points"], "grid_points", 2)
        else:
            cfg["grid_points"] = 201
        if "tol" in cfg:
            tol = _as_number(cfg["tol"], "tol")
            if tol <= 0:
                raise ConfigError("tol", f"must be > 0, got {tol}")
        else:
            cfg["tol"] = 1e-9
        if "max_iter" in cfg:
            _as_int(cfg["max_iter"], "max_iter", 1)
        else:
            cfg["max_iter"] = 1000
    elif task == "schedule":
        horizons = _as_list(_require(cfg, "horizons", ""), "horizons")
        for i, T in enumerate(horizons):
            _as_int(T, f"horizons[{i}]", 1)
        k_max = _as_int(_require(cfg, "k_max", ""), "k_max", 1)
        if len(horizons) < k_max + 1:
            raise ConfigError("horizons", f"need at least k_max + 1 = {k_max + 1} entries, got {len(horizons)}")
    elif task == "occupancy":
        _as_int(_require(cfg, "horizon", ""), "horizon", 1)
        cfg["policy"] = _validate_policy(_require(cfg, "policy", ""), "policy")
        cfg["binning"] = _validate_binning(_require(cfg, "binning", ""), "binning")

    return cfg


# ---------------------------------------------------------------------------
# object building (assumes a validated config)


def build_source(cfg: dict):
    spec = cfg["source"]
    fields = {key: value for key, value in spec.items() if key != "type"}
    if spec["type"] == "chain":
        for key, value in fields.items():
            try:
                fields[key] = np.asarray(value, dtype=float)
            except (TypeError, ValueError):
                raise ConfigError(f"source.{key}", "expected a numeric array") from None
    try:
        if spec["type"] == "gaussian":
            return LinearGaussianSource(**fields)
        return FiniteChain(**fields)
    except ValueError as e:
        # the sources' messages start with the name of the field at fault
        raise ConfigError(f"source.{str(e).split()[0]}", str(e)) from None


def build_cost(cfg: dict) -> CostModel:
    """The cost model; a tabular one is checked against the chain that
    build_source accepted."""
    spec, source = cfg["cost"], cfg["source"]
    if spec["kind"] == "quadratic":
        return CostModel.quadratic()
    if source["type"] != "chain":
        raise ConfigError("cost.kind", "bounded_tabular costs need a chain source")
    try:
        cost = CostModel.bounded_tabular(spec["table"])
    except ValueError as e:
        raise ConfigError("cost.table", str(e)) from None
    if len(cost.table) != len(source["transition"]):
        raise ConfigError("cost.table", f"needs one row per chain state, got {len(cost.table)}")
    return cost


def build_grid(cfg: dict, model):
    spec = cfg.get("grid", {})
    if abs(model.a) >= 1.0:
        raise ConfigError(
            "source.a", f"|a| = {abs(model.a)} >= 1: no stationary law for the grid to span"
        )
    if model.noise_std == 0.0:
        raise ConfigError("source.noise_std", "must be > 0 for the grid to span the source")
    return default_grid(
        model,
        n_points=spec.get("n_points", DEFAULT_GRID_POINTS),
        span_stds=spec.get("span_stds", DEFAULT_SPAN_STDS),
    )


def build_candidates(cfg: dict, model):
    spec = cfg["quantizers"]
    if spec["type"] == "intervals":
        if not isinstance(model, LinearGaussianSource):
            raise ConfigError("quantizers.type", "interval candidates need a gaussian source")
        try:
            return enumerate_interval_candidates(
                spec["levels"], spec["lo"], spec["hi"], spec["steps"]
            )
        except ValueError as e:
            raise ConfigError("quantizers", str(e)) from None
    if spec["type"] == "partitions":
        if not isinstance(model, FiniteChain):
            raise ConfigError("quantizers.type", "partition candidates need a chain source")
        return enumerate_finite_partitions(model.n_states, spec["levels"])
    candidates = []
    for i, item in enumerate(spec["items"]):
        path = f"quantizers.items[{i}]"
        try:
            quantizer = quantizer_from_json(item)
        except ValueError as e:
            raise ConfigError(path, str(e))
        if isinstance(model, FiniteChain) and quantizer.n_states != model.n_states:
            raise ConfigError(
                f"{path}.assignment",
                f"expected {model.n_states} entries, got {quantizer.n_states}",
            )
        candidates.append(quantizer)
    return candidates


def build_initial_belief(cfg: dict, model):
    spec = cfg["initial_belief"]
    chain = isinstance(model, FiniteChain)
    grid = None if chain else build_grid(cfg, model)
    if spec == "invariant":
        return model.invariant_distribution(grid)
    if spec == "model":
        try:
            return model.initial_belief(grid)
        except ValueError as e:  # a time-0 law so far off the grid that no mass lands on it
            raise ConfigError(
                "source.init_mean",
                f"N({model.init_mean}, {model.init_std}^2) puts no mass on the grid "
                f"[{grid.lo}, {grid.hi}]: {e}",
            ) from None
    if chain:
        if "probabilities" not in spec:
            raise ConfigError("initial_belief", "chain sources take 'probabilities'")
        probs = np.asarray(spec["probabilities"], dtype=float)
        if probs.shape != (model.n_states,):
            raise ConfigError(
                "initial_belief.probabilities",
                f"expected {model.n_states} entries, got {probs.shape}",
            )
        try:
            return SimplexBelief(probs, states=model.state_values)
        except ValueError as e:
            raise ConfigError("initial_belief.probabilities", str(e)) from None
    if "probabilities" in spec:
        raise ConfigError("initial_belief", "gaussian sources take {'mean', 'std'}")
    try:
        return GridBelief.normal(grid, spec["mean"], spec["std"])
    except ValueError as e:  # a law so far off the grid that no mass lands on it
        raise ConfigError("initial_belief", f"{e} on the grid [{grid.lo}, {grid.hi}]") from None


def build_binning(spec: dict, model, cfg: dict):
    if spec["type"] == "simplex":
        if not isinstance(model, FiniteChain):
            raise ConfigError("binning.type", "simplex binning needs a chain source")
        return SimplexBinning(spec.get("n_bins", 50))
    if not isinstance(model, LinearGaussianSource):
        raise ConfigError("binning.type", "grid_features binning needs a gaussian source")
    return GridFeatureBinning.for_grid(
        build_grid(cfg, model),
        n_mean=spec.get("n_mean", 50),
        n_std=spec.get("n_std", 20),
    )
