"""Experiment configuration: loading, and parsing into what a task runs.

Configs are single JSON documents. Each section is parsed once, by one
function that checks its keys and types, builds the object it describes
and reports any error of that build at the section's field path.
Unknown keys are rejected with their field path, required keys are
reported by path, and stochastic tasks must carry a seed. So every
config mistake, a source that does not fit its task included, is a
ConfigError before a task writes anything. The goal is that a config
that validates always runs, and two textually identical configs always
produce identical results.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .beliefs import Grid, GridBelief, SimplexBelief, default_grid
from .costs import CostModel
from .dp import solve_finite_horizon
from .infinite import (
    FixedQuantizerPolicy,
    GreedyPolicy,
    GridFeatureBinning,
    PiecedPolicy,
    RandomizedStationaryPolicy,
    SimplexBinning,
    TreeReplayPolicy,
    piecing_schedule,
    simplex_belief_grid,
)
from .quantizers import (
    CandidateSet,
    FinitePartition,
    IntervalQuantizer,
    enumerate_finite_partitions,
    enumerate_interval_candidates,
)
from .sources import FiniteChain, LinearGaussianSource

__all__ = ["ConfigError", "Setup", "TASKS", "load_config", "validate_config"]

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


def _as_array(value, path: str) -> np.ndarray:
    value = _as_list(value, path)
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(path, "expected a numeric array") from None


@functools.lru_cache(maxsize=32)
def _built(make, fields: tuple):
    return make(**dict(fields))


def _shared(make, **fields):
    """make(**fields), one object for all configs with equal fields: the
    package's caches keyed by sources, grids and candidate sets (the
    transition kernel, the cut and cell weights) then find a later
    task's objects by identity, not field by field. Fields that cannot
    be hashed, such as a chain's arrays, build a new object each time."""
    try:
        return _built(make, tuple(fields.items()))
    except TypeError:
        return make(**fields)


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), with its ValueError reported at path."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(path, str(e)) from None


# ---------------------------------------------------------------------------
# sections: each checks its keys and types and builds what it describes


@dataclass
class Setup:
    """A parsed config: its normalized echo and what its task runs with.

    Fields the task does not use stay None. policy() builds the rollout
    policy; tree policies solve their designs only when it is called.
    """

    config: dict
    source: object = None
    cost: CostModel | None = None
    candidates: CandidateSet | None = None
    initial_belief: object = None
    binning: object = None
    schedule: object = None
    belief_grid: list | None = None
    policy: object = None


# per source type: class, required and optional fields, and their check
_SOURCES = {
    "gaussian": (LinearGaussianSource, ("a", "noise_std"), ("init_mean", "init_std"), _as_number),
    "chain": (FiniteChain, ("transition", "initial"), ("state_values",), _as_array),
}


def _source(spec, path: str):
    spec = _as_dict(spec, path)
    kind = _as_str(_require(spec, "type", path), _join(path, "type"), set(_SOURCES))
    family, required, optional, check = _SOURCES[kind]
    _check_keys(spec, {"type", *required, *optional}, path)
    fields = {key: check(_require(spec, key, path), _join(path, key)) for key in required}
    fields.update((key, check(spec[key], _join(path, key))) for key in optional if key in spec)
    try:
        return _shared(family, **fields)
    except ValueError as e:
        # the sources' messages start with the name of the field at fault
        raise ConfigError(_join(path, str(e).split()[0]), str(e)) from None


def _cost(spec, path: str, source) -> CostModel:
    spec = _as_dict(spec, path)
    kind = _as_str(_require(spec, "kind", path), _join(path, "kind"),
                   {"quadratic", "bounded_tabular"})
    if kind == "quadratic":
        _check_keys(spec, {"kind"}, path)
        return CostModel.quadratic()
    _check_keys(spec, {"kind", "table"}, path)
    table = _as_list(_require(spec, "table", path), _join(path, "table"))
    if not isinstance(source, FiniteChain):
        raise ConfigError(_join(path, "kind"), "bounded_tabular costs need a chain source")
    cost = _build(_join(path, "table"), CostModel.bounded_tabular, table)
    if len(cost.table) != source.n_states:
        raise ConfigError(_join(path, "table"), f"needs one row per chain state, got {len(cost.table)}")
    return cost


def _quantizer(item, path: str, source):
    """One explicit candidate: an interval item for a gaussian source, a
    finite_partition item for a chain."""
    item = _as_dict(item, path)
    kind = _as_str(_require(item, "type", path), _join(path, "type"))
    chain = isinstance(source, FiniteChain)
    expected = "finite_partition" if chain else "interval"
    if kind != expected:
        raise ConfigError(
            _join(path, "type"),
            f"a {'chain' if chain else 'gaussian'} source takes {expected!r} items, got {kind!r}",
        )
    if chain:
        _check_keys(item, {"type", "levels", "assignment"}, path)
        assignment = _as_list(_require(item, "assignment", path), _join(path, "assignment"))
        for i, cell in enumerate(assignment):
            _as_int(cell, _join(path, f"assignment[{i}]"), 1)
        levels = _as_int(_require(item, "levels", path), _join(path, "levels"), 1)
        quantizer = _build(path, FinitePartition, tuple(assignment), levels)
        if quantizer.n_states != source.n_states:
            raise ConfigError(
                _join(path, "assignment"),
                f"expected {source.n_states} entries, got {quantizer.n_states}",
            )
        return quantizer
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
    return _build(path, IntervalQuantizer, tuple(thresholds))


def _candidates(spec, path: str, source) -> CandidateSet:
    spec = _as_dict(spec, path)
    kind = _as_str(_require(spec, "type", path), _join(path, "type"),
                   {"intervals", "partitions", "explicit"})
    chain = isinstance(source, FiniteChain)
    if kind == "intervals":
        _check_keys(spec, {"type", "levels", "lo", "hi", "steps"}, path)
        levels = _as_int(_require(spec, "levels", path), _join(path, "levels"), 1)
        lo = _as_number(_require(spec, "lo", path), _join(path, "lo"))
        hi = _as_number(_require(spec, "hi", path), _join(path, "hi"))
        steps = _as_int(_require(spec, "steps", path), _join(path, "steps"), 1)
        if chain:
            raise ConfigError(_join(path, "type"), "interval candidates need a gaussian source")
        return _build(path, _shared, enumerate_interval_candidates, levels=levels, lo=lo, hi=hi, steps=steps)
    if kind == "partitions":
        _check_keys(spec, {"type", "levels"}, path)
        levels = _as_int(_require(spec, "levels", path), _join(path, "levels"), 1)
        if not chain:
            raise ConfigError(_join(path, "type"), "partition candidates need a chain source")
        return _shared(enumerate_finite_partitions, n_states=source.n_states, levels=levels)
    _check_keys(spec, {"type", "items"}, path)
    items = _as_list(_require(spec, "items", path), _join(path, "items"))
    if not items:
        raise ConfigError(_join(path, "items"), "must be nonempty")
    return CandidateSet(
        _quantizer(item, _join(path, f"items[{i}]"), source) for i, item in enumerate(items)
    )


def _grid(spec, path: str, source):
    """The grid of a gaussian source's beliefs; None for a chain."""
    spec = _as_dict(spec, path)
    _check_keys(spec, {"n_points", "span_stds"}, path)
    if "n_points" in spec:
        _as_int(spec["n_points"], _join(path, "n_points"), 16)
    if "span_stds" in spec and _as_number(spec["span_stds"], _join(path, "span_stds")) <= 0:
        raise ConfigError(_join(path, "span_stds"), f"must be > 0, got {spec['span_stds']}")
    if isinstance(source, FiniteChain):
        return None
    if abs(source.a) >= 1.0:
        raise ConfigError(
            "source.a", f"|a| = {abs(source.a)} >= 1: no stationary law for the grid to span"
        )
    if source.noise_std == 0.0:
        raise ConfigError("source.noise_std", "must be > 0 for the grid to span the source")
    grid = default_grid(source, **spec)
    return _shared(Grid, lo=grid.lo, hi=grid.hi, n_points=grid.n_points)


def _initial_belief(spec, path: str, source, grid):
    """The time-0 belief. With source None the section is only checked:
    discounted-vi values every belief of its grid instead."""
    if isinstance(spec, str):
        if spec not in ("model", "invariant"):
            raise ConfigError(path, f"must be 'model', 'invariant', or an object, got {spec!r}")
        if source is None:
            return None
        if spec == "invariant":
            return _build(path, source.invariant_distribution, grid)
        try:
            return source.initial_belief(grid)
        except ValueError as e:  # a time-0 law so far off the grid that no mass lands on it
            raise ConfigError(
                "source.init_mean",
                f"N({source.init_mean}, {source.init_std}^2) puts no mass on the grid "
                f"[{grid.lo}, {grid.hi}]: {e}",
            ) from None
    spec = _as_dict(spec, path)
    if "probabilities" in spec:
        _check_keys(spec, {"probabilities"}, path)
        probs_path = _join(path, "probabilities")
        _as_list(spec["probabilities"], probs_path)
        if source is None:
            return None
        if not isinstance(source, FiniteChain):
            raise ConfigError(path, "gaussian sources take {'mean', 'std'}")
        probs = _as_array(spec["probabilities"], probs_path)
        if probs.shape != (source.n_states,):
            raise ConfigError(probs_path, f"expected {source.n_states} entries, got {probs.shape}")
        return _build(probs_path, SimplexBelief, probs, states=source.state_values)
    _check_keys(spec, {"mean", "std"}, path)
    mean = _as_number(_require(spec, "mean", path), _join(path, "mean"))
    std = _as_number(_require(spec, "std", path), _join(path, "std"))
    if std <= 0:
        raise ConfigError(_join(path, "std"), f"must be > 0, got {std}")
    if source is None:
        return None
    if isinstance(source, FiniteChain):
        raise ConfigError(path, "chain sources take 'probabilities'")
    try:
        return GridBelief.normal(grid, mean, std)
    except ValueError as e:  # a law so far off the grid that no mass lands on it
        raise ConfigError(path, f"{e} on the grid [{grid.lo}, {grid.hi}]") from None


def _binning(spec, path: str, source, grid):
    spec = _as_dict(spec, path)
    kind = _as_str(_require(spec, "type", path), _join(path, "type"),
                   {"simplex", "grid_features"})
    if kind == "simplex":
        _check_keys(spec, {"type", "n_bins"}, path)
        if not (isinstance(source, FiniteChain) and source.n_states == 2):
            raise ConfigError(_join(path, "type"), "simplex binning needs a 2-state chain source")
        make = SimplexBinning
    else:
        _check_keys(spec, {"type", "n_mean", "n_std"}, path)
        if not isinstance(source, LinearGaussianSource):
            raise ConfigError(_join(path, "type"), "grid_features binning needs a gaussian source")
        make = functools.partial(GridFeatureBinning, grid)
    return make(**{
        key: _as_int(value, _join(path, key), 2) for key, value in spec.items() if key != "type"
    })


def _schedule(spec: dict, path: str):
    """The piecing schedule of spec's horizons and k_max."""
    horizons = _as_list(_require(spec, "horizons", path), _join(path, "horizons"))
    for i, T in enumerate(horizons):
        _as_int(T, _join(path, f"horizons[{i}]"), 1)
    k_max = _as_int(_require(spec, "k_max", path), _join(path, "k_max"), 1)
    return _build(_join(path, "horizons"), piecing_schedule, horizons, k_max)


def _policy(spec, path: str, setup: Setup, grid):
    """A function that returns the rollout policy the section describes.
    Everything else is built now; tree policies solve their designs when
    the function is called."""
    spec = _as_dict(spec, path)
    kind = _as_str(_require(spec, "type", path), _join(path, "type"),
                   {"greedy", "fixed", "tree_replay", "pieced", "randomized"})
    candidates = setup.candidates

    def tree(horizon):
        return solve_finite_horizon(
            setup.initial_belief, setup.source, candidates, setup.cost, horizon
        ).tree

    if kind == "greedy":
        _check_keys(spec, {"type"}, path)
        policy = GreedyPolicy(candidates)
    elif kind == "fixed":
        _check_keys(spec, {"type", "index"}, path)
        index = _as_int(_require(spec, "index", path), _join(path, "index"), 0)
        if index >= len(candidates):
            raise ConfigError(
                _join(path, "index"),
                f"only {len(candidates)} candidates are enumerated, got index {index}",
            )
        policy = FixedQuantizerPolicy(candidates[index])
    elif kind == "tree_replay":
        _check_keys(spec, {"type", "design_horizon"}, path)
        horizon = _as_int(_require(spec, "design_horizon", path), _join(path, "design_horizon"), 1)
        return lambda: TreeReplayPolicy(tree(horizon))
    elif kind == "pieced":
        _check_keys(spec, {"type", "horizons", "k_max"}, path)
        schedule = _schedule(spec, path)
        return lambda: PiecedPolicy(schedule, [tree(T) for T in schedule.horizons])
    else:
        _check_keys(spec, {"type", "table", "binning"}, path)
        table = _as_list(_require(spec, "table", path), _join(path, "table"))
        binning = _binning(_require(spec, "binning", path), _join(path, "binning"), setup.source, grid)
        policy = _build(_join(path, "table"), RandomizedStationaryPolicy, binning, table, candidates)
    return lambda: policy


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


def validate_config(cfg: dict, task: str | None = None) -> Setup:
    """Parse a config document into what its task runs with.

    task, when given, is the CLI subcommand and must match the config's
    own task field if both are present. The Setup's config is the
    document normalized: defaults (output_dir, cost, initial_belief, and
    discounted-vi's grid_points, tol and max_iter) are filled in, so the
    echo in results.json is self-contained.
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

    _as_str(cfg.setdefault("output_dir", "."), "output_dir")

    if "seed" in cfg:
        _as_int(cfg["seed"], "seed", 0)
    elif task in STOCHASTIC_TASKS:
        raise ConfigError("seed", f"required key is missing (task {task!r} is stochastic)")

    setup = Setup(cfg)
    if task in _NEEDS_MODEL:
        setup.source = source = _source(_require(cfg, "source", ""), "source")
        if task == "discounted-vi" and not isinstance(source, FiniteChain):
            raise ConfigError("source.type", "discounted-vi runs on chain sources")
        cfg.setdefault("cost", {"kind": "quadratic"})
        setup.cost = _cost(cfg["cost"], "cost", source)
        setup.candidates = _candidates(_require(cfg, "quantizers", ""), "quantizers", source)
        grid = _grid(cfg.get("grid", {}), "grid", source)
        cfg.setdefault("initial_belief", "model")
        setup.initial_belief = _initial_belief(
            cfg["initial_belief"], "initial_belief",
            None if task == "discounted-vi" else source, grid,
        )

    if task == "design":
        _as_int(_require(cfg, "horizon", ""), "horizon", 1)
        if "node_budget" in cfg:
            _as_int(cfg["node_budget"], "node_budget", 1)
    elif task == "rollout":
        _as_int(_require(cfg, "horizon", ""), "horizon", 1)
        _as_int(_require(cfg, "n_paths", ""), "n_paths", 1)
        setup.policy = _policy(_require(cfg, "policy", ""), "policy", setup, grid)
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
        _as_int(cfg.setdefault("grid_points", 201), "grid_points", 2)
        tol = _as_number(cfg.setdefault("tol", 1e-9), "tol")
        if tol <= 0:
            raise ConfigError("tol", f"must be > 0, got {tol}")
        _as_int(cfg.setdefault("max_iter", 1000), "max_iter", 1)
        # belief grids span the simplex of a 2-state chain only
        setup.belief_grid = _build(
            "source.transition", simplex_belief_grid, source, cfg["grid_points"]
        )
    elif task == "schedule":
        setup.schedule = _schedule(cfg, "")
    elif task == "occupancy":
        _as_int(_require(cfg, "horizon", ""), "horizon", 1)
        setup.policy = _policy(_require(cfg, "policy", ""), "policy", setup, grid)
        setup.binning = _binning(_require(cfg, "binning", ""), "binning", source, grid)

    return setup
