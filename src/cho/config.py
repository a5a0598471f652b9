"""YAML run configuration: typed sections and presets.

A configuration file is the reproducibility unit: ``simulate`` and
``optimize`` copy it verbatim into the run's output directory (a preset
run gets its mapping in PRESETS).  Each section builds the types that
own its defaults and range checks: domain -> IntervalDomain (dim 1) or
RectangleDomain (dim 2), time -> TimeGrid, physics -> Physics,
potential -> Potential plus SolverOptions.eps_yosida, solver ->
SolverOptions, initial -> one of INITIAL_PRESETS, control -> Controls,
optimization -> CostSpec weights, Targets, BoxBounds arguments and
OptimizerOptions, output -> Output.

``RunConfig.from_dict`` converts each YAML value to the type of the field
it sets; an unknown key, a wrongly typed value or a value a constructor
rejects raises ConfigError naming it (exit 1).  The mesh, operators,
potentials and box are built lazily by the ``build_*`` methods, so data
failing a structural precondition (mean-value condition, infeasible box)
still raises ValidationError there (exit 2).
"""

import types
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from typing import ClassVar

import numpy as np
import yaml

from .control import BoxBounds, ControlPair, ControlProblem, CostSpec, OptimizerOptions
from .errors import ChoError, ConfigError
from .forward import Physics, Problem, SolverOptions, TimeGrid
from .mesh import build_interval, build_rectangle, check_interval, check_rectangle
from .output import CONTROL_TIMES, STATE_HEADER
from .potentials import (
    PotentialPair,
    custom_potential,
    logarithmic_potential,
    regular_potential,
)
from .spaces import PairField, assemble

# A constant, or the path of a CSV table (one row, or one row per slab or node).
Source = float | str


class _Finite:
    """Base of the sections whose numbers must all be finite; CSV paths pass."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class IntervalDomain:
    dim: ClassVar[int] = 1
    cells: int
    length: float

    def __post_init__(self):
        check_interval(self.cells, self.length)

    def build(self):
        return build_interval(self.cells, self.length)


@dataclass(frozen=True)
class RectangleDomain:
    dim: ClassVar[int] = 2
    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        check_rectangle(self.nx, self.ny, self.lx, self.ly)

    def build(self):
        return build_rectangle(self.nx, self.ny, self.lx, self.ly)


@dataclass(frozen=True)
class Potential:
    """Potential kind and coefficients; ``build`` makes the PotentialSpec."""

    kind: str = "regular"
    c1: float = 2.0
    beta_hat: tuple | None = None
    pi_hat: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("regular", "logarithmic", "custom"):
            raise ConfigError(f"unknown potential kind {self.kind!r}")
        if self.kind == "custom" and (self.beta_hat is None or self.pi_hat is None):
            raise ConfigError("custom potential needs beta_hat and pi_hat coefficients")

    def build(self):
        if self.kind == "logarithmic":
            return logarithmic_potential(self.c1)
        if self.kind == "custom":
            return custom_potential(self.beta_hat, self.pi_hat)
        return regular_potential()


@dataclass(frozen=True)
class ConstantInitial(_Finite):
    preset: ClassVar[str] = "constant"
    value: float = 0.0

    def values(self, mesh):
        return np.full(mesh.n_bulk, self.value)


@dataclass(frozen=True)
class TanhInitial(_Finite):
    preset: ClassVar[str] = "tanh-profile"
    amplitude: float = 0.5
    center: float = 0.5
    width: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if not self.width > 0:
            raise ConfigError(f"width must be positive, got {self.width}")

    def values(self, mesh):
        x = mesh.bulk_nodes[:, 0]
        return self.amplitude * np.tanh((x - self.center) / self.width)


@dataclass(frozen=True)
class RandomInitial(_Finite):
    preset: ClassVar[str] = "random-seeded"
    seed: int = 0
    amplitude: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    def values(self, mesh):
        rng = np.random.default_rng(self.seed)
        return rng.uniform(-self.amplitude, self.amplitude, mesh.n_bulk)


@dataclass(frozen=True)
class CsvInitial:
    preset: ClassVar[str] = "csv"
    path: str

    def values(self, mesh):
        return _table(self.path, 1, mesh.n_bulk, "initial.path")[0]


DOMAINS = {cls.dim: cls for cls in (IntervalDomain, RectangleDomain)}
INITIAL_PRESETS = {
    cls.preset: cls for cls in (ConstantInitial, TanhInitial, RandomInitial, CsvInitial)
}


@dataclass(frozen=True)
class Controls(_Finite):
    u: Source = 0.0
    uG: Source = 0.0


@dataclass(frozen=True)
class Targets(_Finite):
    phiQ: Source = 0.0
    phiS: Source = 0.0
    phiO: Source = 0.0
    phiG: Source = 0.0


@dataclass(frozen=True)
class Optimization(_Finite):
    cost: CostSpec          # the weights; build_control_problem adds the targets
    targets: Targets
    box: dict               # BoxBounds keyword arguments, checked when it is built
    optimizer: OptimizerOptions
    u0: float = 0.0

    @classmethod
    def from_dict(cls, opt) -> "Optimization":
        """alphas, m_prime and u0 are scalar keys; the rest are subsections."""
        _check_keys(opt, ("alphas", "m_prime", "u0", "targets", "box", "optimizer"),
                    "optimization.")
        sub = {name: _mapping(opt.get(name, {}), f"optimization.{name}")
               for name in ("targets", "box", "optimizer")}
        box = _kwargs(BoxBounds, sub["box"], "optimization.box", exclude=("M_prime",))
        if "m_prime" in opt:
            box["M_prime"] = _convert(opt["m_prime"], float, "optimization.m_prime")
        return _build(
            cls, _pick(opt, "u0"), "optimization",
            cost=_build(CostSpec, _pick(opt, "alphas"), "optimization",
                        exclude=("phiQ", "phiS", "phiO", "phiG")),
            targets=_build(Targets, {k: _target_form(v) for k, v in sub["targets"].items()},
                           "optimization.targets"),
            box=box,
            optimizer=_build(OptimizerOptions, sub["optimizer"], "optimization.optimizer"),
        )


@dataclass(frozen=True)
class Output:
    directory: str = "out"
    snapshot_stride: int = 0

    def __post_init__(self):
        if self.snapshot_stride < 0:
            raise ConfigError(f"snapshot_stride must be nonnegative, got {self.snapshot_stride}")


SECTIONS = ("run_name", "domain", "time", "physics", "potential", "solver",
            "initial", "control", "optimization", "output")


@dataclass(frozen=True)
class RunConfig:
    """A run configuration as typed values; see the module docstring."""

    domain: IntervalDomain | RectangleDomain
    time: TimeGrid
    physics: Physics
    potential: Potential = Potential()
    solver: SolverOptions = SolverOptions()
    initial: ConstantInitial | TanhInitial | RandomInitial | CsvInitial = ConstantInitial()
    control: Controls | None = None
    optimization: Optimization | None = None
    output: Output = Output()
    run_name: str = "run"

    @classmethod
    def from_dict(cls, raw) -> "RunConfig":
        _check_keys(_mapping(raw, "configuration root"), SECTIONS, "")
        sec = {name: dict(_mapping(raw.get(name, {}), name)) for name in SECTIONS[1:]}
        dim = _convert(sec["domain"].pop("dim", None), int, "domain.dim")
        if dim not in DOMAINS:
            raise ConfigError(f"domain.dim must be 1 or 2, got {dim}")
        preset = _convert(sec["initial"].pop("preset", "constant"), str, "initial.preset")
        if preset not in INITIAL_PRESETS:
            raise ConfigError(f"unknown initial-condition preset {preset!r}")
        physics = _build(Physics, sec["physics"], "physics")
        if not physics.gamma > 0:
            raise ConfigError("standing assumption violated: gamma must be positive")
        # eps_yosida is a potential key that SolverOptions owns.
        eps = _build(SolverOptions, _pick(sec["potential"], "eps_yosida"), "potential")
        sec["potential"].pop("eps_yosida", None)
        optional = {}
        if "control" in raw:
            optional["control"] = _build(Controls, sec["control"], "control")
        if "optimization" in raw:
            optional["optimization"] = Optimization.from_dict(sec["optimization"])
        if "run_name" in raw:
            optional["run_name"] = _convert(raw["run_name"], str, "run_name")
        return cls(
            domain=_build(DOMAINS[dim], sec["domain"], "domain"),
            time=_build(TimeGrid, sec["time"], "time", rename={"N": "steps"}),
            physics=physics,
            potential=_build(Potential, sec["potential"], "potential"),
            solver=_build(SolverOptions, sec["solver"], "solver",
                          exclude=("eps_yosida",), eps_yosida=eps.eps_yosida),
            initial=_build(INITIAL_PRESETS[preset], sec["initial"], "initial"),
            output=_build(Output, sec["output"], "output"),
            **optional,
        )

    # -- builders ----------------------------------------------------------

    def build_mesh(self):
        return self.domain.build()

    def build_pair(self) -> PotentialPair:
        return PotentialPair.same(self.potential.build())

    def build_options(self) -> SolverOptions:
        return self.solver

    def build_problem(self, ops=None) -> Problem:
        """The forward problem, on ``ops`` when given: operators assembled
        on this configuration's mesh."""
        if ops is None:
            ops = assemble(self.build_mesh())
        return Problem(ops, self.build_pair(), self.build_options(), self.physics, self.time)

    def build_initial(self, mesh) -> PairField:
        return PairField.from_bulk(mesh, self.initial.values(mesh))

    def build_controls(self, mesh, grid) -> ControlPair:
        if self.control is None:
            raise ConfigError("configuration has no [control] section")
        return ControlPair(
            _table(self.control.u, grid.N, mesh.n_bulk, "control.u"),
            _table(self.control.uG, grid.N, mesh.n_boundary, "control.uG"),
        )

    def build_control_problem(self, ops=None):
        opt = self.optimization
        if opt is None:
            raise ConfigError("configuration has no [optimization] section")
        problem = self.build_problem(ops)
        mesh, grid = problem.mesh, problem.grid
        t = opt.targets
        where = "optimization.targets."
        cost_spec = replace(
            opt.cost,
            phiQ=_table(t.phiQ, grid.N + 1, mesh.n_bulk, where + "phiQ"),
            phiS=_table(t.phiS, grid.N + 1, mesh.n_boundary, where + "phiS"),
            phiO=_table(t.phiO, 1, mesh.n_bulk, where + "phiO")[0],
            phiG=_table(t.phiG, 1, mesh.n_boundary, where + "phiG")[0],
        )
        cp = ControlProblem(problem, self.build_initial(mesh), cost_spec,
                            BoxBounds(**opt.box))
        return cp, ControlPair.constant(mesh, grid, opt.u0), opt.optimizer


# ---------------------------------------------------------------------------
# Conversion from YAML values
# ---------------------------------------------------------------------------

def _mapping(value, where):
    if not isinstance(value, dict):
        raise ConfigError(f"[{where}] must be a mapping, got {value!r}")
    return value


def _check_keys(section, known, where):
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key {where}{key}")


def _build(cls, section, where, rename=None, exclude=(), **fixed):
    """Dataclass ``cls`` from one YAML mapping, each value converted to its
    field's type; ``fixed`` fields come from elsewhere.  Whatever the
    constructor rejects becomes a ConfigError naming the section."""
    kwargs = _kwargs(cls, section, where, rename, exclude=(*exclude, *fixed))
    try:
        return cls(**kwargs, **fixed)
    except (ChoError, ValueError, TypeError) as err:
        raise ConfigError(f"{where}: {err}") from err


def _kwargs(cls, section, where, rename=None, exclude=()):
    """Keyword arguments of ``cls`` from a YAML mapping whose keys are its
    field names (or their ``rename``); ``exclude`` fields are not keys.
    Unknown and missing keys are errors; absent optional keys leave the
    field default in force."""
    rename = rename or {}
    by_key = {rename.get(f.name, f.name): f
              for f in fields(cls) if f.init and f.name not in exclude}
    _check_keys(section, by_key, f"{where}.")
    for key, f in by_key.items():
        if key not in section and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing key {where}.{key}")
    return {f.name: _convert(section[key], f.type, f"{where}.{key}")
            for key, f in by_key.items() if key in section}


def _convert(value, kind, where):
    """One YAML value as the type ``kind`` of the field it sets."""
    if kind == Source:
        return value if isinstance(value, str) else _convert(value, float, where)
    if isinstance(kind, types.UnionType):     # float | ndarray, tuple | None
        kind = kind.__args__[0]
    try:
        if kind is tuple:
            if not isinstance(value, list):
                raise TypeError(f"expected a list, got {value!r}")
            return tuple(_convert(v, float, where) for v in value)
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, float, str)):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        if kind is int and isinstance(value, float):
            if not value.is_integer():
                raise ValueError(f"expected an integer, got {value!r}")
            value = int(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"bad value for {where}: {err}") from err


def _target_form(value):
    """A target given as {csv: path} or null, as a path or zero."""
    if isinstance(value, dict) and list(value) == ["csv"] and isinstance(value["csv"], str):
        return value["csv"]
    return 0.0 if value is None else value


def _pick(section, *keys):
    return {k: section[k] for k in keys if k in section}


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def _table(source, n_rows, width, where):
    """A source as an (n_rows, width) array; a one-row CSV is repeated.
    A table written by ``output.write_control_csv`` is read without its
    header and its two time columns, and a snapshot written by
    ``output.write_state_csv`` as its phi column, one row."""
    if not isinstance(source, str):
        return np.full((n_rows, width), source)
    try:
        with open(source, encoding="utf-8", errors="replace") as fh:
            header = fh.readline()
    except OSError:
        header = ""  # np.loadtxt raises with its own message
    timed = header.startswith(CONTROL_TIMES)
    state = header.startswith(STATE_HEADER)
    try:
        with warnings.catch_warnings():
            # numpy warns on an empty file; its (0, 1) shape fails below.
            warnings.simplefilter("ignore", UserWarning)
            arr = np.loadtxt(source, delimiter=",", ndmin=2, skiprows=int(timed or state))
    except OSError as err:
        raise ConfigError(f"{where}: cannot read CSV {source}: {err}") from err
    except ValueError as err:
        raise ConfigError(f"{where}: cannot parse CSV {source}: {err}") from err
    if timed:
        arr = arr[:, 2:]
    if state:
        arr = arr[:, 1:2].T
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where}: CSV {source} has non-finite values")
    if arr.shape == (1, width):
        return np.repeat(arr, n_rows, axis=0)
    if arr.shape != (n_rows, width):
        raise ConfigError(
            f"{where}: CSV {source} has shape {arr.shape}, expected ({n_rows}, {width})"
        )
    return arr


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # libyaml's parser where PyYAML was built with it; both
            # loaders resolve tags with the same Python resolver.
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"cannot parse config {path}: {err}") from err
    return RunConfig.from_dict(raw or {})


# ---------------------------------------------------------------------------
# Shipped presets
# ---------------------------------------------------------------------------

PRESETS = {
    "default": {
        "run_name": "default",
        "domain": {"dim": 1, "cells": 32, "length": 1.0},
        "time": {"T": 0.5, "steps": 25},
        "physics": {"tau": 1.0, "gamma": 1.0},
        "potential": {"kind": "regular"},
        "initial": {"preset": "tanh-profile", "amplitude": 0.4, "center": 0.5, "width": 0.15},
        "control": {"u": 0.1, "uG": 0.05},
        "optimization": {
            "alphas": [1.0, 0.5, 1.0, 0.5, 0.5, 0.5],
            "targets": {"phiQ": 0.2, "phiS": 0.2, "phiO": 0.2, "phiG": 0.2},
            "box": {"u_min": -1.0, "u_max": 1.0, "uG_min": -1.0, "uG_max": 1.0},
            "optimizer": {"max_iter": 400, "tol": 1.0e-6},
        },
        "output": {"directory": "out", "snapshot_stride": 5},
    },
    "logarithmic": {
        "run_name": "logarithmic",
        "domain": {"dim": 1, "cells": 48, "length": 1.0},
        "time": {"T": 0.4, "steps": 20},
        "physics": {"tau": 1.0, "gamma": 1.0},
        "potential": {"kind": "logarithmic", "c1": 2.0},
        "initial": {"preset": "tanh-profile", "amplitude": 0.3, "center": 0.5, "width": 0.2},
        "control": {"u": 0.2, "uG": 0.1},
        "optimization": {
            "alphas": [1.0, 0.0, 1.0, 0.0, 0.5, 0.5],
            "targets": {"phiQ": 0.1, "phiS": 0.0, "phiO": 0.1, "phiG": 0.0},
            "box": {"u_min": -0.4, "u_max": 0.4, "uG_min": -0.4, "uG_max": 0.4},
            "optimizer": {"max_iter": 400, "tol": 1.0e-6},
        },
        "output": {"directory": "out", "snapshot_stride": 5},
    },
    "rectangle": {
        "run_name": "rectangle",
        "domain": {"dim": 2, "nx": 8, "ny": 8, "lx": 1.0, "ly": 1.0},
        "time": {"T": 0.25, "steps": 10},
        "physics": {"tau": 1.0, "gamma": 1.0},
        "potential": {"kind": "regular"},
        "initial": {"preset": "random-seeded", "seed": 3, "amplitude": 0.3},
        "control": {"u": 0.1, "uG": 0.05},
        "optimization": {
            "alphas": [1.0, 0.5, 1.0, 0.5, 0.5, 0.5],
            "targets": {"phiQ": 0.1, "phiS": 0.1, "phiO": 0.1, "phiG": 0.1},
            "box": {"u_min": -1.0, "u_max": 1.0, "uG_min": -1.0, "uG_max": 1.0},
            "optimizer": {"max_iter": 200, "tol": 1.0e-6},
        },
        "output": {"directory": "out", "snapshot_stride": 5},
    },
    "coarse": {
        "run_name": "coarse",
        "domain": {"dim": 1, "cells": 16, "length": 1.0},
        "time": {"T": 0.5, "steps": 8},
        "physics": {"tau": 1.0, "gamma": 1.0},
        "potential": {"kind": "regular"},
        "initial": {"preset": "constant", "value": 0.2},
        "control": {"u": 0.1, "uG": 0.1},
        "optimization": {
            "alphas": [1.0, 0.0, 1.0, 0.0, 0.5, 0.5],
            "targets": {"phiQ": 0.1, "phiS": 0.0, "phiO": 0.1, "phiG": 0.0},
            "box": {"u_min": -1.0, "u_max": 1.0, "uG_min": -1.0, "uG_max": 1.0},
            "optimizer": {"max_iter": 200, "tol": 1.0e-6},
        },
        "output": {"directory": "out", "snapshot_stride": 2},
    },
}


def preset_config(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return RunConfig.from_dict(PRESETS[name])
