"""Command line interface.

    cho simulate -c config.yaml     forward run, time series + snapshots
    cho optimize -c config.yaml     projected gradient descent run
    cho verify   -c config.yaml     full invariant suite (or --all-presets)

Exit codes: 0 success, 1 malformed command line or configuration
(unknown key, bad type or range, a non-finite number other than a box
bound or m_prime, unreadable or non-finite CSV, a size that does not fit
in memory) or violated standing assumption, 2 data validation failure
(mean-value condition, infeasible box), 3 solver failure, including a
potential evaluated outside its domain.  Memory that runs out while the
results are written leaves the output directory partly written.
"""

import argparse
import errno
import os
import shutil
import sys

import yaml

from .config import PRESETS, load_config, preset_config
from .control import projected_gradient
from .errors import ConfigError, PotentialDomainError, SolverError, ValidationError
from .forward import solve
from .output import (
    write_adjoint_norms_csv,
    write_control_csv,
    write_history_csv,
    write_series_csv,
    write_snapshots,
    write_taylor_csv,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _outdir(cfg):
    """The run's output directory, not created yet.  Raises ``ConfigError``
    when the nearest existing path on the way to it is not a directory,
    so that a run reports it before any work."""
    path = os.path.join(cfg.output.directory, cfg.run_name)
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(
            f"output.directory: cannot create {path}: {os.strerror(errno.ENOTDIR)}")
    return path


def _create(outdir):
    """Create the output directory once the run has succeeded."""
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"output.directory: cannot create {outdir}: {err.strerror}") from err


def _prepare_outdir(outdir, args):
    """Create the run's output directory with its config.yaml: a verbatim
    copy of the -c file, unless it is that file, or the --preset mapping,
    which loads back to the run's configuration."""
    _create(outdir)
    target = os.path.join(outdir, "config.yaml")
    if args.config is not None:
        if not (os.path.exists(target) and os.path.samefile(args.config, target)):
            shutil.copy(args.config, target)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            yaml.safe_dump(PRESETS[args.preset], fh, sort_keys=False)


def cmd_simulate(cfg, args) -> int:
    outdir = _outdir(cfg)
    problem = cfg.build_problem()
    mesh, grid = problem.mesh, problem.grid
    phi0 = cfg.build_initial(mesh)
    controls = cfg.build_controls(mesh, grid)
    traj = solve(problem, phi0, controls)
    _prepare_outdir(outdir, args)
    series = write_series_csv(
        os.path.join(outdir, "series_0.csv"), problem, traj, controls
    )
    snapshots = write_snapshots(outdir, mesh, traj, cfg.output.snapshot_stride)
    print(mesh.summary())
    print(f"simulated {grid.N} steps to T = {grid.T:g}")
    print(f"wrote {series} and {len(snapshots)} snapshots")
    return EXIT_OK


def cmd_optimize(cfg, args) -> int:
    outdir = _outdir(cfg)
    cp, u0, pg_opts = cfg.build_control_problem()
    result = projected_gradient(cp, u0, pg_opts)
    # Solve the terminal adjoint pair, which adjoint_norms_0.csv reports,
    # before anything is written.
    result.adjoint.terminal()
    _prepare_outdir(outdir, args)
    history = write_history_csv(os.path.join(outdir, "history_0.csv"), result.history)
    write_control_csv(outdir, cp.problem.grid, result.u)
    write_series_csv(
        os.path.join(outdir, "series_0.csv"), cp.problem, result.trajectory, result.u
    )
    write_snapshots(outdir, cp.problem.mesh, result.trajectory,
                    cfg.output.snapshot_stride)
    write_adjoint_norms_csv(
        os.path.join(outdir, "adjoint_norms_0.csv"), cp.problem.ops,
        cp.problem.grid, result.adjoint,
    )
    last = result.history[-1]
    reason = ("" if result.converged
              else " (stalled: the Armijo decrease is below the noise in J)" if result.stalled
              else " (iteration budget exhausted)")
    print(cp.problem.mesh.summary())
    print(
        f"optimizer finished after {last.iteration} iterations: "
        f"J = {last.J:.6e}, vi residual = {last.vi_residual:.3e}{reason}"
    )
    print(f"wrote {history}")
    return EXIT_OK


def cmd_verify(cfg, label) -> int:
    outdir = _outdir(cfg)
    results = run_suite(cfg)
    print(f"verification suite [{label}]")
    for res in results:
        print("  " + res.line())
    _create(outdir)
    for res in results:
        if res.name == "taylor" and res.extra:
            for k, taylor in enumerate(res.extra):
                write_taylor_csv(os.path.join(outdir, f"taylor_{k}.csv"), taylor)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VALIDATION


def cmd_verify_all() -> int:
    rows = []
    worst = EXIT_OK
    for name in PRESETS:
        cfg = preset_config(name)
        code = cmd_verify(cfg, name)
        rows.append((name, code))
        worst = max(worst, code)
    print("\nsummary")
    for name, code in rows:
        print(f"  {name:<14} {'ok' if code == EXIT_OK else 'FAILED'}")
    return worst


class _Parser(argparse.ArgumentParser):
    """A malformed command line exits 1, as a malformed configuration does,
    not argparse's 2, the code of a data validation failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="cho",
        description="Bulk-surface phase-field simulation and optimal control",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "run the forward solver"),
        ("optimize", "run projected gradient descent"),
        ("verify", "run the invariant verification suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        source = p.add_mutually_exclusive_group()
        source.add_argument("-c", "--config", help="path to a YAML configuration")
        source.add_argument(
            "--preset", choices=sorted(PRESETS), help="use a shipped preset instead"
        )
        if name == "verify":
            source.add_argument(
                "--all-presets", action="store_true",
                help="run the suite over every shipped preset",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify" and getattr(args, "all_presets", False):
            return cmd_verify_all()
        if args.config is not None:
            cfg = load_config(args.config)
        elif args.preset is not None:
            cfg = preset_config(args.preset)
        else:
            raise ConfigError("either -c/--config or --preset is required")
        if args.command == "simulate":
            return cmd_simulate(cfg, args)
        if args.command == "optimize":
            return cmd_optimize(cfg, args)
        return cmd_verify(cfg, args.config or args.preset)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as err:
        print(f"configuration error: the run does not fit in memory ({err})",
              file=sys.stderr)
        return EXIT_CONFIG
    except ValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SolverError, PotentialDomainError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
