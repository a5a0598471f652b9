"""Command line interface.

    cho simulate -c config.yaml     forward run, time series + snapshots
    cho optimize -c config.yaml     projected gradient descent run
    cho verify   -c config.yaml     full invariant suite (or --all-presets)

Exit codes: 0 success, 1 malformed configuration or violated standing
assumption, 2 data validation failure (mean-value condition, infeasible
box), 3 solver failure, including a potential evaluated outside its
domain during a run.
"""

import argparse
import os
import shutil
import sys

from .config import PRESETS, load_config, preset_config, save_config
from .control import projected_gradient
from .errors import ConfigError, PotentialDomainError, SolverError, ValidationError
from .forward import solve
from .output import (
    ensure_dir,
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


def _prepare_outdir(cfg, config_path):
    outdir = ensure_dir(os.path.join(cfg.output["directory"], cfg.run_name))
    if config_path is not None and os.path.isfile(config_path):
        shutil.copy(config_path, os.path.join(outdir, "config.yaml"))
    else:
        save_config(cfg, os.path.join(outdir, "config.yaml"))
    return outdir


def cmd_simulate(cfg, config_path) -> int:
    problem = cfg.build_problem()
    mesh, grid = problem.mesh, problem.grid
    phi0 = cfg.build_initial(mesh)
    controls = cfg.build_controls(mesh, grid)
    traj = solve(problem, phi0, controls)
    outdir = _prepare_outdir(cfg, config_path)
    series = write_series_csv(
        os.path.join(outdir, "series_0.csv"), problem, traj, controls
    )
    snapshots = write_snapshots(outdir, mesh, traj, cfg.output["snapshot_stride"])
    print(mesh.summary())
    print(f"simulated {grid.N} steps to T = {grid.T:g}")
    print(f"wrote {series} and {len(snapshots)} snapshots")
    return EXIT_OK


def cmd_optimize(cfg, config_path) -> int:
    from .adjoint import adjoint_solve

    cp, u0, pg_opts = cfg.build_control_problem()
    result = projected_gradient(cp, u0, pg_opts)
    outdir = _prepare_outdir(cfg, config_path)
    history = write_history_csv(os.path.join(outdir, "history_0.csv"), result.history)
    write_control_csv(outdir, cp.problem.grid, result.u)
    write_series_csv(
        os.path.join(outdir, "series_0.csv"), cp.problem, result.trajectory, result.u
    )
    write_snapshots(outdir, cp.problem.mesh, result.trajectory,
                    cfg.output["snapshot_stride"])
    adj = adjoint_solve(cp.problem, result.trajectory, cp.cost)
    write_adjoint_norms_csv(
        os.path.join(outdir, "adjoint_norms_0.csv"), cp.problem.ops,
        cp.problem.grid, adj,
    )
    last = result.history[-1]
    print(cp.problem.mesh.summary())
    print(
        f"optimizer finished after {last.iteration} iterations: "
        f"J = {last.J:.6e}, vi residual = {last.vi_residual:.3e}"
        + ("" if result.converged else " (iteration budget exhausted)")
    )
    print(f"wrote {history}")
    return EXIT_OK


def cmd_verify(cfg, label) -> int:
    results = run_suite(cfg)
    print(f"verification suite [{label}]")
    for res in results:
        print("  " + res.line())
    outdir = ensure_dir(os.path.join(cfg.output["directory"], cfg.run_name))
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


def build_parser():
    parser = argparse.ArgumentParser(
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
        p.add_argument("-c", "--config", help="path to a YAML configuration")
        p.add_argument(
            "--preset", choices=sorted(PRESETS), help="use a shipped preset instead"
        )
        if name == "verify":
            p.add_argument(
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
            cfg, path = load_config(args.config), args.config
        elif args.preset is not None:
            cfg, path = preset_config(args.preset), None
        else:
            raise ConfigError("either -c/--config or --preset is required")
        if args.command == "simulate":
            return cmd_simulate(cfg, path)
        if args.command == "optimize":
            return cmd_optimize(cfg, path)
        return cmd_verify(cfg, args.config or args.preset)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SolverError, PotentialDomainError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
