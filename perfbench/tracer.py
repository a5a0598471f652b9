"""Span tracer installed around ``cho``'s layer boundaries from outside.

The tracer wraps functions where they are bound, records one span per
call (id, parent id, name, start, end) in flat in-memory arrays, and
turns the spans of a pass into the per-layer metrics.  Nothing inside
``cho`` changes: the wrappers are installed by the benchmark, in a
process of its own that runs only traced passes.

Install order matters.  ``install`` first patches the ``scipy.sparse``
entry points, then imports ``cho``, so that ``from scipy.sparse.linalg
import spsolve`` inside ``cho`` binds the wrapper.  It then wraps every
traced ``cho`` function at every ``cho`` module attribute that holds it
(``solve`` is bound in ``cho.forward``, ``cho.control``, ``cho.verify``
and more), and the methods on their classes.
"""

import functools
import sys
import time
from array import array

import numpy as np

# Wrapped function -> metric group.  A group's time and calls count only
# spans whose parent is outside the group, so that nested calls inside one
# layer (write_snapshots -> write_state_csv) are not counted twice.
SCIPY_TARGETS = {
    ("scipy.sparse", "bmat"): "sparse.bmat",
    ("scipy.sparse.linalg", "spsolve"): "sparse.factor",
    ("scipy.sparse.linalg", "splu"): "sparse.factor",
    ("scipy.sparse.linalg", "factorized"): "sparse.factor",
}
TRISOLVE = "sparse.trisolve"

CHO_TARGETS = {
    "cho.cli": {"main": "cli.main"},
    "cho.config": {
        name: "config.build"
        for name in (
            "load_config", "preset_config", "RunConfig.build_mesh",
            "RunConfig.build_pair", "RunConfig.build_options",
            "RunConfig.build_problem", "RunConfig.build_initial",
            "RunConfig.build_controls", "RunConfig.build_control_problem",
        )
    },
    "cho.mesh": {"build_interval": "mesh.build", "build_rectangle": "mesh.build"},
    "cho.spaces": {"assemble": "spaces.assemble"},
    "cho.potentials": {
        **{f"PotentialSpec.{m}": "potentials.eval"
           for m in ("F", "beta", "dbeta", "pi", "dpi")},
        **{name: "potentials.yosida"
           for name in ("resolvent", "yosida_beta", "yosida_dbeta", "yosida_hat")},
    },
    "cho.forward": {"solve": "forward.solve"},
    "cho.sensitivity": {"linearized_solve": "sensitivity.solve"},
    "cho.adjoint": {
        "adjoint_solve": "adjoint.solve",
        "adjoint_continuous_form": "adjoint.solve",
        "reduced_gradient": "adjoint.gradient",
    },
    "cho.control": {
        "projected_gradient": "control.optimize",
        **{name: "control.algebra"
           for name in ("cost", "cost_directional", "control_inner", "vi_residual",
                        "validate_Uad", "project_box")},
    },
    "cho.output": {
        name: "output.write"
        for name in (
            "write_series_csv", "write_state_csv", "write_state_vtk",
            "write_snapshots", "write_history_csv", "write_control_csv",
            "write_taylor_csv", "write_adjoint_norms_csv",
        )
    },
    "cho.verify": {
        f"check_{fn}": f"verify.check_s.{check}"
        for fn, check in (
            ("mean_ode", "mean-ode"), ("constant_data", "constant-data"),
            ("energy_decay", "energy-decay"), ("mean_bound", "mean-bound"),
            ("separation", "separation"), ("yosida", "yosida"),
            ("contdep", "continuous-dependence"), ("taylor", "taylor"),
            ("adjoint", "adjoint-duality"), ("optimality", "optimality"),
            ("homogeneous", "homogeneous-zero"),
        )
    },
}

# Groups reported as <group>_s and <group>_calls.
TIMED_GROUPS = (
    "sparse.bmat", "sparse.factor", "sparse.trisolve", "forward.solve",
    "sensitivity.solve", "adjoint.solve", "potentials.eval", "potentials.yosida",
    "spaces.assemble", "mesh.build",
)
VERIFY_GROUPS = tuple(CHO_TARGETS["cho.verify"].values())


class _TracedLU:
    """SuperLU stand-in whose ``solve`` is traced; the rest is delegated."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.names = []         # span name table: "<group>:<function>"
        self.groups = []        # metric group of each name
        self._ids = {}
        self._stack = []        # ids of the open spans
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Drop the recorded spans and counts (between passes)."""
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys((
            "forward.steps", "forward.newton_iters", "control.iterations",
            "sparse.factor_dofs", "sparse.factor_nnz",
        ), 0)

    def wrap(self, group, label, fn, on_return=None):
        name = f"{group}:{label}"
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        nid = self._ids[name]
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(nid)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if on_return is not None:
                return on_return(args, result)
            return result

        return traced

    # -- boundary counts ---------------------------------------------------

    def _factor_size(self, args):
        A = args[0]
        counts = self.counts
        counts["sparse.factor_dofs"] = max(counts["sparse.factor_dofs"], int(A.shape[0]))
        counts["sparse.factor_nnz"] = max(counts["sparse.factor_nnz"], int(A.nnz))

    def _on_spsolve(self, args, x):
        self._factor_size(args)
        return x

    def _on_splu(self, args, lu):
        self._factor_size(args)
        return _TracedLU(lu, self.wrap(TRISOLVE, "SuperLU.solve", lu.solve))

    def _on_factorized(self, args, solve):
        self._factor_size(args)
        return self.wrap(TRISOLVE, "factorized.solve", solve)

    def _on_solve(self, args, traj):
        self.counts["forward.steps"] += int(traj.grid.N)
        self.counts["forward.newton_iters"] += int(np.sum(traj.newton_iters))
        return traj

    def _on_optimize(self, args, result):
        self.counts["control.iterations"] += len(result.history) - 1
        return result

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch scipy.sparse, import cho, wrap the traced cho functions."""
        if "cho" in sys.modules:
            raise RuntimeError("the tracer must be installed before cho is imported")
        import scipy.sparse
        import scipy.sparse.linalg

        hooks = {"spsolve": self._on_spsolve, "splu": self._on_splu,
                 "factorized": self._on_factorized}
        for (module, attr), group in SCIPY_TARGETS.items():
            mod = sys.modules[module]
            setattr(mod, attr, self.wrap(group, attr, getattr(mod, attr), hooks.get(attr)))

        import cho.cli  # binds the scipy wrappers; imports every traced module

        hooks = {"cho.forward:solve": self._on_solve,
                 "cho.control:projected_gradient": self._on_optimize}
        wrappers = {}
        for module, targets in CHO_TARGETS.items():
            mod = sys.modules[module]
            for qualname, group in targets.items():
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                original = getattr(owner, attr)
                wrapper = self.wrap(group, qualname, original,
                                    hooks.get(f"{module}:{qualname}"))
                setattr(owner, attr, wrapper)
                wrappers[id(original)] = wrapper
        self._rebind(wrappers)

    @staticmethod
    def _rebind(wrappers):
        """Point every other cho binding of a wrapped function at its wrapper,
        including tuples of functions such as ``verify.ALL_CHECKS``."""
        for modname, mod in list(sys.modules.items()):
            if modname != "cho" and not modname.startswith("cho."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                    setattr(mod, attr, tuple(wrappers.get(id(v), v) for v in value))

    # -- aggregation -------------------------------------------------------

    def spans(self):
        """The recorded spans as numpy arrays plus the name table."""
        return {
            "parent": np.array(self.parent, dtype=np.int64),
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "names": np.array(self.names, dtype=str),
        }

    def metrics(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        parent = np.array(self.parent, dtype=np.int64)
        name = np.array(self.name, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        group = np.array(self.groups + [""], dtype=object)[name]
        label = np.array(self.names + [""], dtype=object)[name]
        nested = parent >= 0
        parent_group = np.full(len(dur), "", dtype=object)
        parent_group[nested] = group[parent[nested]]
        outer = group != parent_group
        self_time = dur - np.bincount(parent[nested], weights=dur[nested],
                                      minlength=len(dur))

        def total(g):
            return float(dur[(group == g) & outer].sum())

        def self_total(g):
            return float(self_time[group == g].sum())

        out = {}
        for g in TIMED_GROUPS:
            out[f"{g}_s"] = total(g)
            out[f"{g}_calls"] = int(np.count_nonzero((group == g) & outer))
        # spsolve factors and solves in one call: its time is booked to
        # factor, and it counts once in each call count.
        out["sparse.trisolve_calls"] += int(np.count_nonzero(label == "sparse.factor:spsolve"))
        out["sparse.factor_dofs"] = self.counts["sparse.factor_dofs"]
        out["sparse.factor_nnz"] = self.counts["sparse.factor_nnz"]

        steps, newton = self.counts["forward.steps"], self.counts["forward.newton_iters"]
        out["forward.self_s"] = self_total("forward.solve")
        out["forward.steps"] = steps
        out["forward.newton_iters"] = newton
        out["forward.newton_per_step"] = newton / steps if steps else 0.0
        out["sensitivity.self_s"] = self_total("sensitivity.solve")
        out["adjoint.self_s"] = self_total("adjoint.solve")
        out["adjoint.gradient_s"] = total("adjoint.gradient")

        # Line-search solves: forward solves called directly by the
        # optimizer, less the one that evaluates its starting point.
        optimize = np.flatnonzero(group == "control.optimize")
        under = (group == "forward.solve") & np.isin(parent, optimize)
        iterations = self.counts["control.iterations"]
        linesearch = int(np.count_nonzero(under)) - len(optimize)
        out["control.optimize_s"] = total("control.optimize")
        out["control.iterations"] = iterations
        out["control.linesearch_solves"] = linesearch
        out["control.accept_ratio"] = iterations / linesearch if linesearch else 0.0
        out["control.algebra_s"] = total("control.algebra")

        out["config.build_s"] = total("config.build")
        out["output.write_s"] = total("output.write")
        out["cli.main_s"] = total("cli.main")
        for g in VERIFY_GROUPS:
            out[g] = total(g)
        out["trace.spans"] = len(dur)
        return out
