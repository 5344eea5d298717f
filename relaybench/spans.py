"""Span tracer that times relayplan's layers from outside.

``Tracer.install`` rebinds every public function of the layer modules --
the module attribute and every name other relayplan modules imported from
it (``solver.concave_max``, ``cli.algorithm3_joint``, ...) -- to a wrapper
that records a span: name, start, end, parent span and the request id the
benchmark set.  The dense factorisations that the barrier's Newton step
calls (``numpy.linalg.cholesky`` and ``scipy.linalg.cho_solve``) are
recorded too while a ``barrier.concave_max`` span is open.  Spans are kept
in memory; ``write`` saves them as JSON lines and ``layer_metrics`` reduces
them to the per-layer figures.  ``uninstall`` restores every binding.
"""

import functools
import inspect
import itertools
import json
import time
from collections import defaultdict
from typing import Dict, List

import numpy as np
import scipy.linalg

FACTOR = ("barrier.cholesky", "barrier.cho_solve")
CHANNEL = ("scenario.channel_gain", "scenario.channel_state")
SCA_BUILDS = ("sca.trajectory_lb_build", "sca.power_lb_build")
GROUPS = {"solve": ("barrier.concave_max",), "factor": FACTOR, "channel": CHANNEL, "sca_build": SCA_BUILDS,
          "policy": ("oracle.policy_states",), "search": ("oracle.static_placement_oracle",)}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _slot_count(result) -> int:
    """Slot rates one call of a ``rates`` function produced."""
    first = result[0] if isinstance(result, tuple) else result
    return int(np.size(first)) if isinstance(first, (np.ndarray, float, np.floating)) else 1


def _plan_info(args, result) -> Dict:
    diag = result.diagnostics
    moving = args[0].step_radius > 0.0
    return {
        "outer": len(result.objective_history),
        "traj_attempted": len(result.history) if moving else 0,
        "traj_rejected": int(diag.get("rejected_traj_steps", 0)),
        "dropped_rows": sum(len(d["slots"]) for d in diag.get("dropped_target_rows", [])),
    }


# name -> f(args, result) giving the counts a span carries
_INFO = {
    "barrier.concave_max": lambda args, res: {"newton": res[1].newton_steps},
    "barrier.cholesky": lambda args, res: {"flop": args[0].shape[0] ** 3 / 3.0},
    "barrier.cho_solve": lambda args, res: {"flop": 2.0 * args[0][0].shape[0] ** 2},
    "solver.algorithm3_joint": _plan_info,
    "solver.solve_minrate": _plan_info,
}


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []  # (id, parent, request, name, start, end, info)
        self.request = None
        self._stack: List[int] = []  # ids of open spans
        self._undo: List[tuple] = []
        self._ids = itertools.count()
        self._barrier_depth = 0

    def _wrap(self, name, fn, only_in_barrier=False):
        info_of = _INFO.get(name)
        if name.startswith("rates."):
            info_of = lambda args, res: {"slots": _slot_count(res)}  # noqa: E731
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_in_barrier and not self._barrier_depth:
                return fn(*args, **kwargs)
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            if name == "barrier.concave_max":
                self._barrier_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, self.request, name, start, clock(), None))
                raise
            finally:
                stack.pop()
                if name == "barrier.concave_max":
                    self._barrier_depth -= 1
            end = clock()
            info = info_of(args, result) if info_of else None
            spans.append((sid, parent, self.request, name, start, end, info))
            return result

        return traced

    def _rebind(self, owner, attr, original, wrapper):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, modules: Dict[str, object]) -> None:
        """Wrap the public functions of each layer module, keyed by layer name."""
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for other in modules.values():
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            self._rebind(other, name, fn, wrapper)
        for owner, attr, name in ((np.linalg, "cholesky", "barrier.cholesky"),
                                  (scipy.linalg, "cho_solve", "barrier.cho_solve")):
            fn = getattr(owner, attr)
            self._rebind(owner, attr, fn, self._wrap(name, fn, only_in_barrier=True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        keys = ("id", "parent", "request", "name", "start", "end", "info")
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer totals over every recorded span.

        A layer's time counts only spans whose parent lies in another layer,
        so nested calls inside one layer are not counted twice; self time is
        a span's duration minus its children's.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time = defaultdict(float)
        for s in self.spans:
            if s[1] is not None:
                child_time[s[1]] += s[5] - s[4]
        total = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(float)
        solver_self = io = warm = 0.0
        for sid, parent, _, name, start, end, info in self.spans:
            dur = end - start
            layer = _layer(name)
            parent_name = by_id[parent][3] if parent is not None else ""
            outermost = _layer(parent_name) != layer
            if layer == "solver":
                solver_self += dur - child_time[sid]
            if name == "solver.feasible_init" and parent_name == "solver.algorithm3_joint":
                warm += dur
            if parent_name == "cli.main" and layer in ("solver", "oracle"):
                io -= dur
            if name == "cli.main":
                io += dur
            for key, group in GROUPS.items():
                # a group's time counts spans not nested in the same group
                if name in group and parent_name not in group:
                    total[key] += dur
                    calls[key] += 1
            if outermost:
                total[layer] += dur
                calls[layer] += 1
            if info and (outermost or layer != "rates"):
                for k, v in info.items():
                    counts[k] += v
        steps = counts["newton"]
        attempted = counts["traj_attempted"]
        return {
            "cli.io_s": io,
            "solver.plan_s": total["solver"],
            "solver.warmstart_s": warm,
            "solver.self_s": solver_self,
            "solver.outer_iters": counts["outer"],
            "solver.traj_accept_ratio": (attempted - counts["traj_rejected"]) / attempted if attempted else 0.0,
            "solver.dropped_target_rows": counts["dropped_rows"],
            "barrier.solve_s": total["solve"],
            "barrier.solves": calls["solve"],
            "barrier.newton_steps": steps,
            "barrier.ms_per_newton_step": 1e3 * total["solve"] / steps if steps else 0.0,
            "barrier.factor_s": total["factor"],
            "barrier.factor_gflop_computed": counts["flop"] / 1e9,
            "sca.build_s": total["sca_build"],
            "sca.builds": calls["sca_build"],
            "rates.eval_s": total["rates"],
            "rates.calls": calls["rates"],
            "rates.slot_evals": counts["slots"],
            "rates.slot_evals_per_s": counts["slots"] / total["rates"] if total["rates"] else 0.0,
            "modes.schedule_s": total["modes"],
            "modes.calls": calls["modes"],
            "oracle.policy_s": total["policy"],
            "scenario.channel_s": total["channel"],
            "scenario.calls": calls["channel"],
            "oracle.search_s": total["search"],
        }
