"""In-memory span tracer around gwquant's public functions.

The package imports functions by name (``from .linalg import robust_cholesky``),
so a call made inside ``gwquant.sgpr`` goes through ``gwquant.sgpr``'s own
binding of the function. ``Tracer.install`` therefore replaces every binding
of a wrapped function in every loaded ``gwquant`` module, not only the one in
the defining module, and ``Tracer.uninstall`` restores the originals. Untraced
passes run the unmodified program.

A span is ``[name, start, end, parent, request, info]``: ``parent`` indexes
the enclosing span (-1 at top level), ``request`` is the index of the CLI call
that caused it and ``info`` holds the counters read at that boundary.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

import numpy as np
import scipy.optimize

LAYERS = (
    "signals",
    "damage_index",
    "kernels",
    "linalg",
    "sgpr",
    "vhgpr",
    "quantify",
    "persist",
    "cli",
)

_MINIMIZE = "scipy.minimize"


def _path_bytes(args, kwargs, result):
    path = args[0] if args else next(iter(kwargs.values()))
    return {"bytes": os.path.getsize(path)}


def _cholesky_info(args, kwargs, result):
    factor, jitter = result
    return {"n": factor.shape[0], "jitter": jitter}


def _objective_info(args, kwargs, result):
    value, grad = result
    return {"bad": not (np.isfinite(value) and np.all(np.isfinite(grad)))}


def _minimize_info(args, kwargs, result):
    return {
        "nit": int(result.nit),
        "success": bool(result.success),
        "n_params": int(np.size(args[1])),
    }


_INFO = {
    "signals.signals_to_csv_text": lambda a, k, r: {"bytes": len(r)},
    "signals.read_signals_csv": _path_bytes,
    "damage_index.build_di_dataset": lambda a, k, r: {"rows": r.n},
    "persist.load_model": _path_bytes,
    "linalg.robust_cholesky": _cholesky_info,
    "sgpr.sgpr_nlml": _objective_info,
    "vhgpr.mv_bound": _objective_info,
    _MINIMIZE: _minimize_info,
}


class Tracer:
    """Records spans while installed; ``take`` hands them over and clears."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = {"raised": True, "bad": True}
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"gwquant.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        minimize = scipy.optimize.minimize
        wrappers[id(minimize)] = (minimize, self._wrap(_MINIMIZE, minimize))

        for name in sorted(sys.modules):
            if name != "gwquant" and not name.startswith("gwquant."):
                continue
            module = sys.modules[name]
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def take(self) -> list[list]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


# Metrics that repeat exactly for one seed; two same-seed runs must agree.
EXACT = (
    "signals.csv_mb",
    "damage_index.rows",
    "persist.model_bytes",
    "kernels.calls",
    "linalg.cholesky_calls",
    "linalg.jitter_calls",
    "linalg.cholesky_gflop",
    "sgpr.nlml_evals",
    "sgpr.nlml_bad",
    "sgpr.lbfgs_iters",
    "sgpr.lbfgs_converged_ratio",
    "vhgpr.bound_evals",
    "vhgpr.bound_bad",
    "vhgpr.n_params",
    "vhgpr.lbfgs_iters",
    "vhgpr.lbfgs_converged_ratio",
    "quantify.state_prob_calls",
    "quantify.model_predict_calls",
    "trace.spans",
)

UNITS = {
    "signals.csv_mb": "MB",
    "persist.model_bytes": "bytes",
    "linalg.cholesky_gflop": "GFLOP",
    "sgpr.lbfgs_converged_ratio": "ratio",
    "vhgpr.lbfgs_converged_ratio": "ratio",
}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "s" if metric.endswith(("_s", ".s")) else "count"


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counters and times of a list of spans.

    Times are inclusive span durations, except ``<layer>.self_s``: a span's
    duration minus the part covered by its child spans, summed per layer.
    """
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    def ancestors(i):
        parent = spans[i][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    def select(*names, outermost=False):
        return [
            i
            for i in range(n)
            if spans[i][0] in names
            and not (outermost and any(a in names for a in ancestors(i)))
        ]

    def seconds(idx):
        return sum(spans[i][2] - spans[i][1] for i in idx)

    def info(i, key, default=0):
        return (spans[i][5] or {}).get(key, default)

    def trainer(i):
        for a in ancestors(i):
            if a in ("sgpr.train_sgpr", "vhgpr.train_vhgpr"):
                return a.split(".")[0]
        return None

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            spans[i][2] - spans[i][1] - child[i]
            for i in range(n)
            if spans[i][0].split(".")[0] == layer
        )

    write, read = select("signals.signals_to_csv_text"), select("signals.read_signals_csv")
    m["signals.simulate_s"] = seconds(select("signals.simulate_dataset"))
    m["signals.write_s"] = seconds(write)
    m["signals.read_s"] = seconds(read)
    m["signals.csv_mb"] = sum(info(i, "bytes") for i in write + read) / 1e6

    build = select("damage_index.build_di_dataset")
    m["damage_index.build_s"] = seconds(build)
    m["damage_index.rows"] = sum(info(i, "rows") for i in build)
    m["damage_index.csv_s"] = seconds(
        select("damage_index.di_to_csv_text", "damage_index.read_di_csv")
    )

    m["persist.write_s"] = seconds(
        select("persist.atomic_write_text", "persist.save_model", outermost=True)
    )
    loads = select("persist.load_model")
    m["persist.load_s"] = seconds(loads)
    m["persist.model_bytes"] = (
        sum(info(i, "bytes") for i in loads) / len(loads) if loads else 0
    )

    kern = select("kernels.kernel_matrix", "kernels.kernel_matrix_grads", outermost=True)
    m["kernels.calls"] = len(kern)
    m["kernels.s"] = seconds(kern)

    chol = select("linalg.robust_cholesky")
    m["linalg.cholesky_calls"] = len(chol)
    m["linalg.cholesky_s"] = seconds(chol)
    m["linalg.jitter_calls"] = sum(1 for i in chol if info(i, "jitter") > 0)
    m["linalg.cholesky_gflop"] = sum(info(i, "n") ** 3 / 3.0 for i in chol) / 1e9

    for layer, objective in (("sgpr", "sgpr.sgpr_nlml"), ("vhgpr", "vhgpr.mv_bound")):
        evals = select(objective)
        key = "nlml" if layer == "sgpr" else "bound"
        m[f"{layer}.{key}_evals"] = len(evals)
        m[f"{layer}.{key}_s"] = seconds(evals)
        m[f"{layer}.{key}_bad"] = sum(1 for i in evals if info(i, "bad", False))
        runs = [i for i in select(_MINIMIZE) if trainer(i) == layer]
        m[f"{layer}.lbfgs_iters"] = sum(info(i, "nit") for i in runs)
        m[f"{layer}.lbfgs_converged_ratio"] = (
            sum(1 for i in runs if info(i, "success", False)) / len(runs) if runs else 0
        )
        if layer == "vhgpr":
            m["vhgpr.n_params"] = max((info(i, "n_params") for i in runs), default=0)

    state_prob = select("quantify.state_probabilities")
    m["quantify.state_prob_calls"] = len(state_prob)
    m["quantify.state_prob_s"] = seconds(state_prob)
    predict = [
        i
        for i in select("sgpr.sgpr_predict", "vhgpr.vhgpr_predict")
        if any(a.startswith("quantify.") for a in ancestors(i))
    ]
    m["quantify.model_predict_calls"] = len(predict)
    m["quantify.model_predict_s"] = seconds(predict)

    m["cli.train_s"] = seconds(select("cli.cmd_train"))
    m["trace.spans"] = n
    return m


def concat(*segments: list[list]) -> list[list]:
    """Join span lists recorded separately, re-indexing their parents."""
    joined: list[list] = []
    for segment in segments:
        base = len(joined)
        joined.extend(
            [name, start, end, parent + base if parent >= 0 else -1, request, info]
            for name, start, end, parent, request, info in segment
        )
    return joined
