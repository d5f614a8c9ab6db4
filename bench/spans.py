"""In-memory span tracer that wraps innoreg's public functions from outside.

Nothing under ``src/`` knows about it: :func:`installed` replaces each
traced function with a timing wrapper in its own module, in every other
innoreg module that imported it by name (``innoreg.cli`` imports most of
them), and on its class for methods, and puts the originals back on exit.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from contextlib import contextmanager

# Layer metrics reported for each traced function, named
# <module>.<function>.<stat>. Functions called thousands of times per pass
# (COUNTED) keep only a call count and summed time instead of one span per
# call; they call no other traced function, so their time is charged to the
# enclosing span as child time.
LAYERS = {
    "cli.main": ("calls", "self_s"),
    "panel.load_panel": ("calls", "s"),
    "panel.descriptive_stats": ("s",),
    "panel.RegionalPanel.to_csv": ("s",),
    "panel.load_employment": ("s",),
    "panel.EmploymentTable.employment": ("calls", "s"),
    "panel.EmploymentTable.national": ("calls", "s"),
    "indices.indices_table": ("s", "self_s"),
    "indices.variety_decomposition": ("calls", "s"),
    "indices.hoover_index": ("calls", "s"),
    "regression.run_model_suite": ("s",),
    "regression.pooled_ols": ("calls", "self_s", "p50_ms", "p90_ms"),
    "regression.robust_covariance": ("calls", "s"),
    "regression.vif": ("calls", "s"),
    "regression.orthogonalize": ("calls", "s"),
    "regression.variance_decomposition": ("calls", "s"),
    "regression.format_suite_grid": ("calls", "s"),
    "regression.format_decomposition_table": ("calls", "s"),
    "synth.synthesize_panel": ("s", "self_s"),
    "synth.nearest_psd": ("calls", "s"),
    "game.feasibility_region": ("s",),
    "game.spne": ("calls",),
    "game.verify_equilibrium": ("calls", "p50_ms", "p90_ms"),
}
COUNTED = {"panel.EmploymentTable.employment", "panel.EmploymentTable.national",
           "indices.variety_decomposition", "indices.hoover_index", "game.spne"}

# work items a call returns, for <layer>.<rate> = items / inclusive seconds
ITEMS = {
    "panel.load_panel": lambda panel: panel.n_obs,
    "panel.load_employment": lambda table: len(table.rows),
    "indices.indices_table": len,
    "game.feasibility_region": len,
}
RATES = {
    "panel.load_panel.rows_per_s": "panel.load_panel",
    "panel.load_employment.rows_per_s": "panel.load_employment",
    "indices.region_years_per_s": "indices.indices_table",
    "game.grid_points_per_s": "game.feasibility_region",
}
P90_MIN_CALLS = 100


class Tracer:
    """Spans of one pass: (name, start, end, parent index, self seconds)."""

    def __init__(self):
        self.spans = []
        self.counts = {}   # counted name -> [calls, seconds]
        self.items = {}    # name -> work items returned
        self._stack = []   # open spans: [span index, child seconds]

    def wrap(self, name, fn):
        if name in COUNTED:
            return self._counted(name, fn)
        items = ITEMS.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            idx = len(self.spans)
            self.spans.append(None)
            frame = [idx, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, end - start - frame[1])
                if self._stack:
                    self._stack[-1][1] += end - start
            if items is not None:
                self.items[name] = self.items.get(name, 0) + items(result)
            return result
        return traced

    def _counted(self, name, fn):
        entry = self.counts.setdefault(name, [0, 0.0])

        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                entry[0] += 1
                entry[1] += dur
                if self._stack:
                    self._stack[-1][1] += dur
        return counted

    def root_seconds(self):
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent is None)

    def layer_metrics(self):
        """Every LAYERS and RATES metric of this pass; 0 where a layer did
        not run, and p90 only where it ran at least P90_MIN_CALLS times."""
        durs, self_s = {}, {}
        for name, start, end, _, own in self.spans:
            durs.setdefault(name, []).append(end - start)
            self_s[name] = self_s.get(name, 0.0) + own
        out = {}
        for name, stats in LAYERS.items():
            d = durs.get(name, [])
            calls, total = self.counts.get(name, (len(d), sum(d)))
            values = {
                "calls": calls,
                "s": total,
                "self_s": self_s.get(name, 0.0),
                "p50_ms": 1e3 * statistics.median(d) if d else 0.0,
                "p90_ms": (1e3 * statistics.quantiles(d, n=10)[-1]
                           if len(d) >= P90_MIN_CALLS else 0.0),
            }
            for stat in stats:
                out[f"{name}.{stat}"] = values[stat]
        for metric, name in RATES.items():
            total = sum(durs.get(name, []))
            out[metric] = self.items.get(name, 0) / total if total > 0 else 0.0
        return out


@contextmanager
def installed(tracer):
    """Bind a traced wrapper of every LAYERS function except cli.main."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "innoreg" or n.startswith("innoreg.")]
    undo = []
    try:
        for name in LAYERS:
            if name == "cli.main":
                continue
            short, _, path = name.partition(".")
            owner = importlib.import_module(f"innoreg.{short}")
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            orig = owner.__dict__[attr]
            holders = [owner] if cls_name else [
                m for m in modules if getattr(m, attr, None) is orig]
            wrapped = tracer.wrap(name, orig)
            for holder in holders:
                undo.append((holder, attr, orig))
                setattr(holder, attr, wrapped)
        yield tracer
    finally:
        for holder, attr, orig in reversed(undo):
            setattr(holder, attr, orig)
