"""Span recording around the calls between fdhbf's modules.

The program is not changed: for the length of a traced run the names that
``fdhbf.sweep``, ``fdhbf.trial``, ``fdhbf.beamforming`` and ``fdhbf.rates``
import are swapped for wrappers, and the originals are put back afterwards.
A layer's self time is its spans' durations minus the time covered by their
child spans.  Count-only wrappers add calls to a counter and record no span,
so their time stays with the caller.
"""

import contextlib
import inspect
from collections import Counter
from time import perf_counter_ns

import numpy as np

# (module, imported name, span name).  The "sweep.cell" span starts a new cell.
SPANS = (
    ("sweep", "run_cell", "sweep.cell"),
    ("sweep", "draw_channels", "channel.draw"),
    ("sweep", "dft_codebook", "codebook.build"),
    ("sweep", "solve_trial", "trial"),
    ("trial", "select_analog_beams", "beamforming.beam_search"),
    ("trial", "enumerate_routings", "canceller"),
    ("trial", "set_tap_values", "canceller"),
    ("trial", "assemble_canceller", "canceller"),
    ("trial", "design_dl_precoder", "beamforming.dl_precoder"),
    ("trial", "dl_rate", "rates.dl_rate"),
    ("trial", "design_ul_precoder", "rates.uplink"),
    ("trial", "design_ul_combiner", "rates.uplink"),
    ("trial", "ul_ipn_covariance", "rates.uplink"),
    ("trial", "ul_rate", "rates.uplink"),
    ("trial", "hd_baseline_rate", "rates.hd_baseline"),
    ("beamforming", "svd", "numerics.svd"),
)

# (module, imported name, counter name)
COUNTS = (
    ("beamforming", "waterfill", "numerics.waterfill"),
    ("beamforming", "capacity_precoder", "beamforming.capacity_precoder"),
    ("rates", "capacity_precoder", "beamforming.capacity_precoder"),
    ("rates", "log2det_hpd", "numerics.log2det"),
)


def _beam_candidates(fn):
    """TX assignments ``select_analog_beams`` scans, from its arguments:
    every codebook beam per TX chain when exhaustive, else the shortlist."""
    sig = inspect.signature(fn)

    def count(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        per_chain = a["codebook_tx"].cardinality
        if a["strategy"] != "exhaustive":
            per_chain = min(a["shortlist_size"], per_chain)
        return per_chain ** a["cfg"].tx_chains

    return count


class Tracer:
    """Spans and counters kept in memory for one traced run."""

    def __init__(self):
        self.spans = []          # (name, start_ns, end_ns, parent index, cell)
        self.self_ns = Counter()  # span name -> summed self time
        self.calls = Counter()    # span or counter name -> calls
        self.cell_ns = []         # duration of each "sweep.cell" span
        self._stack = []          # [span index, ns covered by children]
        self._cell = -1

    def _span(self, name, fn, extra=None):
        new_cell = name == "sweep.cell"

        def wrapper(*args, **kwargs):
            if new_cell:
                self._cell += 1
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0]
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                duration = end - start
                self.self_ns[name] += duration - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += duration
                if new_cell:
                    self.cell_ns.append(duration)
                self.spans[index] = (name, start, end, parent, self._cell)
            if extra is not None:
                extra(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _extra(self, attr, fn):
        """Counters that need a call's arguments or result."""
        if attr == "design_dl_precoder":
            def feasible(args, kwargs, result):
                self.calls["beamforming.dl_feasible"] += bool(result.feasible)
            return feasible
        if attr == "enumerate_routings":
            def routings(args, kwargs, result):
                self.calls["canceller.routings"] += len(result)
            return routings
        if attr == "select_analog_beams":
            candidates = _beam_candidates(fn)

            def scanned(args, kwargs, result):
                self.calls["beamforming.beam_candidates"] += candidates(args, kwargs)
            return scanned
        return None

    @contextlib.contextmanager
    def installed(self, fdhbf):
        """Swap in the wrappers for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in SPANS + COUNTS:
                module = getattr(fdhbf, module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                if (module_name, attr, name) in SPANS:
                    wrapped = self._span(name, fn, self._extra(attr, fn))
                else:
                    wrapped = self._count(name, fn)
                setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def per_cell(self, regularizations: int) -> dict:
        """Per-layer metrics per traced cell, as {name: (value, unit)}."""
        cells = max(len(self.cell_ns), 1)

        def ms(name):
            return self.self_ns[name] / 1e6 / cells

        def per(name):
            return self.calls[name] / cells

        designs = self.calls["beamforming.dl_precoder"]
        cell_ms = np.asarray(self.cell_ns, dtype=float) / 1e6
        return {
            "channel.draw_ms": (ms("channel.draw"), "ms/cell"),
            "codebook.build_ms": (ms("codebook.build"), "ms/cell"),
            "codebook.build_calls": (per("codebook.build"), "count/cell"),
            "beamforming.beam_search_ms": (ms("beamforming.beam_search"), "ms/cell"),
            "beamforming.beam_candidates": (per("beamforming.beam_candidates"), "count/cell"),
            "beamforming.dl_precoder_ms": (ms("beamforming.dl_precoder"), "ms/cell"),
            "beamforming.dl_precoder_calls": (per("beamforming.dl_precoder"), "count/cell"),
            "beamforming.dl_feasible_ratio": (
                self.calls["beamforming.dl_feasible"] / designs if designs else 0.0, "ratio"),
            "beamforming.capacity_precoder_calls": (
                per("beamforming.capacity_precoder"), "count/cell"),
            "canceller.ms": (ms("canceller"), "ms/cell"),
            "canceller.routings": (per("canceller.routings"), "count/cell"),
            "rates.dl_rate_ms": (ms("rates.dl_rate"), "ms/cell"),
            "rates.dl_rate_calls": (per("rates.dl_rate"), "count/cell"),
            "rates.uplink_ms": (ms("rates.uplink"), "ms/cell"),
            "rates.hd_baseline_ms": (ms("rates.hd_baseline"), "ms/cell"),
            "numerics.svd_calls": (per("numerics.svd"), "count/cell"),
            "numerics.svd_ms": (ms("numerics.svd"), "ms/cell"),
            "numerics.waterfill_calls": (per("numerics.waterfill"), "count/cell"),
            "numerics.log2det_calls": (per("numerics.log2det"), "count/cell"),
            "numerics.regularizations": (regularizations / cells, "count/cell"),
            "trial.self_ms": (ms("trial"), "ms/cell"),
            "sweep.self_ms": (ms("sweep.cell"), "ms/cell"),
            "sweep.cell_ms_p50": (float(np.percentile(cell_ms, 50)) if cell_ms.size else 0.0, "ms"),
            "sweep.cell_ms_p95": (float(np.percentile(cell_ms, 95)) if cell_ms.size else 0.0, "ms"),
            "sweep.cell_samples": (len(self.cell_ns), "count"),
        }

    def write(self, path) -> None:
        """Write every span as one JSON array per line:
        [index, name, start_ns, end_ns, parent index or -1, cell]."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write('{"fields": ["index", "name", "start_ns", "end_ns", "parent", "cell"]}\n')
            for i, (name, start, end, parent, cell) in enumerate(self.spans):
                fh.write(f'[{i}, "{name}", {start}, {end}, {parent}, {cell}]\n')
