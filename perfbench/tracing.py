"""Per-layer spans taken from outside the program.

The tracer replaces public functions with timing wrappers at the place
where the calling module looks them up (``cvqkdsim.dsp.convolve`` for the
chain's ``dsp.convolve(...)``, ``cvqkdsim.link.quantize`` for its
``from .quantization import quantize``, and so on). Nothing under ``src/``
changes; ``uninstall`` restores every original. Spans stay in memory and
are written out once, when the run ends.

A span's self time is its duration minus the time its child spans cover;
the self times of one op add up to the time the op spent inside any
wrapped call, so ``trace.coverage_ratio`` shows how much of an op the
layers account for.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module that performs the lookup, attribute, span name). The same
# function appears once per module that imports it by name.
TARGETS = (
    ("cvqkdsim.dsp", "convolve", "dsp.convolve"),
    ("cvqkdsim.dsp", "generate_symbols", "dsp.generate_symbols"),
    ("cvqkdsim.dsp", "upsample", "dsp.upsample"),
    ("cvqkdsim.dsp", "downsample", "dsp.downsample"),
    ("cvqkdsim.link", "quantize", "quantization.quantize"),
    ("cvqkdsim.link", "full_scale", "quantization.full_scale"),
    ("cvqkdsim.link", "measure_noise", "quantization.measure_noise"),
    ("cvqkdsim.link", "clip_fraction", "quantization.clip_fraction"),
    ("cvqkdsim.quantization", "clip_fraction", "quantization.clip_fraction"),
    ("cvqkdsim.link", "run_chain", "link.run_chain"),
    ("cvqkdsim.reinforce", "run_chain", "link.run_chain"),
    ("cvqkdsim.experiments", "run_chain", "link.run_chain"),
    ("cvqkdsim.link", "effective_response", "link.effective_response"),
    ("cvqkdsim.link", "estimate_parameters", "link.estimate_parameters"),
    ("cvqkdsim.reinforce", "estimate_parameters", "link.estimate_parameters"),
    ("cvqkdsim.experiments", "estimate_parameters", "link.estimate_parameters"),
    ("cvqkdsim.link", "assemble_budget", "link.assemble_budget"),
    ("cvqkdsim.reinforce", "assemble_budget", "link.assemble_budget"),
    ("cvqkdsim.keyrate", "secure_key_rate", "keyrate.secure_key_rate"),
    ("cvqkdsim.keyrate", "devetak_winter_rate", "keyrate.devetak_winter_rate"),
    ("cvqkdsim.reinforce", "secure_key_rate", "keyrate.secure_key_rate"),
    ("cvqkdsim.reinforce", "devetak_winter_rate", "keyrate.devetak_winter_rate"),
    ("cvqkdsim.experiments", "secure_key_rate", "keyrate.secure_key_rate"),
    ("cvqkdsim.reinforce", "sample_episode", "reinforce.sample_episode"),
    ("cvqkdsim.reinforce", "reinforce_update", "reinforce.reinforce_update"),
    ("cvqkdsim.reinforce", "optimize", "reinforce.optimize"),
    ("cvqkdsim.experiments", "photon_scan", "experiments.photon_scan"),
)

# per-layer metric (milliseconds of self time per op) -> span names summed
TIME_METRICS = {
    "dsp.convolve.tx.ms": ("dsp.convolve.tx",),
    "dsp.convolve.lpf.ms": ("dsp.convolve.lpf",),
    "dsp.convolve.rx.ms": ("dsp.convolve.rx",),
    "dsp.generate_symbols.ms": ("dsp.generate_symbols",),
    "dsp.upsample.ms": ("dsp.upsample",),
    "dsp.downsample.ms": ("dsp.downsample",),
    "quantization.quantize.ms": ("quantization.quantize",),
    "quantization.full_scale.ms": ("quantization.full_scale",),
    "quantization.measure_noise.ms": ("quantization.measure_noise",),
    "quantization.clip_fraction.ms": ("quantization.clip_fraction",),
    "link.run_chain.self_ms": ("link.run_chain",),
    "link.effective_response.ms": ("link.effective_response",),
    "link.estimate_parameters.ms": ("link.estimate_parameters",),
    "link.assemble_budget.ms": ("link.assemble_budget",),
    "keyrate.rate.ms": ("keyrate.secure_key_rate", "keyrate.devetak_winter_rate"),
    "reinforce.sample_episode.self.ms": ("reinforce.sample_episode",),
    "reinforce.reinforce_update.ms": ("reinforce.reinforce_update",),
    "reinforce.optimize.self.ms": ("reinforce.optimize",),
    "experiments.photon_scan.self_ms": ("experiments.photon_scan",),
}

# counters that repeat exactly for a fixed seed and op count
COUNT_METRICS = ("dsp.convolve.calls", "dsp.convolve.mmacs",
                 "quantization.samples", "link.run_chain.calls",
                 "reinforce.episodes")

UNITS = {**{name: "ms" for name in TIME_METRICS},
         **{name: "count" for name in COUNT_METRICS},
         "dsp.convolve.mmacs": "Mmac",
         "reinforce.valid_episode_ratio": "ratio",
         "trace.coverage_ratio": "ratio",
         "trace.overhead_ratio": "ratio"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Timing wrappers, the spans they record and the per-op aggregates."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.op_wall_s = 0.0
        self.ops = 0
        self._op = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._chains: list = []  # LinkConfig of each active run_chain call
        self._lpf_taps: dict = {}
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        hooks = {"dsp.convolve": self._on_convolve,
                 "quantization.quantize": self._on_quantize,
                 "link.run_chain": self._on_run_chain,
                 "reinforce.sample_episode": self._on_episode}
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hooks.get(name)))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- op boundaries -------------------------------------------------
    def begin_op(self, index: int) -> None:
        self._op = index

    def end_op(self, wall_s: float) -> None:
        self.ops += 1
        self.op_wall_s += wall_s

    # -- spans ---------------------------------------------------------
    def _wrap(self, fn, name, hook):
        """Time ``fn`` as a span; ``hook`` may relabel it and count work.

        A hook returns the span label and an exit callback, which receives
        the call's result (None when the call raised).
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label, on_exit = hook(args, kwargs) if hook else (name, None)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.self_s[label] += end - start - frame[1]
                self.spans.append((span_id, parent, self._op, label, start, end))
                if on_exit is not None:
                    on_exit(result)
        return wrapper

    def _on_convolve(self, args, kwargs):
        sig = _arg(args, kwargs, 0, "sig")
        fir = _arg(args, kwargs, 1, "fir")
        self.counts["dsp.convolve.calls"] += 1
        self.counts["dsp.convolve.mmacs"] += len(sig) * len(fir)
        return f"dsp.convolve.{self._filter_role(sig, fir)}", None

    def _filter_role(self, sig, fir) -> str:
        """tx, lpf or rx, told apart by the call's arguments.

        The LPF is the one filter whose taps equal the configured analog
        front end; tx shaping is the one pass whose input is the upsampled
        symbol block; every other pass (with and without the ADC) is rx.
        """
        config = self._chains[-1] if self._chains else None
        if config is None:
            return "other"
        key = (config.lpf, config.sps)
        if key not in self._lpf_taps:
            self._lpf_taps[key] = config.lpf_filter().taps
        lpf = self._lpf_taps[key]
        if len(fir) == len(lpf) and np.array_equal(fir.taps, lpf):
            return "lpf"
        if len(sig) == config.num_symbols * config.sps:
            return "tx"
        return "rx"

    def _on_quantize(self, args, kwargs):
        self.counts["quantization.samples"] += len(_arg(args, kwargs, 0, "sig"))
        return "quantization.quantize", None

    def _on_run_chain(self, args, kwargs):
        self.counts["link.run_chain.calls"] += 1
        self._chains.append(_arg(args, kwargs, 0, "config"))
        return "link.run_chain", lambda result: self._chains.pop()

    def _on_episode(self, args, kwargs):
        self.counts["reinforce.episodes"] += 1

        def count_valid(episode):
            if episode is not None and episode.params is not None:
                self.counts["reinforce.valid_episodes"] += 1
        return "reinforce.sample_episode", count_valid

    # -- results -------------------------------------------------------
    def metrics(self) -> dict:
        """Every per-layer metric, per op, except ``trace.overhead_ratio``."""
        ops = max(self.ops, 1)
        out = {name: sum(self.self_s[s] for s in spans) * 1e3 / ops
               for name, spans in TIME_METRICS.items()}
        out.update({name: self.counts[name] / ops for name in COUNT_METRICS})
        out["dsp.convolve.mmacs"] /= 1e6  # counted as whole MACs
        episodes = self.counts["reinforce.episodes"]
        out["reinforce.valid_episode_ratio"] = (
            self.counts["reinforce.valid_episodes"] / episodes if episodes else 0.0)
        covered = sum(self.self_s.values())
        out["trace.coverage_ratio"] = covered / self.op_wall_s if self.op_wall_s else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start_s": start,
                                     "end_s": end}) + "\n")
