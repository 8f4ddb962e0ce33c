"""The benchmark's workloads: one op each, inputs from a seed, output checks.

Every input comes from a fixed pool of entries whose outputs were recorded
once into ``reference.json`` (see ``record_reference.py``). The workload
seed picks the order in which a run visits the pool, so every seed gives
its own input sequence and every op can still be checked against a stored
value. A run that outlasts its pool starts over from the first entry.

Ops call the package's public functions through their modules
(``link.run_chain``, ``reinforce.optimize``, ...), so the tracer's wrappers
see the benchmark's own calls as well as the calls inside the package.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from cvqkdsim import QuantizerSpec, experiments, keyrate, link, reinforce


def _close(got: float, want: float, rtol: float, atol: float) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


class Workload:
    """An op sequence over a reference pool.

    ``seed=None`` visits the pool in its canonical order, op ``i`` on entry
    ``i``; that is the order in which the references are recorded.
    Subclasses define ``name``, ``fields`` (name, rtol, atol) for each
    value an op returns, ``pool_size``, ``entry`` and ``run``.
    """

    name: str
    fields: tuple[tuple[str, float, float], ...]
    pool_size: int

    def __init__(self, seed: int | None, reference: dict | None):
        self.rng = np.random.default_rng(seed)
        self.canonical = seed is None
        self.reference = reference

    def _order(self, n: int) -> np.ndarray:
        return np.arange(n) if self.canonical else self.rng.permutation(n)

    def entry(self, i: int) -> int:
        raise NotImplementedError

    def run(self, i: int) -> tuple[float, ...]:
        raise NotImplementedError

    def check(self, i: int, values: tuple[float, ...]) -> str | None:
        """Compare op ``i``'s values with the reference; None when they match."""
        entry = self.entry(i)
        want = self.reference["values"][entry]
        bad = [f"{name}={got!r} (reference {ref!r})"
               for (name, rtol, atol), got, ref in zip(self.fields, values, want)
               if not _close(got, ref, rtol, atol)]
        return f"entry {entry}: " + ", ".join(bad) if bad else None

    def reset(self) -> None:
        """Forget state carried from op to op (used after the warm-up op)."""

    @classmethod
    def derived_reference(cls, values: list[list[float]]) -> dict:
        """Reference entries computed from the whole pool's values."""
        return {}


class ChainWorkload(Workload):
    """run_chain -> estimate_parameters -> assemble_budget -> secure_key_rate.

    100k symbols, 11/101-tap truncated RRC, 10-bit DAC/ADC, 50 km. The
    photon number cycles through a seeded permutation of PHOTONS and every
    op draws a fresh chain seed: entry ``j`` pairs chain seed
    ``SEED_BASE + j`` with ``PHOTONS[j % len(PHOTONS)]``.
    """

    name = "chain-100k"
    # estimates and key rate: 1e-10 relative, as for rx symbols; the four
    # budget terms and the effective transmittance: 1e-9 relative
    fields = (("skr", 1e-9, 1e-12), ("tau_hat", 1e-10, 0.0),
              ("n_ex_hat", 1e-10, 0.0), ("budget.channel", 1e-9, 0.0),
              ("budget.isi", 1e-9, 0.0), ("budget.dac", 1e-9, 0.0),
              ("budget.adc", 1e-9, 0.0), ("budget.transmittance", 1e-9, 0.0))
    PHOTONS = (0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 1.8, 2.1)
    SEED_BASE = 10_000
    pool_size = 256

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.env = link.LinkConfig(distance_km=50.0, channel_excess_photons=1e-3,
                                   dac=QuantizerSpec(bits=10),
                                   adc=QuantizerSpec(bits=10),
                                   tx_len=11, rx_len=101, num_symbols=100_000)
        self.h_tx, self.h_rx = link.baseline_filters(self.env)
        k = len(self.PHOTONS)
        self.photon_order = self._order(k)
        # per photon number, the order of its pool entries' chain seeds
        self.seed_order = [self._order(self.pool_size // k) for _ in range(k)]

    def entry(self, i):
        k = len(self.PHOTONS)
        p = int(self.photon_order[i % k])
        return int(self.seed_order[p][(i // k) % (self.pool_size // k)]) * k + p

    def run(self, i):
        j = self.entry(i)
        n = self.PHOTONS[j % len(self.PHOTONS)]
        config = replace(self.env, seed=self.SEED_BASE + j)
        result = link.run_chain(config, self.h_tx, self.h_rx, n)
        est = link.estimate_parameters(result.tx_symbols, result.rx_symbols)
        budget = link.assemble_budget(config, result.isi, n, result.dac_report,
                                      result.adc_report)
        skr = keyrate.secure_key_rate(keyrate.SkrInputs(
            mean_photon=n, transmittance=min(est.tau_hat, 1.0),
            excess_photons=est.n_ex_clipped + config.channel_excess_photons))
        return (skr, est.tau_hat, est.n_ex_hat, budget.channel, budget.isi,
                budget.dac, budget.adc, budget.transmittance)


class OptimizeWorkload(Workload):
    """One ``optimize`` iteration: 16 episodes plus ``reinforce_update``.

    10k symbols, 11/101 taps, 100 km, 1e-4 excess photons: the optimizer
    setting of acceptance criteria 5 and 7. The pool holds TRAJECTORIES
    runs of LENGTH iterations each; op ``k`` of a trajectory passes the
    policy that op ``k - 1`` returned back to ``optimize`` with
    ``iterations=1``, so each op also evaluates the policy mean once (17
    chains per op). Trajectory ``t`` starts from the baseline filters at
    ``START_PHOTONS[t]``.
    """

    name = "optimize-10k"
    # rewards are differences of O(1) bit terms, near 0 at 100 km
    fields = (("best_reward", 1e-9, 1e-10), ("mean_reward", 1e-9, 1e-10))
    TRAJECTORIES = 16
    LENGTH = 16
    SEED_BASE = 30_000
    pool_size = TRAJECTORIES * LENGTH

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.env = link.LinkConfig(distance_km=100.0, channel_excess_photons=1e-4,
                                   tx_len=11, rx_len=101, num_symbols=10_000)
        self.h_tx, self.h_rx = link.baseline_filters(self.env)
        self.start_photons = np.geomspace(0.5, 4.0, self.TRAJECTORIES)
        self.configs = [reinforce.OptimizerConfig(batch_size=16, iterations=1,
                                                  seed=self.SEED_BASE + j)
                        for j in range(self.pool_size)]
        self.trajectory_order = self._order(self.TRAJECTORIES)
        self.policy = None

    def entry(self, i):
        t = int(self.trajectory_order[(i // self.LENGTH) % self.TRAJECTORIES])
        return t * self.LENGTH + i % self.LENGTH

    def run(self, i):
        j = self.entry(i)
        if j % self.LENGTH == 0 or self.policy is None:
            self.policy = reinforce.PolicyState.from_params(reinforce.TransceiverParams(
                self.h_tx, self.h_rx, float(self.start_photons[j // self.LENGTH])))
        result = reinforce.optimize(self.env, self.policy, self.configs[j])
        self.policy = result.policy
        return result.best_reward, result.trace[-1].mean_reward

    def reset(self):
        self.policy = None


class ScanWorkload(Workload):
    """One grid point of ``photon_scan`` with the near-ideal reference.

    1001/1001-tap RRC filters and 16-bit converters (the reference point of
    acceptance criteria 6 and 8) at 50k symbols, 50 km, 1e-3 excess
    photons, on criterion 6's 15-point photon grid. The pool holds SCANS
    chain seeds; a run walks each scan's grid in ascending order and, at
    its last point, also checks the argmax of the curve it collected.
    """

    name = "scan-1001"
    fields = (("skr", 1e-9, 1e-12),)
    GRID = tuple(float(n) for n in np.geomspace(0.3, 20.0, 15))
    SCANS = 16
    SEED_BASE = 20_000
    pool_size = SCANS * len(GRID)

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        quant = QuantizerSpec(bits=16)
        base = link.LinkConfig(distance_km=50.0, channel_excess_photons=1e-3,
                               dac=quant, adc=quant, tx_len=1001, rx_len=1001,
                               num_symbols=50_000)
        self.h_tx, self.h_rx = link.baseline_filters(base)
        self.envs = [replace(base, seed=self.SEED_BASE + s) for s in range(self.SCANS)]
        self.scan_order = self._order(self.SCANS)
        self.curve: list[float] = []

    def entry(self, i):
        g = len(self.GRID)
        return int(self.scan_order[(i // g) % self.SCANS]) * g + i % g

    def run(self, i):
        j = self.entry(i)
        g = len(self.GRID)
        _, curve = experiments.photon_scan(self.envs[j // g], [self.GRID[j % g]],
                                           h_tx=self.h_tx, h_rx=self.h_rx)
        return (curve[0]["skr_bits_per_symbol"],)

    def check(self, i, values):
        g = len(self.GRID)
        if i % g == 0:
            self.curve = []
        self.curve.append(values[0])
        problem = super().check(i, values)
        if problem is None and len(self.curve) == g:
            scan = self.entry(i) // g
            got = int(np.argmax(self.curve))
            want = self.reference["argmax"][scan]
            if got != want:
                problem = f"scan {scan}: argmax index {got} (reference {want})"
        return problem

    def reset(self):
        self.curve = []

    @classmethod
    def derived_reference(cls, values):
        g = len(cls.GRID)
        return {"argmax": [int(np.argmax([v[0] for v in values[s * g:(s + 1) * g]]))
                           for s in range(cls.SCANS)]}


WORKLOADS = {w.name: w for w in (ChainWorkload, OptimizeWorkload, ScanWorkload)}
