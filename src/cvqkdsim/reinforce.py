"""Gradient-free policy-gradient search over transceiver parameters.

The policy is a factorized Gaussian over the raw parameter vector
(tx taps, rx taps, log mean-photon) with per-group exploration scales.
Rewards come from running the chain and never from differentiating it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .dsp import FirFilter
from .keyrate import DEFAULT_BETA, SkrInputs, devetak_winter_rate
from .link import LinkConfig, estimate_parameters, run_chain
# unused here; perfbench/tracing.py patches both names in this module
from .keyrate import secure_key_rate  # noqa: F401
from .link import assemble_budget  # noqa: F401

# weight of the old baseline in the moving average of batch-mean rewards
BASELINE_DECAY = 0.9


@dataclass(frozen=True)
class GroupSigmas:
    """Per-group exploration standard deviations.

    The filter defaults keep the injected perturbation energy sigma^2 * dim
    of both tap groups near 2.5e-3 for the usual 11-tap / 101-tap lengths,
    small enough not to distort the interference budget the episodes see.
    """

    tx: float = 0.015
    rx: float = 0.005
    n: float = 0.10

    def decayed(self, factor: float, floor: float) -> "GroupSigmas":
        return GroupSigmas(tx=max(self.tx * factor, floor),
                           rx=max(self.rx * factor, floor),
                           n=max(self.n * factor, floor))


@dataclass(frozen=True)
class GroupRates:
    """Per-group learning rates.

    These are normalized step scales: advantages are standardized by the
    batch reward spread, so the update magnitude is rate * sigma regardless
    of the reward scale, which keeps the tap updates stable across operating
    points whose reward sensitivity spans orders of magnitude.
    """

    tx: float = 0.3
    rx: float = 0.3
    n: float = 1.0


@dataclass(frozen=True)
class TransceiverParams:
    """A concrete deployable operating point."""

    h_tx: FirFilter
    h_rx: FirFilter
    mean_photon: float


@dataclass(frozen=True)
class PolicyState:
    """Gaussian policy mean plus exploration scales and bookkeeping."""

    theta_tx: np.ndarray
    theta_rx: np.ndarray
    theta_log_n: float
    sigma: GroupSigmas
    baseline: float | None = None
    best_params: TransceiverParams | None = None
    best_reward: float = -np.inf

    def __post_init__(self):
        object.__setattr__(self, "theta_tx", np.asarray(self.theta_tx, dtype=float))
        object.__setattr__(self, "theta_rx", np.asarray(self.theta_rx, dtype=float))

    @classmethod
    def from_params(cls, params: TransceiverParams,
                    sigma: GroupSigmas | None = None) -> "PolicyState":
        return cls(theta_tx=params.h_tx.unit_energy().taps,
                   theta_rx=params.h_rx.unit_energy().taps,
                   theta_log_n=float(np.log(params.mean_photon)),
                   sigma=sigma if sigma is not None else GroupSigmas())

    def decode(self) -> TransceiverParams:
        """Deployable parameters at the policy mean (unit-energy filters)."""
        return _decode(self.theta_tx, self.theta_rx, self.theta_log_n)


_MAX_LOG_N = float(np.log(np.finfo(float).max))  # exp of anything above is inf


def _decode(raw_tx: np.ndarray, raw_rx: np.ndarray, log_n: float) -> TransceiverParams:
    if log_n > _MAX_LOG_N:
        raise ValueError(f"photon coordinate log_n = {log_n:.6g} overflows the "
                         "mean photon number")
    return TransceiverParams(
        h_tx=FirFilter(raw_tx).unit_energy(),
        h_rx=FirFilter(raw_rx).unit_energy(),
        mean_photon=float(np.exp(log_n)),
    )


@dataclass(frozen=True)
class Episode:
    """One sampled parameter vector with its evaluated reward.

    A failed chain run leaves ``params`` None and sets ``error``.
    """

    raw_tx: np.ndarray
    raw_rx: np.ndarray
    raw_log_n: float
    params: TransceiverParams | None
    reward: float
    error: str | None = None


@dataclass(frozen=True)
class OptimizerConfig:
    batch_size: int = 16
    learning_rate: GroupRates = field(default_factory=GroupRates)
    iterations: int = 100
    sigma_init: GroupSigmas = field(default_factory=GroupSigmas)
    sigma_decay: float = 0.985
    sigma_floor: float = 1e-4
    seed: int = 0
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        rates, sigmas = self.learning_rate, self.sigma_init
        if not all(x > 0 for x in (rates.tx, rates.rx, rates.n)):
            raise ValueError("learning_rate must be positive")
        if not all(x > 0 for x in (sigmas.tx, sigmas.rx, sigmas.n)):
            raise ValueError("sigma_init must be positive")
        if not self.sigma_floor >= 0:
            raise ValueError("sigma_floor must be >= 0")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not 0.0 < self.sigma_decay <= 1.0:
            raise ValueError("sigma_decay must be in (0, 1]")
        SkrInputs(1.0, 1.0, 0.0, self.beta)  # the key rate's own beta check


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    mean_reward: float
    best_reward: float
    sigma_tx: float
    sigma_rx: float
    sigma_n: float


@dataclass(frozen=True)
class OptimizeResult:
    policy: PolicyState
    best_params: TransceiverParams
    best_reward: float
    trace: list[TraceRow]


def chain_reward(env: LinkConfig, params: TransceiverParams, chain_seed: int,
                 beta: float = DEFAULT_BETA) -> float:
    """Run the chain once and score the resulting operating point.

    The reward mirrors the measurement pipeline: the unclipped
    Devetak-Winter rate at (tau_hat, n_ex_hat + n_ch) estimated from the
    received data.
    """
    result = run_chain(replace(env, seed=chain_seed), params.h_tx, params.h_rx,
                       params.mean_photon)
    est = estimate_parameters(result.tx_symbols, result.rx_symbols)
    return devetak_winter_rate(est.key_rate_inputs(
        params.mean_photon, env.channel_excess_photons, beta))


def _episode_seeds(master_seed: int, iteration: int, index: int) -> tuple[int, int]:
    """Derive (perturbation seed, chain seed) for one episode.

    Depends only on (master seed, iteration, index), so results are
    independent of scheduling and worker count. Iteration 0 is reserved
    for the initial policy-mean evaluation.
    """
    ss = np.random.SeedSequence((master_seed, iteration, index))
    children = ss.generate_state(2, np.uint64)
    return int(children[0]), int(children[1])


def sample_episode(policy: PolicyState, env: LinkConfig, episode_seed: int,
                   config: OptimizerConfig, chain_seed: int) -> Episode:
    """Draw one Gaussian perturbation of the policy and evaluate it.

    ``episode_seed`` drives the parameter perturbation and ``chain_seed``
    the chain's symbols (the optimizer loop passes one derived seed shared
    by the whole batch). Chain failures
    become episodes with an error flag, so that a non-physical sample cannot
    abort the optimizer; ``reinforce_update`` ranks them below every valid
    episode of their batch.
    """
    rng = np.random.default_rng(episode_seed)
    raw_tx = policy.theta_tx + policy.sigma.tx * rng.standard_normal(len(policy.theta_tx))
    raw_rx = policy.theta_rx + policy.sigma.rx * rng.standard_normal(len(policy.theta_rx))
    raw_log_n = policy.theta_log_n + policy.sigma.n * rng.standard_normal()
    try:
        params = _decode(raw_tx, raw_rx, raw_log_n)
        reward = chain_reward(env, params, chain_seed, beta=config.beta)
        return Episode(raw_tx=raw_tx, raw_rx=raw_rx, raw_log_n=raw_log_n,
                       params=params, reward=reward)
    except (ValueError, ArithmeticError) as exc:
        return Episode(raw_tx=raw_tx, raw_rx=raw_rx, raw_log_n=raw_log_n,
                       params=None, reward=0.0, error=str(exc))


def score_function_step(theta: np.ndarray, samples: np.ndarray,
                        rewards: np.ndarray, baseline: float, sigma: float,
                        learning_rate: float) -> np.ndarray:
    """One REINFORCE step on a Gaussian-perturbed parameter vector.

    g_hat = mean_i (r_i - baseline) (theta'_i - theta) / sigma^2, followed
    by theta <- theta + lr * g_hat. With sigma = 0 the samples carry no
    information and theta is returned unchanged.
    """
    if sigma <= 0:
        return np.asarray(theta, dtype=float)
    theta = np.asarray(theta, dtype=float)
    adv = np.asarray(rewards, dtype=float) - baseline
    dev = np.atleast_2d(samples) - theta
    g_hat = np.tensordot(adv, dev, axes=(0, 0)) / (len(adv) * sigma**2)
    return theta + learning_rate * g_hat


def reinforce_update(policy: PolicyState, batch: list[Episode],
                     config: OptimizerConfig) -> PolicyState:
    """Score-function update of the policy mean from one episode batch.

    Each group takes its own step, the filter groups are renormalized to
    unit energy, the baseline moves by EMA (``BASELINE_DECAY``), and the
    sigmas decay. The advantages are standardized by the batch reward
    spread, which makes the step size rate * sigma in parameter units (an
    equal-reward batch produces a zero step, and shifting every reward by a
    constant cancels).
    A failed episode takes the lowest valid reward of its batch, since
    valid rewards may be negative; a batch with no valid episode takes a
    zero step.
    """
    if len(batch) != config.batch_size:
        raise ValueError(f"expected a batch of {config.batch_size}, got {len(batch)}")
    sigma = policy.sigma.decayed(config.sigma_decay, config.sigma_floor)
    rewards = np.array([ep.reward for ep in batch])
    failed = np.array([ep.error is not None for ep in batch])
    if failed.all():
        return replace(policy, sigma=sigma)
    rewards[failed] = rewards[~failed].min()
    baseline = float(rewards.mean()) if policy.baseline is None else policy.baseline

    spread = float(rewards.std())
    scale = {"tx": policy.sigma.tx**2 / spread,
             "rx": policy.sigma.rx**2 / spread,
             "n": policy.sigma.n**2 / spread} if spread > 0 else \
            {"tx": 0.0, "rx": 0.0, "n": 0.0}

    theta_tx = score_function_step(
        policy.theta_tx, np.stack([ep.raw_tx for ep in batch]), rewards,
        baseline, policy.sigma.tx, config.learning_rate.tx * scale["tx"])
    theta_rx = score_function_step(
        policy.theta_rx, np.stack([ep.raw_rx for ep in batch]), rewards,
        baseline, policy.sigma.rx, config.learning_rate.rx * scale["rx"])
    theta_log_n = float(score_function_step(
        np.array([policy.theta_log_n]),
        np.array([[ep.raw_log_n] for ep in batch]), rewards,
        baseline, policy.sigma.n, config.learning_rate.n * scale["n"])[0])

    theta_tx = theta_tx / np.linalg.norm(theta_tx)
    theta_rx = theta_rx / np.linalg.norm(theta_rx)

    new_baseline = (float(rewards.mean()) if policy.baseline is None
                    else BASELINE_DECAY * policy.baseline
                    + (1.0 - BASELINE_DECAY) * float(rewards.mean()))

    best_params, best_reward = policy.best_params, policy.best_reward
    for ep in batch:
        if ep.params is not None and ep.reward > best_reward:
            best_params, best_reward = ep.params, ep.reward

    return PolicyState(theta_tx=theta_tx, theta_rx=theta_rx,
                       theta_log_n=theta_log_n, sigma=sigma,
                       baseline=new_baseline,
                       best_params=best_params, best_reward=best_reward)


def _episode_task(args) -> Episode:
    policy, env, ep_seed, chain_seed, config = args
    return sample_episode(policy, env, ep_seed, config, chain_seed)


def optimize(env: LinkConfig, init: PolicyState, config: OptimizerConfig,
             workers: int = 1) -> OptimizeResult:
    """Run the full REINFORCE loop and return the best-so-far parameters.

    The initial policy mean is evaluated first, so with iterations = 0 the
    result is the initial operating point and its reward. A start whose
    chain fails is guarded like an episode: it leaves no best point, and
    the loop runs on. ``ValueError`` is raised only when neither the start
    nor any episode gave a valid reward. Per-episode seeds derive from
    (config.seed, iteration, index); traces are reproducible for any
    worker count.
    """
    _, init_chain_seed = _episode_seeds(config.seed, 0, 0)
    try:
        init_params = init.decode()
        init_reward = chain_reward(env, init_params, init_chain_seed,
                                   beta=config.beta)
        policy = replace(init, best_params=init_params, best_reward=init_reward)
    except (ValueError, ArithmeticError) as exc:
        init_error = str(exc)
        policy = replace(init, best_params=None, best_reward=-np.inf)

    trace: list[TraceRow] = []
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for iteration in range(1, config.iterations + 1):
            seeds = [_episode_seeds(config.seed, iteration, idx)
                     for idx in range(config.batch_size)]
            # one symbol realization per batch: the shared estimation
            # noise cancels against the batch-mean baseline instead of
            # driving a random walk of the high-dimensional tap groups
            shared = seeds[0][1]
            tasks = [(policy, env, ep, shared, config) for ep, _ in seeds]
            if pool is not None:
                batch = list(pool.map(_episode_task, tasks))
            else:
                batch = [_episode_task(t) for t in tasks]
            policy = reinforce_update(policy, batch, config)
            trace.append(TraceRow(
                iteration=iteration,
                mean_reward=float(np.mean([ep.reward for ep in batch])),
                best_reward=policy.best_reward,
                sigma_tx=policy.sigma.tx, sigma_rx=policy.sigma.rx,
                sigma_n=policy.sigma.n))
    finally:
        if pool is not None:
            pool.shutdown()

    if policy.best_params is None:
        raise ValueError("no valid reward from the start or any episode; "
                         f"the start failed with: {init_error}")
    return OptimizeResult(policy=policy, best_params=policy.best_params,
                          best_reward=policy.best_reward, trace=trace)


def reinforce_search(reward_fn, theta0: np.ndarray, iterations: int = 500,
                     batch_size: int = 32, learning_rate: float = 0.05,
                     sigma: float = 0.1, sigma_decay: float = 0.99,
                     sigma_floor: float = 1e-4,
                     seed: int = 0) -> tuple[np.ndarray, list[float]]:
    """Plain black-box REINFORCE over one unconstrained parameter vector.

    Drives the same score-function step as the transceiver loop, without
    any renormalization. Returns the final mean and the per-iteration best
    reward trace (monotone non-decreasing).
    """
    rng = np.random.default_rng(seed)
    theta = np.asarray(theta0, dtype=float).copy()
    baseline = None
    best = -np.inf
    best_trace: list[float] = []
    for _ in range(iterations):
        samples = theta + sigma * rng.standard_normal((batch_size, len(theta)))
        rewards = np.array([reward_fn(s) for s in samples])
        b = float(rewards.mean()) if baseline is None else baseline
        theta = score_function_step(theta, samples, rewards, b, sigma,
                                    learning_rate)
        baseline = (float(rewards.mean()) if baseline is None
                    else BASELINE_DECAY * baseline
                    + (1.0 - BASELINE_DECAY) * float(rewards.mean()))
        best = max(best, float(rewards.max()))
        best_trace.append(best)
        sigma = max(sigma * sigma_decay, sigma_floor)
    return theta, best_trace
