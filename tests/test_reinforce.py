import os
from dataclasses import replace

import numpy as np
import pytest

from cvqkdsim import reinforce
from cvqkdsim.keyrate import devetak_winter_rate
from cvqkdsim.link import (LinkConfig, baseline_filters, effective_response,
                           estimate_parameters, run_chain)
from cvqkdsim.quantization import QuantizerSpec
from cvqkdsim.reinforce import (Episode, GroupSigmas, OptimizerConfig,
                                PolicyState, TransceiverParams, chain_reward,
                                optimize,
                                reinforce_search, reinforce_update,
                                sample_episode, score_function_step)


def _small_env(**overrides):
    defaults = dict(distance_km=20.0, channel_excess_photons=1e-3,
                    dac=QuantizerSpec(bits=12), adc=QuantizerSpec(bits=12),
                    tx_len=11, rx_len=21, num_symbols=3_000, seed=10)
    defaults.update(overrides)
    return LinkConfig(**defaults)


def _policy(env, mean_photon=2.5, sigma=None):
    h_tx, h_rx = baseline_filters(env)
    return PolicyState.from_params(TransceiverParams(h_tx, h_rx, mean_photon),
                                   sigma=sigma if sigma is not None else GroupSigmas())


class TestChainReward:
    @pytest.mark.parametrize("overrides", [
        {}, {"dac": None}, {"adc": None},
        {"dac": QuantizerSpec(bits=16), "adc": QuantizerSpec(bits=16),
         "tx_len": 1001, "rx_len": 1001}],
        ids=["12_bit", "no_dac", "no_adc", "1001_taps_16_bit"])
    def test_equals_rate_of_the_full_chain(self, overrides):
        # the reward skips the converter reports; the rate is the same bits
        env = _small_env(**overrides)
        params = _policy(env).decode()
        full = run_chain(replace(env, seed=7), params.h_tx, params.h_rx,
                         params.mean_photon)
        est = estimate_parameters(full.tx_symbols, full.rx_symbols)
        expected = devetak_winter_rate(est.key_rate_inputs(
            params.mean_photon, env.channel_excess_photons))
        assert chain_reward(env, params, chain_seed=7) == expected


class TestSampleEpisode:
    def test_degenerate_policy_reproduces_mean(self):
        env = _small_env()
        policy = _policy(env, sigma=GroupSigmas(tx=0.0, rx=0.0, n=0.0))
        cfg = OptimizerConfig(batch_size=2, iterations=1)
        ep_a = sample_episode(policy, env, episode_seed=1, config=cfg,
                              chain_seed=env.seed)
        ep_b = sample_episode(policy, env, episode_seed=2, config=cfg,
                              chain_seed=env.seed)
        np.testing.assert_array_equal(ep_a.raw_tx, policy.theta_tx)
        np.testing.assert_array_equal(ep_a.raw_rx, policy.theta_rx)
        assert ep_a.raw_log_n == policy.theta_log_n
        assert ep_a.reward == ep_b.reward

    def test_deterministic_for_fixed_seed(self):
        env = _small_env()
        policy = _policy(env)
        cfg = OptimizerConfig(batch_size=2, iterations=1)
        one = sample_episode(policy, env, episode_seed=5, config=cfg,
                             chain_seed=env.seed)
        two = sample_episode(policy, env, episode_seed=5, config=cfg,
                             chain_seed=env.seed)
        assert one.reward == two.reward
        np.testing.assert_array_equal(one.raw_tx, two.raw_tx)

    def test_local_smoothness_of_reward(self):
        env = _small_env(tx_len=41, rx_len=41)
        policy = _policy(env, sigma=GroupSigmas(tx=1e-3, rx=0.0, n=0.0))
        cfg = OptimizerConfig(batch_size=2, iterations=1)
        rewards = [sample_episode(policy, env, episode_seed=s, config=cfg,
                                  chain_seed=env.seed).reward
                   for s in range(10)]
        spread = (max(rewards) - min(rewards)) / abs(np.mean(rewards))
        assert spread < 0.01

    def test_overflowing_photon_coordinate_is_a_failed_episode(self):
        env = _small_env()
        policy = replace(_policy(env, sigma=GroupSigmas(tx=0.0, rx=0.0, n=0.0)),
                         theta_log_n=800.0)
        with pytest.raises(ValueError, match="log_n = 800"):
            policy.decode()
        ep = sample_episode(policy, env, episode_seed=1,
                            config=OptimizerConfig(batch_size=2, iterations=1),
                            chain_seed=env.seed)
        assert ep.params is None and "log_n" in ep.error


    @pytest.mark.parametrize("log_n", [705.0, 709.0])
    def test_overflowing_signal_power_is_a_failed_episode(self, log_n):
        # exp(log_n) is finite, but the DAC's full scale overflows (its sum
        # of squares at 705, each square at 709); under the warnings-as-errors
        # setting a numpy overflow warning would escape here instead
        env = _small_env()
        policy = replace(_policy(env, sigma=GroupSigmas(tx=0.0, rx=0.0, n=0.0)),
                         theta_log_n=log_n)
        ep = sample_episode(policy, env, episode_seed=1,
                            config=OptimizerConfig(batch_size=2, iterations=1),
                            chain_seed=env.seed)
        assert ep.params is None and "overflows" in ep.error


class TestReinforceUpdate:
    def _batch(self, policy, rewards, seed=0):
        rng = np.random.default_rng(seed)
        episodes = []
        for r in rewards:
            raw_tx = policy.theta_tx + policy.sigma.tx * rng.standard_normal(
                len(policy.theta_tx))
            raw_rx = policy.theta_rx + policy.sigma.rx * rng.standard_normal(
                len(policy.theta_rx))
            raw_n = policy.theta_log_n + policy.sigma.n * rng.standard_normal()
            episodes.append(Episode(raw_tx=raw_tx, raw_rx=raw_rx, raw_log_n=raw_n,
                                    params=None, reward=float(r)))
        return episodes

    def test_equal_rewards_leave_mean_unchanged(self):
        env = _small_env()
        policy = _policy(env)
        cfg = OptimizerConfig(batch_size=8, iterations=1)
        batch = self._batch(policy, np.full(8, 0.42))
        updated = reinforce_update(policy, batch, cfg)
        np.testing.assert_allclose(updated.theta_tx, policy.theta_tx, atol=1e-12)
        np.testing.assert_allclose(updated.theta_rx, policy.theta_rx, atol=1e-12)
        assert updated.theta_log_n == pytest.approx(policy.theta_log_n, abs=1e-12)

    def test_baseline_shift_invariance(self):
        # with the baseline at the batch mean, adding a constant to every
        # reward cancels exactly
        env = _small_env()
        policy = _policy(env)
        cfg = OptimizerConfig(batch_size=8, iterations=1)
        rewards = np.linspace(-0.2, 0.7, 8)
        plain = reinforce_update(policy, self._batch(policy, rewards, seed=3), cfg)
        shifted = reinforce_update(policy, self._batch(policy, rewards + 5.0, seed=3), cfg)
        np.testing.assert_allclose(plain.theta_tx, shifted.theta_tx, atol=1e-12)
        np.testing.assert_allclose(plain.theta_rx, shifted.theta_rx, atol=1e-12)
        assert plain.theta_log_n == pytest.approx(shifted.theta_log_n, abs=1e-12)

    def test_filters_stay_unit_energy(self):
        env = _small_env()
        policy = _policy(env)
        cfg = OptimizerConfig(batch_size=8, iterations=1)
        updated = reinforce_update(
            policy, self._batch(policy, np.linspace(0, 1, 8), seed=4), cfg)
        assert np.sum(updated.theta_tx**2) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(updated.theta_rx**2) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_wrong_batch_size(self):
        env = _small_env()
        policy = _policy(env)
        cfg = OptimizerConfig(batch_size=8, iterations=1)
        with pytest.raises(ValueError):
            reinforce_update(policy, self._batch(policy, [1.0, 2.0]), cfg)

    @staticmethod
    def _at_log_n(policy, log_n, reward, error=None):
        return Episode(raw_tx=policy.theta_tx, raw_rx=policy.theta_rx,
                       raw_log_n=log_n, params=None, reward=reward, error=error)

    def test_failed_episodes_rank_below_negative_rewards(self):
        # lossy links give negative valid rewards; a failure (reward 0.0)
        # must not pull the photon number toward where the chain failed.
        # The valid pairs sit symmetrically, so only the failures steer.
        env = _small_env()
        policy = _policy(env)
        cfg = OptimizerConfig(batch_size=6, iterations=1)
        n0, d = policy.theta_log_n, policy.sigma.n
        batch = [self._at_log_n(policy, n0 + d, -0.3),
                 self._at_log_n(policy, n0 - d, -0.3),
                 self._at_log_n(policy, n0 + d, -0.1),
                 self._at_log_n(policy, n0 - d, -0.1),
                 self._at_log_n(policy, n0 + 2 * d, 0.0, error="non-physical"),
                 self._at_log_n(policy, n0 + 2 * d, 0.0, error="non-physical")]
        updated = reinforce_update(policy, batch, cfg)
        assert updated.theta_log_n < n0

    def test_all_failed_batch_takes_zero_step(self):
        env = _small_env()
        policy = replace(_policy(env), baseline=-0.2)
        cfg = OptimizerConfig(batch_size=4, iterations=1)
        batch = [self._at_log_n(policy, policy.theta_log_n + 0.1 * i, 0.0,
                                error="non-physical") for i in range(4)]
        updated = reinforce_update(policy, batch, cfg)
        np.testing.assert_array_equal(updated.theta_tx, policy.theta_tx)
        np.testing.assert_array_equal(updated.theta_rx, policy.theta_rx)
        assert updated.theta_log_n == policy.theta_log_n
        assert updated.baseline == policy.baseline
        assert updated.sigma == policy.sigma.decayed(cfg.sigma_decay,
                                                     cfg.sigma_floor)

    def test_sigma_decays_with_floor(self):
        env = _small_env()
        policy = _policy(env, sigma=GroupSigmas(tx=0.1, rx=0.1, n=0.1))
        cfg = OptimizerConfig(batch_size=4, iterations=1, sigma_decay=0.5,
                              sigma_floor=0.04)
        updated = reinforce_update(policy, self._batch(policy, np.ones(4)), cfg)
        assert updated.sigma.tx == pytest.approx(0.05)
        twice = reinforce_update(updated, self._batch(updated, np.ones(4)), cfg)
        assert twice.sigma.tx == pytest.approx(0.04)  # floored


class TestQuadraticBandit:
    def test_one_dimensional_convergence(self):
        rng = np.random.default_rng(0)
        target = rng.uniform(-1, 1, 1)
        theta, best_trace = reinforce_search(
            lambda th: -np.sum((th - target) ** 2), np.zeros(1),
            iterations=500, batch_size=32, learning_rate=0.05, sigma=0.1,
            sigma_decay=0.99, seed=1)
        assert np.linalg.norm(theta - target) < 0.05
        assert all(b >= a for a, b in zip(best_trace, best_trace[1:]))


class TestOptimize:
    def test_zero_iterations_returns_evaluated_init(self):
        env = _small_env()
        policy = _policy(env)
        cfg = OptimizerConfig(batch_size=4, iterations=0, seed=5)
        result = optimize(env, policy, cfg)
        assert result.trace == []
        assert np.isfinite(result.best_reward)
        np.testing.assert_array_equal(result.best_params.h_tx.taps,
                                      policy.decode().h_tx.taps)

    def test_trace_is_reproducible_across_worker_counts(self):
        env = _small_env()
        policy = _policy(env)
        cfg = OptimizerConfig(batch_size=4, iterations=2, seed=6)
        serial = optimize(env, policy, cfg, workers=1)
        parallel = optimize(env, policy, cfg, workers=2)
        assert serial.trace == parallel.trace
        assert serial.best_reward == parallel.best_reward

    @pytest.mark.parametrize("workers", [0, -3])
    def test_refuses_workers_below_one(self, workers, monkeypatch):
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain ran")
        monkeypatch.setattr(reinforce, "chain_reward", no_chain)
        env = _small_env()
        cfg = OptimizerConfig(batch_size=4, iterations=1, seed=6)
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            optimize(env, _policy(env), cfg, workers=workers)

    def test_refuses_workers_over_the_bound(self, monkeypatch):
        # refused before the start's chain and before any thread can start
        def no_run(*args, **kwargs):
            raise AssertionError("a chain or a thread pool started")
        monkeypatch.setattr(reinforce, "chain_reward", no_run)
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_run)
        env = _small_env()
        cfg = OptimizerConfig(batch_size=reinforce.MAX_WORKERS + 1, iterations=1)
        with pytest.raises(ValueError, match=f"workers must be <= {reinforce.MAX_WORKERS}, "
                                             f"got {reinforce.MAX_WORKERS + 1}"):
            optimize(env, _policy(env), cfg, workers=reinforce.MAX_WORKERS + 1)

    def test_workers_evaluate_every_episode_in_this_process(self, monkeypatch):
        # a forked worker would record into its own memory, not into pids
        env = _small_env()
        policy = _policy(env)
        cfg = OptimizerConfig(batch_size=4, iterations=2, seed=6)
        serial = optimize(env, policy, cfg, workers=1)
        pids = []

        def recorded(*args, **kwargs):
            pids.append(os.getpid())
            return chain_reward(*args, **kwargs)

        monkeypatch.setattr(reinforce, "chain_reward", recorded)
        threaded = optimize(env, policy, cfg, workers=2)
        # the start, then every episode of every batch
        assert pids == [os.getpid()] * (1 + cfg.iterations * cfg.batch_size)
        assert threaded.trace == serial.trace

    def test_best_reward_trace_monotone(self):
        env = _small_env()
        policy = _policy(env)
        cfg = OptimizerConfig(batch_size=6, iterations=8, seed=7)
        result = optimize(env, policy, cfg)
        best = [row.best_reward for row in result.trace]
        assert all(b >= a for a, b in zip(best, best[1:]))
        assert result.best_reward >= best[0]

    def test_failing_start_recovers_through_valid_episode(self):
        # at 1e300 photons the key rate fails (the variances overflow); the
        # wide photon exploration reaches valid episodes
        env = _small_env()
        policy = _policy(env, mean_photon=1e300, sigma=GroupSigmas(n=300.0))
        with pytest.raises(ArithmeticError):
            chain_reward(env, policy.decode(), chain_seed=0)
        result = optimize(env, policy, OptimizerConfig(batch_size=8, iterations=2,
                                                       seed=15))
        # the first batch has no valid episode either; the loop runs on
        assert result.trace[0].best_reward == -np.inf
        assert np.isfinite(result.best_reward)
        assert result.best_params.mean_photon < 1e100

    def test_failing_start_keeps_negative_first_batch(self):
        # here the first batch's valid episodes sit at huge photon numbers,
        # where the estimated excess noise leaves no key
        env = _small_env()
        policy = _policy(env, mean_photon=1e300, sigma=GroupSigmas(n=300.0))
        result = optimize(env, policy, OptimizerConfig(batch_size=8, iterations=2,
                                                       seed=4))
        assert -np.inf < result.trace[0].best_reward < 0.0
        assert np.isfinite(result.best_reward)
        assert result.best_params.mean_photon < 1e100

    @pytest.mark.parametrize("mean_photon", [1e10, 1e20, 1e50])
    def test_huge_photon_numbers_give_no_key(self, mean_photon):
        # the excess noise estimated from the chain grows with n, so the
        # rate falls far below zero instead of cancelling to a positive value
        env = _small_env()
        reward = chain_reward(env, _policy(env, mean_photon=mean_photon).decode(),
                              chain_seed=0)
        assert reward < -10.0

    def test_failing_start_without_valid_episode_raises(self):
        env = _small_env()
        policy = _policy(env, mean_photon=1e300, sigma=GroupSigmas(n=1e-3))
        cfg = OptimizerConfig(batch_size=4, iterations=1)
        # the start's own chain error, at the chain seed of iteration 0
        with pytest.raises(ArithmeticError) as start:
            chain_reward(env, policy.decode(),
                         chain_seed=reinforce._episode_seeds(cfg.seed, 0, 0)[1])
        with pytest.raises(ValueError, match="no valid reward") as raised:
            optimize(env, policy, cfg)
        assert str(raised.value).endswith(f"the start failed with: {start.value}")

    def test_reduces_isi_from_truncated_start(self):
        # quantization disabled, short transmitter: the learned pair must
        # leak less symbol-spaced energy than the truncated-RRC start
        env = _small_env(distance_km=10.0, dac=None, adc=None, tx_len=11,
                         rx_len=41, num_symbols=5_000)
        h_tx, h_rx = baseline_filters(env)
        lpf = env.lpf_filter()
        init_isi = effective_response(h_tx, lpf, h_rx).isi_sum
        policy = PolicyState.from_params(TransceiverParams(h_tx, h_rx, 3.0))
        cfg = OptimizerConfig(batch_size=12, iterations=40, seed=8)
        result = optimize(env, policy, cfg)
        best = result.best_params
        final_isi = effective_response(best.h_tx, lpf, best.h_rx).isi_sum
        assert final_isi < init_isi


class TestScoreFunctionStep:
    def test_zero_sigma_is_identity(self):
        theta = np.array([1.0, 2.0])
        out = score_function_step(theta, np.ones((4, 2)), np.ones(4), 0.0, 0.0, 0.1)
        np.testing.assert_array_equal(out, theta)

    def test_matches_manual_estimate(self):
        rng = np.random.default_rng(9)
        theta = rng.normal(size=3)
        samples = theta + 0.2 * rng.standard_normal((16, 3))
        rewards = rng.normal(size=16)
        baseline = float(rewards.mean())
        manual = theta + 0.05 * ((rewards - baseline)[:, None]
                                 * (samples - theta)).mean(axis=0) / 0.04
        out = score_function_step(theta, samples, rewards, baseline, 0.2, 0.05)
        np.testing.assert_allclose(out, manual, atol=1e-12)
