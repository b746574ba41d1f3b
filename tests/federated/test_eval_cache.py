"""The per-client eval-forward cache: one forward per model version.

``Client.eval_forward`` runs one eval-mode, no-grad forward per model
version and serves ``evaluate`` (both splits) and FedOMD's moment
exchange from it.  These tests pin every event that must change the
version — and the ones that must not — against an uncached reference:
the same run with the cache cleared before every read, which is the
pre-cache behaviour of one forward per call.
"""

import contextlib

import numpy as np
import pytest

from repro.analysis.sanitize import SanitizerSession, StaleCacheError
from repro.autograd import Tensor, no_grad
from repro.core import FedOMDConfig, FedOMDTrainer
from repro.federated.checkpoint import checkpoint_path
from repro.federated.client import Client
from repro.federated.faults import FaultPlan
from repro.graphs import load_dataset, louvain_partition
from repro.obs.metrics import MetricsRegistry, set_registry


@pytest.fixture(scope="module")
def parts():
    g = load_dataset("cora", seed=0, scale=0.12)
    return louvain_partition(g, 3, np.random.default_rng(0)).parts


def make_trainer(parts, faults=None, **overrides):
    cfg = dict(max_rounds=4, patience=50, hidden=16)
    cfg.update(overrides)
    return FedOMDTrainer(parts, FedOMDConfig(**cfg), seed=0, faults=faults)


@contextlib.contextmanager
def patched_eval_forward(wrap):
    real = Client.eval_forward
    Client.eval_forward = wrap(real)
    try:
        yield
    finally:
        Client.eval_forward = real


def uncached():
    """Clear every client's cache before each read: one forward per call."""

    def wrap(real):
        def fresh(self):
            self._eval = None
            return real(self)

        return fresh

    return patched_eval_forward(wrap)


def recording(log):
    """Append a copy of every eval forward served, in call order."""

    def wrap(real):
        def recorded(self):
            logits, hidden = real(self)
            log.append((self.cid, logits.copy(), [h.copy() for h in hidden]))
            return logits, hidden

        return recorded

    return patched_eval_forward(wrap)


def direct_forward(client):
    """The eval forward computed outside the cache."""
    client.model.eval()
    with no_grad():
        logits, hidden = client.model.forward_with_hidden(client.graph)
    return logits.data, [h.data for h in hidden]


def assert_cache_current(client):
    logits, hidden = client.eval_forward()
    want_logits, want_hidden = direct_forward(client)
    assert np.array_equal(logits, want_logits)
    for got, want in zip(hidden, want_hidden):
        assert np.array_equal(got, want)


def final_weights(trainer):
    return [c.get_state() for c in trainer.clients]


def assert_same_run(cached, reference):
    (t_a, h_a), (t_b, h_b) = cached, reference
    assert h_a.metrics_equal(h_b)
    for a, b in zip(final_weights(t_a), final_weights(t_b)):
        assert all(np.array_equal(a[k], b[k]) for k in a)


class TestVersionEvents:
    def test_repeat_reads_share_one_forward(self, parts):
        c = make_trainer(parts).clients[0]
        first = c.eval_forward()
        second = c.eval_forward()
        assert second[0] is first[0] and second[1] is first[1]

    def test_broadcast_set_state_invalidates(self, parts):
        trainer = make_trainer(parts)
        c = trainer.clients[0]
        old_logits, _ = c.eval_forward()
        state = {k: v * 0.5 for k, v in trainer.global_state.items()}
        version = c.version
        trainer._distribute(state)
        assert c.version != version
        logits, _ = c.eval_forward()
        assert logits is not old_logits and not np.array_equal(logits, old_logits)
        assert_cache_current(c)

    def test_training_step_invalidates(self, parts):
        trainer = make_trainer(parts)
        c = trainer.clients[0]
        assert c.has_train_nodes()
        old_logits, _ = c.eval_forward()
        version = c.version
        c.train_step(trainer.local_loss)
        assert c.version != version
        assert not np.array_equal(c.eval_forward()[0], old_logits)
        assert_cache_current(c)

    def test_nan_skipped_step_keeps_cache(self, parts):
        c = make_trainer(parts).clients[0]
        first = c.eval_forward()
        version = c.version

        def nan_loss(client):
            return client.ce_loss() * Tensor(np.array(np.nan))

        loss = c.train_step(nan_loss, nan_guard=True)
        assert np.isnan(loss)
        assert c.version == version
        assert c.eval_forward()[0] is first[0]
        assert_cache_current(c)

    def test_hard_orthogonal_projection_invalidates(self, parts):
        trainer = make_trainer(parts, hard_orthogonal=True)
        before = [c.eval_forward()[0] for c in trainer.clients]
        versions = [c.version for c in trainer.clients]
        trainer.after_local_training(0)
        for c, old, version in zip(trainer.clients, before, versions):
            assert c.version != version
            assert not np.array_equal(c.eval_forward()[0], old)
            assert_cache_current(c)


class TestRunsMatchUncached:
    """A cached run is bitwise the run that recomputes every forward."""

    @staticmethod
    def both(build):
        """Run cached and uncached; every served forward must match too,
        since a stale one can leave the accuracies unchanged."""
        served, reference_served = [], []
        with recording(served):
            cached = build()
            cached_hist = cached.run()
        with uncached(), recording(reference_served):
            reference = build()
            reference_hist = reference.run()
        assert_same_run((cached, cached_hist), (reference, reference_hist))
        assert len(served) == len(reference_served)
        for (cid, logits, hidden), (ref_cid, ref_logits, ref_hidden) in zip(
            served, reference_served
        ):
            assert cid == ref_cid
            assert np.array_equal(logits, ref_logits)
            assert all(np.array_equal(h, r) for h, r in zip(hidden, ref_hidden))
        return cached

    @pytest.mark.parametrize(
        "engine", [{}, {"engine": "async", "quorum": 0.5}], ids=["barrier", "async"]
    )
    def test_hard_orthogonal(self, parts, engine):
        # On the async engine a projected client may still be in flight,
        # so no download bumps its version before the round's evaluation.
        self.both(lambda: make_trainer(parts, hard_orthogonal=True, **engine))

    def test_fault_dropped_client(self, parts):
        # Client 1 sits out rounds 1-2 (no exchange, no step, no upload)
        # but still gets each broadcast, and rejoins in round 3 reading
        # the forward of the model it received.
        plan = FaultPlan.from_spec("drop=1.0:clients=1:rounds=1-2", seed=0)
        assert plan.event(1, 1).kind == "drop" and plan.event(3, 1) is None
        self.both(lambda: make_trainer(parts, faults=plan))

    def test_async_busy_mask(self, parts):
        self.both(lambda: make_trainer(parts, engine="async", quorum=0.4, max_rounds=6))

    def test_sanitized_tripwire_stays_quiet(self, parts):
        self.both(
            lambda: make_trainer(
                parts, sanitize=True, hard_orthogonal=True, engine="async", quorum=0.5
            )
        )


def test_busy_client_keeps_version_across_its_masked_round(parts):
    trainer = make_trainer(parts, engine="async", quorum=0.4, max_rounds=6)
    seen = {}
    real_begin = trainer.begin_round

    def begin_round(round_idx):
        # A client still in flight got no download and ran no step since
        # the previous round's evaluation, so its cache must still hold.
        for c in trainer.clients:
            if c not in trainer.participating_clients():
                cached = c._eval
                assert cached is not None and cached.version == c.version
                seen[round_idx] = c.cid
        return real_begin(round_idx)

    trainer.begin_round = begin_round
    trainer.run()
    assert seen, "no client was ever in flight at a round start"


class Killed(RuntimeError):
    pass


def test_checkpoint_resume_is_bitwise_uninterrupted(parts, tmp_path):
    rounds, kill_at = 6, 4
    ckpt = dict(checkpoint_every=2, checkpoint_dir=str(tmp_path))
    straight = make_trainer(parts, max_rounds=rounds)
    straight_hist = straight.run()

    victim = make_trainer(parts, max_rounds=rounds, **ckpt)
    real = victim.begin_round

    def dying(r):
        if r >= kill_at:
            raise Killed(f"simulated crash at round {r}")
        return real(r)

    victim.begin_round = dying
    with pytest.raises(Killed):
        victim.run()
    resumed = make_trainer(parts, max_rounds=rounds, **ckpt)
    for c in resumed.clients:
        c.eval_forward()  # a cached forward of W₀, stale after the restore
    resumed.resume(checkpoint_path(str(tmp_path)))
    assert all(c._eval.version != c.version for c in resumed.clients)
    resumed_hist = resumed.run()
    assert len(resumed_hist) == rounds
    assert_same_run((resumed, resumed_hist), (straight, straight_hist))


def test_one_eval_forward_per_client_per_round(parts):
    rounds = 4
    trainer = make_trainer(parts, max_rounds=rounds)
    registry = MetricsRegistry()
    prev = set_registry(registry)
    try:
        trainer.run()
    finally:
        set_registry(prev)
    # Round 0's exchange misses (the W₀ download bumped every version);
    # from then on each round evaluates once, and the next exchange and
    # the test split read that forward.  The training forward calls
    # forward_with_hidden directly and is not counted here.
    calls = registry.get("nn.forward_calls", module="OrthoGCN").value
    assert calls == len(parts) * (rounds + 1)


class TestStaleCacheTripwire:
    def test_unbumped_write_raises_under_sanitizer(self, parts):
        c = make_trainer(parts).clients[0]
        with SanitizerSession():
            c.eval_forward()
            c.model.conv_in.weight.data[0, 0] += 1.0
            with pytest.raises(StaleCacheError, match="conv_in.weight"):
                c.eval_forward()

    def test_bumped_write_recomputes(self, parts):
        c = make_trainer(parts).clients[0]
        with SanitizerSession():
            c.eval_forward()
            c.model.conv_in.weight.data[0, 0] += 1.0
            c.bump_version()
            c.eval_forward()
        assert_cache_current(c)

    def test_unsanitized_cache_takes_no_fingerprint(self, parts):
        c = make_trainer(parts).clients[0]
        c.eval_forward()
        assert c._eval.fingerprints is None


class TestFirstStepReuse:
    """The first step of a model version starts from the input layer
    its eval forward recorded, instead of recomputing ``conv_in``."""

    def test_three_gcnconv_forwards_per_client_round(self, parts):
        rounds = 4
        trainer = make_trainer(parts, max_rounds=rounds)
        assert all(c.has_train_nodes() for c in trainer.clients)
        registry = MetricsRegistry()
        prev = set_registry(registry)
        try:
            trainer.run()
        finally:
            set_registry(prev)
        # Per client and round: the eval forward runs conv_in and
        # conv_out, the step conv_out only (4 before the reuse).  Round
        # 0's exchange adds one more eval forward of W₀.
        calls = registry.get("nn.forward_calls", module="GCNConv").value
        assert calls == len(parts) * (3 * rounds + 2)

    def test_reused_step_gradients_equal_a_fresh_pass(self, parts):
        def gradients(reuse):
            trainer = make_trainer(parts)
            trainer.begin_round(0)  # the exchange's eval forward records conv_in
            c = trainer.clients[0]
            assert c._eval.first is not None
            if not reuse:
                c._eval = c._eval._replace(first=None)
            c.model.train()
            trainer.local_loss(c).backward()
            assert c._eval.first is None
            return {name: p.grad for name, p in c.model.named_parameters()}

        reused, fresh = gradients(True), gradients(False)
        for name in fresh:
            assert reused[name].tobytes() == fresh[name].tobytes(), name

    def test_recorded_layer_is_taken_once_per_version(self, parts):
        c = make_trainer(parts).clients[0]
        c.eval_forward()
        first = c._eval.first
        assert first is not None and first.requires_grad
        assert c._take_first() is first
        assert c._take_first() is None
        c.bump_version()
        c.eval_forward()
        c.bump_version()  # a write after the eval forward: its layer is stale
        assert c._take_first() is None

    def test_unbumped_write_before_the_step_raises_under_sanitizer(self, parts):
        trainer = make_trainer(parts)
        c = trainer.clients[0]
        with SanitizerSession():
            c.eval_forward()
            c.model.conv_in.weight.data[0, 0] += 1.0
            with pytest.raises(StaleCacheError, match="conv_in.weight"):
                c.train_step(trainer.local_loss)
