"""Seed sensitivity of the migrated fallback-initialization streams.

PR 1 moved ``Conv2d``'s no-rng fallback to the shared
``repro.nn.init.default_generator()`` stream; this PR migrates the
remaining layers (``Linear``, ``MLP``, ``LSTMCell``, attention,
transformer blocks).  Two properties matter:

* **sensitivity** — two modules built back-to-back without a generator
  must not silently share identical weights (the old
  ``default_rng(0)``-per-module behavior);
* **reproducibility** — ``repro.nn.set_seed`` pins the fallback stream,
  so a seeded construction sequence is bit-for-bit repeatable, across
  every migrated layer type and also from worker threads.
"""

import threading

import numpy as np

from repro import nn
from repro.nn import init
from tests.helpers import fresh_rng


def _first_param(module: nn.Module) -> np.ndarray:
    return module.parameters()[0].data


class TestFallbackSensitivity:
    def test_two_unseeded_linears_differ(self):
        a, b = nn.Linear(8, 8), nn.Linear(8, 8)
        assert not np.allclose(a.weight.data, b.weight.data)

    def test_two_unseeded_mlps_differ(self):
        a, b = nn.MLP(8, 16, 4), nn.MLP(8, 16, 4)
        assert not np.allclose(a.fc1.weight.data, b.fc1.weight.data)
        assert not np.allclose(a.fc2.weight.data, b.fc2.weight.data)

    def test_two_unseeded_lstm_cells_differ(self):
        a, b = nn.LSTMCell(4, 6), nn.LSTMCell(4, 6)
        assert not np.allclose(a.ih.weight.data, b.ih.weight.data)

    def test_two_unseeded_attention_blocks_differ(self):
        a = nn.MultiHeadSelfAttention(8, 2)
        b = nn.MultiHeadSelfAttention(8, 2)
        assert not np.allclose(a.qkv.weight.data, b.qkv.weight.data)

    def test_two_unseeded_encoder_layers_differ(self):
        a = nn.TransformerEncoderLayer(8, 2)
        b = nn.TransformerEncoderLayer(8, 2)
        assert not np.allclose(a.attn.qkv.weight.data, b.attn.qkv.weight.data)
        assert not np.allclose(a.mlp.fc1.weight.data, b.mlp.fc1.weight.data)

    def test_two_unseeded_convs_differ(self):
        a = nn.Conv2d(3, 4, kernel_size=3)
        b = nn.Conv2d(3, 4, kernel_size=3)
        assert not np.allclose(_first_param(a), _first_param(b))

    def test_unseeded_encoder_stacks_layers_with_distinct_weights(self):
        enc = nn.TransformerEncoder(3, 8, 2)
        w0 = enc.layers[0].attn.qkv.weight.data
        w1 = enc.layers[1].attn.qkv.weight.data
        assert not np.allclose(w0, w1)

    def test_explicit_rng_still_reproduces(self):
        a = nn.Linear(5, 5, rng=fresh_rng(7))
        b = nn.Linear(5, 5, rng=fresh_rng(7))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestSetSeedReproducibility:
    BUILDERS = [
        lambda: nn.Linear(8, 8),
        lambda: nn.MLP(8, 16, 4),
        lambda: nn.LSTMCell(4, 6),
        lambda: nn.MultiHeadSelfAttention(8, 2),
        lambda: nn.TransformerEncoderLayer(8, 2),
        lambda: nn.Conv2d(3, 4, kernel_size=3),
    ]

    def test_set_seed_restores_the_stream_across_layer_types(self):
        nn.set_seed(123)
        first = [
            [p.data.copy() for p in builder().parameters()]
            for builder in self.BUILDERS
        ]
        nn.set_seed(123)
        second = [
            [p.data.copy() for p in builder().parameters()]
            for builder in self.BUILDERS
        ]
        for params_a, params_b in zip(first, second):
            for a, b in zip(params_a, params_b):
                np.testing.assert_array_equal(a, b)

    def test_different_seeds_produce_different_weights(self):
        nn.set_seed(1)
        a = nn.Linear(8, 8)
        nn.set_seed(2)
        b = nn.Linear(8, 8)
        assert not np.allclose(a.weight.data, b.weight.data)

    def test_worker_thread_stream_is_independent_and_reseedable(self):
        """Threads get their own streams; set_seed resets them too."""

        def build_in_thread(box):
            box.append(nn.Linear(8, 8).weight.data.copy())

        nn.set_seed(99)
        main_weights = nn.Linear(8, 8).weight.data.copy()

        nn.set_seed(99)
        first_run, second_run = [], []
        t = threading.Thread(target=build_in_thread, args=(first_run,))
        t.start()
        t.join(timeout=10)

        nn.set_seed(99)
        t = threading.Thread(target=build_in_thread, args=(second_run,))
        t.start()
        t.join(timeout=10)

        # The worker stream is spawned from the seed, distinct from the
        # main thread's stream, and repeatable after a re-seed.
        assert not np.allclose(first_run[0], main_weights)
        np.testing.assert_array_equal(first_run[0], second_run[0])

    def test_concurrent_unseeded_construction_is_safe(self):
        """Many threads building unseeded layers never share a draw."""
        n = 8
        barrier = threading.Barrier(n)
        weights = [None] * n

        def worker(i):
            barrier.wait(timeout=10)
            weights[i] = nn.Linear(16, 16).weight.data.copy()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        for i in range(n):
            for j in range(i + 1, n):
                assert not np.allclose(weights[i], weights[j]), (i, j)

    def test_default_generator_is_per_thread_object(self):
        generators = {}

        def grab(name):
            generators[name] = init.default_generator()

        grab("main")
        t = threading.Thread(target=grab, args=("worker",))
        t.start()
        t.join(timeout=10)
        assert generators["main"] is not generators["worker"]
        # Cached within a thread between draws.
        assert init.default_generator() is generators["main"]
