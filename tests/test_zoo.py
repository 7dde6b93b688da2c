"""Model zoo: Table I networks train, cache, and reload."""

import numpy as np
import pytest

from repro.data import load_auto_mpg, load_digits
from repro.zoo import AUTOMPG_HIDDEN, DIGIT_CONVS, get_network


class TestZoo:
    def test_autompg_entry(self, tmp_path):
        entry = get_network(1, cache_dir=tmp_path)
        assert entry.dataset == "auto_mpg"
        assert entry.delta == pytest.approx(0.001)
        assert entry.hidden_neurons == AUTOMPG_HIDDEN[1]
        assert entry.network.input_dim == 7

    def test_cache_reuse(self, tmp_path):
        first = get_network(1, cache_dir=tmp_path)
        second = get_network(1, cache_dir=tmp_path)
        x = np.random.default_rng(0).uniform(0, 1, (4, 7))
        assert np.array_equal(first.network.forward(x), second.network.forward(x))
        assert len(list(tmp_path.glob("*.npz"))) == 1

    def test_autompg_learns(self, tmp_path):
        entry = get_network(2, cache_dir=tmp_path)
        x, y = load_auto_mpg(200, seed=0)
        pred = entry.network.forward(x)
        resid = np.abs(pred - y).mean()
        assert resid < np.abs(y - y.mean()).mean()

    def test_unknown_id(self, tmp_path):
        with pytest.raises(ValueError):
            get_network(99, cache_dir=tmp_path)

    def test_digit_entry(self, tmp_path):
        entry = get_network(6, cache_dir=tmp_path)
        assert entry.dataset == "digits"
        assert entry.delta == pytest.approx(2 / 255)
        assert entry.hidden_neurons > 100
        x, y = load_digits(100, size=14, seed=9)
        from repro.nn.losses import SoftmaxCrossEntropy

        acc = SoftmaxCrossEntropy.accuracy(entry.network.forward(x), y)
        assert acc > 0.4

    def test_ids_cover_table1(self):
        assert set(AUTOMPG_HIDDEN) == {1, 2, 3, 4, 5}
        assert set(DIGIT_CONVS) == {6, 7, 8}
