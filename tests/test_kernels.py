import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from medlm import kernels

# small alphabets make common subsequences likely; CJK exercises non-ASCII keys
_TEXT = st.text(alphabet="abc药病号。？", max_size=40)


class TestLcs:
    def test_known_values(self):
        assert kernels.lcs_length("1234", "2434") == 3  # 2 3 4 or 2 4 4
        assert kernels.lcs_length("一号病吃药", "号病应该吃什么药") == 4

    def test_empty(self):
        assert kernels.lcs_length("", "a") == 0
        assert kernels.lcs_length("a", "") == 0
        assert kernels.lcs_length("", "") == 0

    def test_paths_agree_with_oracle(self, rng):
        for _ in range(30):
            a = "".join(map(str, rng.integers(0, 5, size=rng.integers(0, 20))))
            b = "".join(map(str, rng.integers(0, 5, size=rng.integers(1, 20))))
            assert kernels.lcs_length(a, b) == oracles.lcs_bf(a, b)

    @settings(max_examples=200, deadline=None)
    @given(_TEXT, _TEXT)
    def test_matches_oracle_property(self, a, b):
        assert kernels.lcs_length(a, b) == oracles.lcs_bf(a, b)


class TestAdamwPaths:
    def test_zero_gradient_moves_only_by_decay(self):
        w = np.array([2.0])
        m = np.zeros(1)
        v = np.zeros(1)
        kernels.adamw_update(w, np.zeros(1), m, v, 1, 0.1, 0.5, 0.9, 0.999, 1e-8)
        assert w[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_matches_reference_bits(self, rng):
        # five steps from a shared start, with weight decay and a fresh
        # gradient per step; w, m and v must agree bit for bit
        state = [rng.standard_normal(1000), np.zeros(1000), np.zeros(1000)]
        ref = [a.copy() for a in state]
        for step in range(1, 6):
            g = rng.standard_normal(1000)
            kernels.adamw_update(*state[:1], g, *state[1:], step, 0.005, 0.01, 0.9, 0.999, 1e-8)
            oracles.adamw_ref(*ref[:1], g, *ref[1:], step, 0.005, 0.01, 0.9, 0.999, 1e-8)
            for got, want in zip(state, ref):
                assert np.array_equal(got, want)
