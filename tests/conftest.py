"""Shared fixtures for the test suite.

Heavyweight objects (platforms, spaces, evaluators) are session-scoped;
stochastic fixtures are seeded so every test is reproducible in isolation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accuracy.surrogate import AccuracySurrogate
from repro.arch.space import BackboneSpace, miniature_space
from repro.baselines.attentivenas import attentivenas_models
from repro.eval.static import StaticEvaluator
from repro.hardware.dvfs import DvfsSpace
from repro.hardware.platform import get_platform


@pytest.fixture(scope="session")
def space() -> BackboneSpace:
    return BackboneSpace()


@pytest.fixture(scope="session")
def mini_space():
    return miniature_space(num_classes=8)


@pytest.fixture(scope="session")
def tx2_gpu():
    return get_platform("tx2-gpu")


@pytest.fixture(scope="session")
def tx2_dvfs(tx2_gpu) -> DvfsSpace:
    return DvfsSpace(tx2_gpu)


@pytest.fixture(scope="session")
def surrogate(space) -> AccuracySurrogate:
    return AccuracySurrogate(space, seed=0)


@pytest.fixture(scope="session")
def static_evaluator(tx2_gpu, surrogate) -> StaticEvaluator:
    return StaticEvaluator(tx2_gpu, surrogate, seed=0)


@pytest.fixture(scope="session")
def baselines():
    return attentivenas_models()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn at x."""
    grad = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        plus = x.copy()
        plus[idx] += eps
        minus = x.copy()
        minus[idx] -= eps
        grad[idx] = (fn(plus) - fn(minus)) / (2 * eps)
    return grad


@pytest.fixture(scope="session")
def gradcheck():
    """Return a helper asserting autograd matches finite differences."""
    from repro.nn.tensor import Tensor

    def check(build_output, x: np.ndarray, atol: float = 1e-6) -> None:
        tensor = Tensor(x.copy(), requires_grad=True)
        out = build_output(tensor)
        loss = (out * out).sum()
        loss.backward()
        analytic = tensor.grad.copy()

        def scalar(arr: np.ndarray) -> float:
            value = build_output(Tensor(arr))
            return float((value.data ** 2).sum())

        numeric = numeric_gradient(scalar, x)
        np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)

    return check


@pytest.fixture(scope="session")
def entry_codec():
    """Return a helper reading the codec a ResultCache stored an entry with."""
    import sqlite3
    from contextlib import closing

    def codec(cache, key) -> str:
        with closing(sqlite3.connect(cache.database)) as connection:
            (name,) = connection.execute(
                "SELECT codec FROM entries WHERE digest = ?", (key.digest,)
            ).fetchone()
        return name

    return codec
