"""Difficulty-conditioned logits synthesis for serving streams.

The serving simulator needs per-request exit logits so the *real* runtime
controllers (`repro.runtime.controller`) can make entropy-threshold exit
decisions.  This module maps each request's Beta-distributed difficulty to a
per-exit logits vector using the same capability model as the exit oracle:
a head at relative depth ``u`` has capability ``cap(u)``; its confidence
margin on a request of difficulty ``d`` is proportional to ``cap(u) − d``
(plus idiosyncratic noise).  Easy requests are confidently classified by
shallow heads and exit early; hard requests stay uncertain until deep in
the network — precisely the behaviour entropy thresholding exploits.

The draws are made for the *whole trace up front* (keyed by request
index), so exit decisions for a given request are identical regardless of
how the batcher groups it — static and adaptive policies are compared on a
paired stream.  A :class:`ServingStream` keeps those draws — labels, the
per-request margin perturbation, the per-head capabilities and the
generator state where the logit noise starts — not the
``(E+1) × n × classes`` logits, nor even the ``(E+1) × n`` true-class
margins: :meth:`ServingStream.blocks` recomputes each block's margins from
the difficulties the stream was synthesized from and regenerates its noise.
numpy's normal draws are sequential, so drawing the noise in pieces yields
the very values (and leaves the generator in the very state) of one whole
draw.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.accuracy.exit_model import ExitCapabilityModel
from repro.data.difficulty import DifficultyDistribution
from repro.exits.placement import ExitPlacement
from repro.utils.rng import child_rng
from repro.utils.validation import check_positive


#: Rows per regenerated noise block: one reused ``(STREAM_BLOCK, classes)``
#: buffer sizes both walks of the noise (see ``EXPERIMENTS.md`` for the sweep).
STREAM_BLOCK = 16384


def _noise_blocks(
    rng: np.random.Generator, heads: int, n: int, classes: int
) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """Yield ``(head, lo, hi, noise)`` over the ``(heads, n, classes)`` logit
    noise in draw order, each block drawn into one reused buffer."""
    buf = np.empty((min(STREAM_BLOCK, n), classes))
    for head in range(heads):
        for lo in range(0, n, STREAM_BLOCK):
            hi = min(lo + STREAM_BLOCK, n)
            noise = buf[: hi - lo]
            rng.standard_normal(out=noise)
            yield head, lo, hi, noise


@dataclass(frozen=True)
class ServingStream:
    """The draws behind every request's logits, regenerated on demand.
    ``difficulties`` is the array it was synthesized from (a trace's own,
    not a copy): the stream reads it, so it must not change."""

    labels: np.ndarray  # (n,) narrowest unsigned dtype holding num_classes - 1
    perturbation: np.ndarray  # (n,) margin noise, shared by every head
    capabilities: tuple[float, ...]  # per head, the final head last
    margin_gain: float
    difficulties: np.ndarray  # (n,) read, not copied
    noise_state: dict  # bit-generator state where the logit noise starts
    num_classes: int

    @property
    def num_exits(self) -> int:
        return len(self.capabilities) - 1

    @property
    def num_requests(self) -> int:
        return len(self.labels)

    def blocks(self) -> Iterator[tuple[int, int, int, np.ndarray]]:
        """Yield ``(head, lo, hi, logits)`` in draw order, ``logits`` being
        head ``head``'s ``(hi - lo, classes)`` logits of requests ``[lo, hi)``:
        the noise plus, on the true class, the head's margin
        ``margin_gain · max(cap − difficulty + perturbation, 0)``.  Every
        block lands in one reused buffer, overwritten at the next step:
        callers reduce or copy it at once."""
        bit_generator = getattr(np.random, self.noise_state["bit_generator"])()
        bit_generator.state = self.noise_state
        rng = np.random.Generator(bit_generator)
        n = self.num_requests
        arange = np.arange(min(STREAM_BLOCK, n))
        caps, d, pert = self.capabilities, self.difficulties, self.perturbation
        for head, lo, hi, logits in _noise_blocks(rng, len(caps), n, self.num_classes):
            margin = self.margin_gain * np.clip(caps[head] - d[lo:hi] + pert[lo:hi], 0.0, None)
            logits[arange[: hi - lo], self.labels[lo:hi]] += margin
            yield head, lo, hi, logits

    def logits(self) -> np.ndarray:
        """The ``(num_exits + 1, n, classes)`` logits materialised, the final
        head last.  Only small streams should ask."""
        out = np.empty((len(self.capabilities), self.num_requests, self.num_classes))
        for head, lo, hi, logits in self.blocks():
            out[head, lo:hi] = logits
        return out


@dataclass(frozen=True)
class LogitsSynthesizer:
    """Difficulty → logits, conditioned on exit depth and head capability.

    Parameters
    ----------
    placement:
        The deployed exit configuration (relative depths set per-head
        capability).
    backbone_accuracy:
        Final-classifier accuracy fraction (caps every head).
    model:
        The capability model shared with the exit oracle.
    num_classes, margin_gain, margin_noise:
        Logit-space geometry: the true-class margin is
        ``margin_gain · max(cap − difficulty + noise, 0)``; zero margin
        leaves the head at chance.
    """

    placement: ExitPlacement
    backbone_accuracy: float
    model: ExitCapabilityModel = ExitCapabilityModel()
    num_classes: int = 10
    margin_gain: float = 7.0
    margin_noise: float = 0.15
    seed: int = 0

    def __post_init__(self):
        check_positive("num_classes", self.num_classes)
        check_positive("margin_gain", self.margin_gain)

    def synthesize(self, difficulties: np.ndarray, branch: str = "trace") -> ServingStream:
        """Synthesise the full stream for ``difficulties`` (one per request).

        ``branch`` keys an independent noise stream, so calibration and
        serving draws never overlap.
        """
        difficulties = np.asarray(difficulties, dtype=float)
        n = len(difficulties)
        depths = np.concatenate([self.placement.relative_depths(), [1.0]])
        rng = child_rng(self.seed, "serving", "logits", branch, self.placement.key)
        labels = rng.integers(0, self.num_classes, size=n)
        labels = labels.astype(np.min_scalar_type(self.num_classes - 1))
        noise_state = rng.bit_generator.state
        # Base logits are noise, one (heads, n, classes) block drawn after
        # the labels; heads add a margin on the true class that grows with
        # (capability - difficulty).  The stream regenerates the noise, so
        # here it is only walked past.
        for _ in _noise_blocks(rng, len(depths), n, self.num_classes):
            pass
        # Nearby depths share the perturbation (one draw per request), so
        # consecutive heads agree — the correlation structure the oracle's
        # GP encodes.
        perturbation = rng.normal(0.0, self.margin_noise, size=n)
        caps = tuple(float(self.model.capability(self.backbone_accuracy, u)) for u in depths)
        gain, classes = self.margin_gain, self.num_classes
        return ServingStream(labels, perturbation, caps, gain, difficulties, noise_state, classes)

    def calibration_stream(
        self,
        n: int = 512,
        difficulty: DifficultyDistribution | None = None,
    ) -> ServingStream:
        """A held-out stream for threshold tuning and usage estimation.

        Drawn from the same difficulty distribution but a distinct seed
        branch, so serving traces never tune on their own requests.
        """
        dist = difficulty or DifficultyDistribution()
        rng = child_rng(self.seed, "serving", "calibration", self.placement.key)
        return self.synthesize(dist.sample(n, rng), branch="calibration")
