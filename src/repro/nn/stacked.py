"""Stacked training engine: all leaf MLPs trained in one vectorized loop.

The sequential backend (:class:`repro.nn.training.Trainer`) runs Alg. 4 once
per kd-tree leaf; with ``2^h`` tiny networks the build ends up dominated by
Python dispatch rather than arithmetic. This module vectorizes the *whole*
loop across a leading leaf axis, mirroring how :mod:`repro.core.compiled`
stacks weights for inference:

- :class:`StackedMLP` — per-layer ``(L, fan_in, fan_out)`` weight tensors
  with grouped batched forward **and backward** passes over padded per-leaf
  mini-batches. Padded rows are neutralized at the loss-gradient level
  (their grad is zero, so they contribute nothing to ``dW``/``db``), which
  keeps the arithmetic per leaf identical to a compact per-leaf batch.
- :class:`StackedAdam` / :class:`StackedSGD` — optimizers whose moment
  tensors are shaped like the stacked params, with a *per-leaf* step counter
  so bias correction matches a per-leaf optimizer that only steps when its
  leaf has a batch.
- :class:`StackedTrainer` — the Alg.-4 semantics of ``Trainer.fit``
  vectorized across leaves: per-leaf loss tracking, per-leaf plateau early
  stopping (a converged leaf *freezes* via the active mask while the rest
  keep training), per-leaf best-parameter snapshots, and per-leaf batch
  shuffling driven by per-leaf seeds — so with the same seeds the stacked
  engine reproduces the sequential backend leaf for leaf.

Leaves may have different training-set sizes; each leaf keeps its own batch
size ``min(batch_size, n_l)`` and batch count, exactly as the sequential
loop would, and leaves that run out of batches within an epoch simply skip
the remaining optimizer steps of that epoch.

Every model handed to :meth:`StackedTrainer.fit` trains. The streaming
retrain (:mod:`repro.stream.sketch`) stacks only the leaves an ingest
dirtied, so its optimizer moments, scratch and best-parameter copies — and
its time — scale with the number of dirty leaves, not with the sketch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.network import MLP
from repro.nn.scalers import StackedStandardScaler
from repro.nn.train_core import TrainConfig, TrainedRegressor


class StackedMLP:
    """``L`` same-architecture MLPs as per-layer 3-D weight tensors.

    ``W[l]`` has shape ``(L, fan_in, fan_out)`` and ``b[l]`` shape
    ``(L, fan_out)``. Forward/backward operate on a *subset* of leaves
    (``leaf_idx``) so early-stopped leaves cost nothing.
    """

    def __init__(self, layer_sizes: list[int], W: list[np.ndarray], b: list[np.ndarray]) -> None:
        self.layer_sizes = list(layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if len(W) != len(self.layer_sizes) - 1 or len(b) != len(W):
            raise ValueError("one W/b tensor pair per affine layer is required")
        self.W = [np.ascontiguousarray(w, dtype=np.float64) for w in W]
        self.b = [np.ascontiguousarray(x, dtype=np.float64) for x in b]
        n_leaves = self.W[0].shape[0]
        for li, (w, bias) in enumerate(zip(self.W, self.b)):
            expect = (n_leaves, self.layer_sizes[li], self.layer_sizes[li + 1])
            if w.shape != expect or bias.shape != (n_leaves, expect[2]):
                raise ValueError(
                    f"layer {li}: W{w.shape}/b{bias.shape} do not match "
                    f"architecture {self.layer_sizes} for {n_leaves} leaves"
                )

    @classmethod
    def from_models(cls, models: list[MLP]) -> "StackedMLP":
        """Stack already-initialized per-leaf :class:`MLP` objects."""
        if not models:
            raise ValueError("need at least one model to stack")
        sizes = list(models[0].layer_sizes)
        for m in models:
            if list(m.layer_sizes) != sizes:
                raise ValueError(
                    f"all models must share one architecture; got {m.layer_sizes} vs {sizes}"
                )
        dense = [m.dense_layers for m in models]
        n_layers = len(sizes) - 1
        W = [np.stack([layers[li].W for layers in dense]) for li in range(n_layers)]
        b = [np.stack([layers[li].b for layers in dense]) for li in range(n_layers)]
        return cls(sizes, W, b)

    # ------------------------------------------------------------- properties

    @property
    def n_leaves(self) -> int:
        return self.W[0].shape[0]

    @property
    def n_layers(self) -> int:
        return len(self.W)

    @property
    def params(self) -> list[np.ndarray]:
        """Stacked parameter tensors in the sequential ``model.params`` order
        (``W0, b0, W1, b1, ...``), so optimizer moments line up leaf for leaf
        with a per-leaf optimizer."""
        out: list[np.ndarray] = []
        for w, bias in zip(self.W, self.b):
            out.extend((w, bias))
        return out

    def num_params(self) -> int:
        return int(sum(p.size for p in self.params))

    # ---------------------------------------------------------------- compute

    def forward(self, X: np.ndarray, leaf_idx: np.ndarray) -> tuple[np.ndarray, dict]:
        """Grouped forward pass for leaves ``leaf_idx``.

        ``X`` is a padded ``(k, block, input_dim)`` batch (``k = len(leaf_idx)``).
        Returns ``(pred, cache)`` where ``pred`` has shape ``(k, block)`` and
        ``cache`` feeds :meth:`backward`. The selected weight slices are kept
        in the cache so the backward pass does not re-gather them, and ReLU
        is applied in place (``np.maximum``) — the backward pass recovers the
        activation mask from the cached post-ReLU activations (``h > 0`` is
        identical before and after clamping).
        """
        inputs: list[np.ndarray] = []
        sel_W = [w[leaf_idx] for w in self.W]
        sel_b = [bias[leaf_idx] for bias in self.b]
        H = X
        last = self.n_layers - 1
        for li in range(self.n_layers):
            inputs.append(H)
            H = np.matmul(H, sel_W[li])
            H += sel_b[li][:, None, :]
            if li != last:
                np.maximum(H, 0.0, out=H)
        cache = {"inputs": inputs, "sel_W": sel_W, "leaf_idx": leaf_idx}
        return H[..., 0], cache

    def backward(
        self, grad_pred: np.ndarray, cache: dict
    ) -> list[np.ndarray]:
        """Grouped backward pass; returns grads in :attr:`params` order.

        ``grad_pred`` is d(loss)/d(pred) with shape ``(k, block)``; padded
        rows must already carry zero gradient.
        """
        inputs, sel_W = cache["inputs"], cache["sel_W"]
        grads: list[np.ndarray | None] = [None] * (2 * self.n_layers)
        G = np.asarray(grad_pred, dtype=np.float64)[:, :, None]
        for li in range(self.n_layers - 1, -1, -1):
            grads[2 * li] = np.matmul(inputs[li].transpose(0, 2, 1), G)
            grads[2 * li + 1] = G.sum(axis=1)
            if li > 0:
                G = np.matmul(G, sel_W[li].transpose(0, 2, 1))
                G *= inputs[li] > 0  # ReLU mask, recovered post-activation
        return grads

    # ------------------------------------------------------------- unstacking

    def write_back(self, models: list[MLP]) -> None:
        """Copy the stacked weights back into per-leaf :class:`MLP` objects."""
        if len(models) != self.n_leaves:
            raise ValueError(f"expected {self.n_leaves} models, got {len(models)}")
        for slot, model in enumerate(models):
            for li, layer in enumerate(model.dense_layers):
                layer.W[...] = self.W[li][slot]
                layer.b[...] = self.b[li][slot]


def _per_leaf_bias_correction(beta: float, t: np.ndarray) -> np.ndarray:
    # Computed with Python-float powers so the per-leaf value is bit-identical
    # to the sequential Adam's `1 - beta ** t` (numpy's pow for small integer
    # exponents takes a repeated-multiplication fast path that can differ in
    # the last ulp).
    return np.array([1.0 - beta ** int(tv) for tv in t], dtype=np.float64)


class StackedAdam:
    """Adam over stacked parameter tensors with per-leaf step counts.

    Moment tensors are shaped like the stacked params; ``t`` is a per-leaf
    vector so a leaf that skips a batch (shorter training set, or frozen by
    early stopping) keeps the exact bias correction its own sequential
    optimizer would have.
    """

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._t: np.ndarray | None = None
        self._scratch: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._arange: np.ndarray | None = None

    def step(
        self, params: list[np.ndarray], grads: list[np.ndarray], leaf_idx: np.ndarray
    ) -> None:
        """Update ``params[.][leaf_idx]`` from subset grads (``grads[i]`` is
        aligned with ``leaf_idx`` on its leading axis)."""
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
            self._t = np.zeros(params[0].shape[0], dtype=np.int64)
            self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
            self._arange = np.arange(self._t.shape[0])
        self._t[leaf_idx] += 1
        bc1 = _per_leaf_bias_correction(self.beta1, self._t[leaf_idx])
        bc2 = _per_leaf_bias_correction(self.beta2, self._t[leaf_idx])
        if leaf_idx.size == self._t.shape[0] and np.array_equal(leaf_idx, self._arange):
            # Hot path (every leaf steps): update the full stacks in place
            # through preallocated scratch — no per-leaf gather/scatter, no
            # temporaries, identical arithmetic.
            for p, g, m, v, (s1, s2) in zip(params, grads, self._m, self._v, self._scratch):
                shape = (-1,) + (1,) * (p.ndim - 1)
                b1 = bc1.reshape(shape)
                b2 = bc2.reshape(shape)
                m *= self.beta1
                np.multiply(g, 1.0 - self.beta1, out=s1)
                m += s1
                v *= self.beta2
                np.multiply(g, g, out=s1)
                s1 *= 1.0 - self.beta2
                v += s1
                np.divide(v, b2, out=s1)
                np.sqrt(s1, out=s1)
                s1 += self.eps
                np.divide(m, b1, out=s2)
                s2 *= self.lr
                s2 /= s1
                p -= s2
            return
        for p, g, m, v in zip(params, grads, self._m, self._v):
            shape = (-1,) + (1,) * (p.ndim - 1)
            b1 = bc1.reshape(shape)
            b2 = bc2.reshape(shape)
            mi = m[leaf_idx]
            mi *= self.beta1
            mi += (1.0 - self.beta1) * g
            m[leaf_idx] = mi
            vi = v[leaf_idx]
            vi *= self.beta2
            vi += (1.0 - self.beta2) * (g * g)
            v[leaf_idx] = vi
            p[leaf_idx] -= self.lr * (mi / b1) / (np.sqrt(vi / b2) + self.eps)


class StackedSGD:
    """SGD (optional momentum) over stacked parameter tensors."""

    def __init__(self, lr: float = 0.01, momentum: float = 0.0) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self._velocity: list[np.ndarray] | None = None
        self._scratch: list[np.ndarray] | None = None
        self._arange: np.ndarray | None = None

    def _is_full(self, params: list[np.ndarray], leaf_idx: np.ndarray) -> bool:
        if self._arange is None:
            self._arange = np.arange(params[0].shape[0])
        return leaf_idx.size == self._arange.size and np.array_equal(leaf_idx, self._arange)

    def step(
        self, params: list[np.ndarray], grads: list[np.ndarray], leaf_idx: np.ndarray
    ) -> None:
        full = self._is_full(params, leaf_idx)
        if self._scratch is None:
            self._scratch = [np.empty_like(p) for p in params]
        if self.momentum == 0.0:
            if full:
                for p, g, s in zip(params, grads, self._scratch):
                    np.multiply(g, self.lr, out=s)
                    p -= s
                return
            for p, g in zip(params, grads):
                p[leaf_idx] -= self.lr * g
            return
        if self._velocity is None:
            self._velocity = [np.zeros_like(p) for p in params]
        if full:
            for p, g, v, s in zip(params, grads, self._velocity, self._scratch):
                v *= self.momentum
                v += g
                np.multiply(v, self.lr, out=s)
                p -= s
            return
        for p, g, v in zip(params, grads, self._velocity):
            vi = v[leaf_idx]
            vi *= self.momentum
            vi += g
            v[leaf_idx] = vi
            p[leaf_idx] -= self.lr * vi


def _make_stacked_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "adam":
        return StackedAdam(lr=cfg.lr)
    if cfg.optimizer == "sgd":
        return StackedSGD(lr=cfg.lr, momentum=cfg.momentum)
    raise ValueError(f"unknown optimizer {cfg.optimizer!r}")


@dataclass
class StackedTrainResult:
    """Everything one stacked training run produced.

    ``regressors`` are per-leaf :class:`TrainedRegressor` objects (the same
    shape the sequential backend returns); ``stacked`` plus the scalers carry
    the trained weights in stacked form so a caller can hand them straight to
    :meth:`repro.core.compiled.CompiledSketch.from_stack` without an
    unstack/restack round-trip.
    """

    regressors: list[TrainedRegressor]
    stacked: StackedMLP
    x_scaler: StackedStandardScaler | None
    y_scaler: StackedStandardScaler | None
    histories: list[list[float]] = field(default_factory=list)

    def compile(
        self,
        tree,
        leaf_ids: list[int] | None = None,
        dtype: str = "float64",
        pad_widths: bool = True,
    ):
        """Hand the trained stack straight to the compiled inference engine.

        Returns a :class:`~repro.core.compiled.CompiledSketch` on the
        requested dtype tier: the stacked weight tensors and scaler
        statistics go in as-is (no unstack/restack round-trip) and the
        engine fuses the scalers into its execution plan at construction.
        ``leaf_ids[k]`` names the tree leaf held by stack slot ``k``
        (default: slot order is leaf-id order). ``pad_widths`` flows
        through to the engine's SIMD-padding knob: the fused plan tensors
        are padded to lane multiples at hand-off while the stack's
        canonical weights stay unpadded.
        """
        from repro.core.compiled import CompiledSketch

        return CompiledSketch.from_stack(
            tree,
            self.stacked,
            x_scaler=self.x_scaler,
            y_scaler=self.y_scaler,
            leaf_ids=leaf_ids,
            dtype=dtype,
            pad_widths=pad_widths,
        )


class StackedTrainer:
    """Trains ``L`` same-architecture models simultaneously (Alg. 4 x L).

    Semantics match running :class:`repro.nn.training.Trainer` once per model
    with per-model seeds: per-leaf standardization, per-leaf mini-batch
    shuffling, per-leaf loss history, plateau early stopping that freezes a
    converged leaf while the others continue, and per-leaf best-parameter
    restoration at the end.
    """

    def __init__(self, config: TrainConfig | None = None) -> None:
        self.config = config or TrainConfig()

    def fit(
        self,
        models: list[MLP],
        Qs: list[np.ndarray],
        ys: list[np.ndarray],
        seeds: list[int] | None = None,
    ) -> StackedTrainResult:
        """Train every ``models[l]`` to map ``Qs[l]`` to ``ys[l]`` in place.

        ``seeds[l]`` drives leaf ``l``'s batch shuffling (defaults to the
        config seed for every leaf). Every model trains: the streaming
        retrain passes only the leaves it refits, so the optimizer state
        and best-parameter copies here scale with that count. Returns a
        :class:`StackedTrainResult`.
        """
        cfg = self.config
        L = len(models)
        if L == 0:
            raise ValueError("need at least one model to train")
        if len(Qs) != L or len(ys) != L:
            raise ValueError("models, Qs and ys must have matching lengths")
        seeds = [cfg.seed] * L if seeds is None else list(seeds)
        if len(seeds) != L:
            raise ValueError("need one seed per model")

        Qs = [np.atleast_2d(np.asarray(Q, dtype=np.float64)) for Q in Qs]
        ys = [np.asarray(y, dtype=np.float64).ravel() for y in ys]
        for Q, y in zip(Qs, ys):
            if Q.shape[0] != y.shape[0]:
                raise ValueError("Q and y must have matching first dimension")
            if Q.shape[0] == 0:
                raise ValueError("training set is empty")

        x_scaler = StackedStandardScaler().fit(Qs) if cfg.standardize_inputs else None
        y_scaler = StackedStandardScaler().fit(ys) if cfg.standardize_targets else None

        # Padded per-leaf training tensors (leaf-local row indexing).
        n = np.array([Q.shape[0] for Q in Qs], dtype=np.int64)
        n_max = int(n.max())
        dim = Qs[0].shape[1]
        Xpad = np.zeros((L, n_max, dim), dtype=np.float64)
        Ypad = np.zeros((L, n_max), dtype=np.float64)
        for l in range(L):
            Xpad[l, : n[l]] = x_scaler.transform_group(l, Qs[l]) if x_scaler else Qs[l]
            Ypad[l, : n[l]] = y_scaler.transform_group(l, ys[l]) if y_scaler else ys[l]

        batch = np.minimum(cfg.batch_size, n)
        n_batches = -(-n // batch)  # ceil, per leaf
        max_batches = int(n_batches.max())

        stacked = StackedMLP.from_models(models)
        params = stacked.params
        optimizer = _make_stacked_optimizer(cfg)
        rngs = [np.random.default_rng(s) for s in seeds]

        best_loss = np.full(L, np.inf)
        best_params = [p.copy() for p in params]
        stall = np.zeros(L, dtype=np.int64)
        frozen = np.zeros(L, dtype=bool)  # early-stopped leaves
        histories: list[list[float]] = [[] for _ in range(L)]
        perm = np.zeros((L, n_max), dtype=np.int64)

        for _ in range(cfg.epochs):
            active = np.flatnonzero(~frozen)
            if active.size == 0:
                break
            for l in active:
                perm[l, : n[l]] = rngs[l].permutation(n[l])
            epoch_loss = np.zeros(L, dtype=np.float64)

            for bidx in range(max_batches):
                leaf_idx = active[bidx < n_batches[active]]
                if leaf_idx.size == 0:
                    break  # every still-active leaf has run out of batches
                starts = bidx * batch[leaf_idx]
                counts = np.minimum(batch[leaf_idx], n[leaf_idx] - starts)
                block = int(counts.max())
                total = int(counts.sum())

                if leaf_idx.size > 1 and leaf_idx.size * block - total > total // 4:
                    # Skewed leaf sizes: padding every leaf to the largest
                    # block would waste >25% arithmetic. Group leaves with
                    # identical row counts into zero-padding buckets, then
                    # scatter the per-bucket grads back into one optimizer
                    # step (buckets touch disjoint leaves).
                    grads = [
                        np.empty((leaf_idx.size,) + p.shape[1:], dtype=np.float64)
                        for p in params
                    ]
                    order = np.argsort(counts, kind="stable")
                    bounds = np.flatnonzero(np.diff(counts[order])) + 1
                    for pos in np.split(order, bounds):
                        sub = leaf_idx[pos]
                        c = int(counts[pos[0]])
                        rows = perm[sub[:, None], starts[pos][:, None] + np.arange(c)]
                        xb = Xpad[sub[:, None], rows]
                        yb = Ypad[sub[:, None], rows]
                        pred, cache = stacked.forward(xb, sub)
                        diff = pred - yb
                        epoch_loss[sub] += (diff * diff).sum(axis=1) / c
                        grad = 2.0 * diff
                        grad /= c
                        for full, part in zip(grads, stacked.backward(grad, cache)):
                            full[pos] = part
                else:
                    # Near-uniform row counts: one padded block. Padded slots
                    # are clamped to position 0; their rows go through the
                    # forward pass but their loss gradient is zeroed, so they
                    # contribute nothing to the parameter updates.
                    col = np.arange(block)[None, :]
                    valid = col < counts[:, None]
                    take = np.where(valid, starts[:, None] + col, 0)
                    rows = perm[leaf_idx[:, None], take]
                    xb = Xpad[leaf_idx[:, None], rows]
                    yb = Ypad[leaf_idx[:, None], rows]
                    pred, cache = stacked.forward(xb, leaf_idx)
                    diff = pred - yb
                    sq = np.where(valid, diff * diff, 0.0)
                    epoch_loss[leaf_idx] += sq.sum(axis=1) / counts
                    grad = np.where(valid, 2.0 * diff / counts[:, None], 0.0)
                    grads = stacked.backward(grad, cache)
                optimizer.step(params, grads, leaf_idx)

            epoch_loss[active] = epoch_loss[active] / n_batches[active]
            for l in active:
                histories[l].append(float(epoch_loss[l]))
            improved = np.zeros(L, dtype=bool)
            improved[active] = epoch_loss[active] < best_loss[active] * (1.0 - cfg.min_delta)
            imp = np.flatnonzero(improved)
            if imp.size:
                best_loss[imp] = epoch_loss[imp]
                for bp, p in zip(best_params, params):
                    bp[imp] = p[imp]
                stall[imp] = 0
            stalled = active[~improved[active]]
            stall[stalled] += 1
            frozen[stall >= cfg.patience] = True

        for p, bp in zip(params, best_params):
            p[...] = bp
        stacked.write_back(models)

        regressors = [
            TrainedRegressor(
                models[l],
                x_scaler.scaler_for(l) if x_scaler else None,
                y_scaler.scaler_for(l) if y_scaler else None,
                histories[l],
            )
            for l in range(L)
        ]
        return StackedTrainResult(regressors, stacked, x_scaler, y_scaler, histories)
