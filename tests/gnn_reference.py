"""Reference trainer: one forward/backward per sample, gradients summed in a loop.

`co2meter.predictor.training.train_tower` runs each mini-batch as one stacked
pass (`gnn.forward_batch` / `gnn.backward_batch`) instead; the tests hold it
to this loop, which has the same signature and consumes the generator in the
same order.  `ReferenceAdam` is the Adam update written with fresh arrays;
`Adam.step` evaluates the same expressions in place.
"""

import numpy as np

from co2meter.errors import TrainingDivergedError
from co2meter.predictor import (
    Adam,
    error_bound_share,
    forward_tower,
    mape,
    sample_loss_and_grads,
)


def tower_predictions(tower, prepared):
    """Predicted energies (joules), one per-sample forward pass each."""
    return np.array(
        [np.exp(forward_tower(tower, p.h0, p.preds, p.g)[0]) for p in prepared]
    )


def batch_loss_and_grads(tower, prepared, batch):
    """Summed loss and gradients over prepared[batch], sample by sample."""
    grad_sum = {k: np.zeros_like(v) for k, v in tower.arrays().items()}
    loss_sum = 0.0
    for idx in batch:
        p = prepared[int(idx)]
        loss, grads = sample_loss_and_grads(tower, p.h0, p.preds, p.g, p.log_target)
        loss_sum += loss
        for k in grad_sum:
            grad_sum[k] += grads[k]
    return loss_sum, grad_sum


def train_tower(tower, train_set, val_set, cfg, rng, label):
    """Adam loop over one tower; returns per-epoch history entries."""
    if not train_set:
        raise ValueError("empty training set")
    tower.bh2[0] = float(np.mean([p.log_target for p in train_set]))
    arrays = tower.arrays()
    adam = Adam(arrays, cfg.learning_rate)
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = np.sort(order[start:start + cfg.batch_size])
            loss_sum, grad_sum = batch_loss_and_grads(tower, train_set, batch)
            if not np.isfinite(loss_sum):
                raise TrainingDivergedError(
                    f"{label} tower: non-finite loss at epoch {epoch}"
                )
            scale = 1.0 / len(batch)
            adam.step(arrays, {k: v * scale for k, v in grad_sum.items()})
            epoch_loss += loss_sum
        entry = {
            "tower": label,
            "epoch": epoch,
            "train_loss": epoch_loss / len(train_set),
        }
        if val_set:
            preds = tower_predictions(tower, val_set)
            truths = np.array([p.target_j for p in val_set])
            entry["val_mape"] = mape(truths, preds)
            entry["val_eb10"] = error_bound_share(truths, preds)
        history.append(entry)
    return history


class ReferenceAdam:
    """Adam over named arrays; every step allocates its intermediates."""

    def __init__(self, arrays, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}

    def step(self, arrays, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, arr in arrays.items():
            grad = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * grad
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * grad * grad
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            arr -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
