"""Small dense networks with hand-rolled float64 backprop.

Everything works on flat parameter vectors so checkpoints are plain
arrays and finite-difference gradient checks are straightforward.
"""

import numpy as np


class MLP:
    """Fully connected net: tanh hidden layers, linear output."""

    def __init__(self, sizes, rng=None, zero_final=True):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = list(sizes)
        self.weights = []
        self.biases = []
        rng = rng or np.random.default_rng(0)
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            last = i == len(sizes) - 2
            if last and zero_final:
                w = np.zeros((fan_in, fan_out))
            else:
                w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, fan_out))
            self.weights.append(w)
            self.biases.append(np.zeros(fan_out))

    @property
    def n_params(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    @property
    def layout(self):
        """Shapes in flat-vector order: (W, b) per layer."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w.shape)
            out.append(b.shape)
        return out

    def get_flat(self):
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def set_flat(self, vec):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters")
        i = 0
        for layer in range(len(self.weights)):
            w = self.weights[layer]
            b = self.biases[layer]
            self.weights[layer] = vec[i : i + w.size].reshape(w.shape).copy()
            i += w.size
            self.biases[layer] = vec[i : i + b.size].copy()
            i += b.size

    def forward(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            x = np.tanh(x @ w + b)
        return x @ self.weights[-1] + self.biases[-1]

    def forward_cache(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        activations = [x]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            x = np.tanh(x @ w + b)
            activations.append(x)
        out = x @ self.weights[-1] + self.biases[-1]
        return out, activations

    def backward(self, activations, dout):
        """Gradient of sum(dout * output) w.r.t. the flat parameters."""
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = np.asarray(dout, dtype=float)
        for layer in range(len(self.weights) - 1, -1, -1):
            a = activations[layer]
            grads_w[layer] = a.T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (1.0 - a * a)
        parts = []
        for gw, gb in zip(grads_w, grads_b):
            parts.append(gw.ravel())
            parts.append(gb.ravel())
        return np.concatenate(parts)


class Adam:
    """First-order adaptive-moment ascent/descent on a flat vector."""

    def __init__(self, n_params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def step(self, params, grad):
        """One minimization step; pass -grad to ascend."""
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
