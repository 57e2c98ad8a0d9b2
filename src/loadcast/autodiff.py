"""Reverse-mode differentiation on 2-D float64 arrays.

The graph is rebuilt on every forward pass (define-by-run): each operation
returns a new :class:`Mat` holding its value, the parent nodes, and a closure
that propagates the output adjoint back to the parents.  ``backward`` walks
the graph once in reverse topological order.  Gradients accumulate until
``zero_grad`` is called, so repeated backward passes without a reset add up.

Everything is double precision and strictly 2-D: row vectors are ``(1, n)``,
scalars are ``(1, 1)``.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

LAYER_NORM_EPS = 1e-5


class Mat:
    """A 2-D value in the computation record.

    Leaves (parameters, constants) have no parents.  ``grad`` has the same
    shape as ``values`` and reads as zeros until ``backward`` adds to it.
    Its buffer is allocated on first read, so a forward pass that nothing
    differentiates allocates none; assigning ``grad`` rebinds the buffer.
    """

    __slots__ = ("values", "_grad", "_parents", "_vjp")

    def __init__(self, values, _parents: tuple = (), _vjp: Callable | None = None):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim == 0:
            v = v.reshape(1, 1)
        elif v.ndim == 1:
            v = v.reshape(1, -1)
        elif v.ndim != 2:
            raise ValueError(f"Mat requires a 2-D array, got shape {v.shape}")
        self.values = v
        self._grad = None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.values)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item() on non-scalar Mat of shape {self.shape}")
        return float(self.values[0, 0])

    def __repr__(self) -> str:
        return f"Mat(shape={self.shape})"

    def __matmul__(self, other):
        return matmul(self, other)


def as_mat(x) -> Mat:
    """Wrap plain arrays/scalars as constant leaves; pass Mats through."""
    return x if isinstance(x, Mat) else Mat(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    out = grad
    if shape[0] == 1 and out.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    if out.shape != shape:
        raise ValueError(f"cannot reduce gradient {grad.shape} to {shape}")
    return out


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Mat:
    a, b = as_mat(a), as_mat(b)
    out = Mat(a.values + b.values, (a, b))

    def vjp(g):
        a.grad += _unbroadcast(g, a.values.shape)
        b.grad += _unbroadcast(g, b.values.shape)

    out._vjp = vjp
    return out


def sub(a, b) -> Mat:
    a, b = as_mat(a), as_mat(b)
    out = Mat(a.values - b.values, (a, b))

    def vjp(g):
        a.grad += _unbroadcast(g, a.values.shape)
        b.grad -= _unbroadcast(g, b.values.shape)

    out._vjp = vjp
    return out


def mul(a, b) -> Mat:
    """Elementwise product with 2-D broadcasting."""
    a, b = as_mat(a), as_mat(b)
    out = Mat(a.values * b.values, (a, b))

    def vjp(g):
        a.grad += _unbroadcast(g * b.values, a.values.shape)
        b.grad += _unbroadcast(g * a.values, b.values.shape)

    out._vjp = vjp
    return out


def scale(a, c: float) -> Mat:
    a = as_mat(a)
    c = float(c)
    out = Mat(a.values * c, (a,))

    def vjp(g):
        a.grad += g * c

    out._vjp = vjp
    return out


def matmul(a, b) -> Mat:
    a, b = as_mat(a), as_mat(b)
    if a.values.shape[1] != b.values.shape[0]:
        raise ValueError(
            f"matmul shape mismatch: {a.values.shape} @ {b.values.shape}"
        )
    out = Mat(a.values @ b.values, (a, b))

    def vjp(g):
        a.grad += g @ b.values.T
        b.grad += a.values.T @ g

    out._vjp = vjp
    return out


def affine(x, w, b) -> Mat:
    """``x @ w + b`` with ``b`` broadcast over rows."""
    x, w, b = as_mat(x), as_mat(w), as_mat(b)
    if x.values.shape[1] != w.values.shape[0]:
        raise ValueError(
            f"affine shape mismatch: {x.values.shape} @ {w.values.shape}"
        )
    out = Mat(x.values @ w.values + b.values, (x, w, b))

    def vjp(g):
        x.grad += g @ w.values.T
        w.grad += x.values.T @ g
        b.grad += _unbroadcast(g, b.values.shape)

    out._vjp = vjp
    return out


def relu(x) -> Mat:
    x = as_mat(x)
    out = Mat(np.maximum(x.values, 0.0), (x,))

    def vjp(g):
        x.grad += g * (x.values > 0)

    out._vjp = vjp
    return out


def absolute(x) -> Mat:
    """|x| elementwise; subgradient 0 at exactly 0."""
    x = as_mat(x)
    out = Mat(np.abs(x.values), (x,))
    sign = np.sign(x.values)

    def vjp(g):
        x.grad += g * sign

    out._vjp = vjp
    return out


def block_attention(q, k, v, blocks: int = 1, heads: int = 1) -> tuple[Mat, np.ndarray]:
    """Multi-head scaled dot-product attention inside row blocks.

    ``q`` stacks ``blocks`` query blocks of equal height; ``k`` and ``v``
    stack as many key/value blocks.  Rows of query block ``b`` attend only
    to rows of key block ``b``.  Columns split evenly into ``heads`` heads;
    head ``h`` computes ``softmax(Q_h K_hᵀ / sqrt(d_h)) V_h``, row-wise, and the
    head outputs are laid side by side, as a concatenation of per-head
    attention would.

    Returns the output and the attention weights, shaped
    ``(blocks, heads, query rows per block, key rows per block)``.
    """
    q, k, v = as_mat(q), as_mat(k), as_mat(v)
    (nq, dq), (nk, dk), (nv, dv) = q.shape, k.shape, v.shape
    if dq != dk:
        raise ValueError(f"query width {dq} != key width {dk}")
    if nv != nk:
        raise ValueError(f"key rows {nk} != value rows {nv}")
    if blocks < 1 or nq % blocks or nk % blocks:
        raise ValueError(f"{nq} query / {nk} key rows do not split into {blocks} blocks")
    if heads < 1 or dq % heads or dv % heads:
        raise ValueError(f"widths {dq} / {dv} do not split into {heads} heads")
    lq, lk = nq // blocks, nk // blocks

    def split(values, rows):  # (blocks*rows, heads*w) -> (blocks, heads, rows, w)
        return values.reshape(blocks, rows, heads, -1).transpose(0, 2, 1, 3)

    def merge(values):  # inverse of split
        return values.transpose(0, 2, 1, 3).reshape(values.shape[0] * values.shape[2], -1)

    qh, kh, vh = split(q.values, lq), split(k.values, lk), split(v.values, lk)
    c = 1.0 / np.sqrt(dq // heads)
    scores = (qh @ kh.swapaxes(-1, -2)) * c
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    out = Mat(merge(w @ vh), (q, k, v))

    def vjp(g):
        gh = split(g, lq)
        gw = gh @ vh.swapaxes(-1, -2)
        gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True)) * c
        q.grad += merge(gs @ kh)
        k.grad += merge(gs.swapaxes(-1, -2) @ qh)
        v.grad += merge(w.swapaxes(-1, -2) @ gh)

    out._vjp = vjp
    return out, w


def layer_norm_rows(x, gain, bias) -> Mat:
    """Per-row normalisation to zero mean / unit variance, then gain and bias.

    ``gain`` and ``bias`` are ``(1, D)`` and broadcast over rows.
    """
    x, gain, bias = as_mat(x), as_mat(gain), as_mat(bias)
    v = x.values
    d = v.shape[1]
    mu = v.mean(axis=1, keepdims=True)
    centered = v - mu
    var = (centered ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    out = Mat(xhat * gain.values + bias.values, (x, gain, bias))

    def vjp(g):
        gain.grad += _unbroadcast(g * xhat, gain.values.shape)
        bias.grad += _unbroadcast(g, bias.values.shape)
        gx = g * gain.values
        # standard layer-norm backward over the row axis
        x.grad += inv * (
            gx
            - gx.mean(axis=1, keepdims=True)
            - xhat * (gx * xhat).sum(axis=1, keepdims=True) / d
        )

    out._vjp = vjp
    return out


def dropout_factor(u: np.ndarray, p: float) -> np.ndarray:
    """An inverted-dropout multiplier from uniform draws ``u`` on ``[0, 1)``: 0
    where an entry is dropped (``u < p``, probability ``p``), ``1/(1-p)``
    where it is kept."""
    return (u >= p) / (1.0 - p)


def embed(x, views: Sequence[tuple], gates: Sequence[Mat], keep=None, summed=True) -> Mat:
    """Every view's embedding as one node.

    Column ``i`` of ``x`` (N x F) feeds view ``i``.  ``views[i]`` is
    ``(table,)`` for a lookup view, whose column holds integer codes into
    the card x d ``table``, or ``(w, b)`` for an affine view, embedded as
    ``value * w + b`` with ``w`` and ``b`` of shape ``(1, d)``.  Each view
    is scaled by its ``(1, 1)`` gate and zeroed where ``keep`` (N x F
    booleans; ``None`` keeps every view) is False.  The views are then
    summed in view order, ``(N, d)``, or laid side by side, ``(N, F*d)``.
    A code that is not integral raises ``ValueError``; one outside its
    table, ``IndexError``.
    """
    x = np.asarray(x, dtype=np.float64)
    n, f = x.shape
    lookup = [i for i, v in enumerate(views) if len(v) == 1]
    affine = [i for i, v in enumerate(views) if len(v) == 2]
    pre = np.empty((f, n, views[0][0].values.shape[1]))  # before gate and mask
    if lookup:
        tables = [views[i][0].values for i in lookup]
        cards = np.array([len(t) for t in tables])
        codes = np.rint(raw := x[:, lookup].T)
        if np.any(codes != raw):
            raise ValueError("embedding indices must be integral")
        bad = (codes < 0) | (codes >= cards[:, None])
        if bad.any():
            k, j = np.argwhere(bad)[0]
            raise IndexError(f"embedding index {codes[k, j]:.0f} outside table of size {cards[k]}")
        codes = codes.astype(np.int64)
        pre[lookup] = np.concatenate(tables)[codes + (np.cumsum(cards) - cards)[:, None]]
    if affine:
        w, b = (np.concatenate([views[i][k].values for i in affine]) for k in (0, 1))
        pre[affine] = x[:, affine].T[:, :, None] * w[:, None] + b[:, None]
    factor = np.concatenate([g.values for g in gates])[:, :, None]
    if keep is not None:
        keep = np.asarray(keep).T[:, :, None]
        factor = factor * keep
    each = pre * factor
    if summed:  # a running sum, view after view; np.sum may pair terms up
        value = each[0].copy()
        for term in each[1:]:
            value += term
    else:
        value = each.transpose(1, 0, 2).reshape(n, -1)
    out = Mat(value, tuple(p for v in views for p in v) + tuple(gates))

    def vjp(g):
        grads = g[None] if summed else g.reshape(n, f, -1).transpose(1, 0, 2).copy()
        moments = grads * pre
        if keep is not None:
            moments *= keep
        # each gate's gradient sums its own view's (N, d) block, rows first,
        # as _unbroadcast sums a (1, 1) parent's
        for gate, total in zip(gates, moments.sum(axis=1).sum(axis=1)):
            gate.grad += total
        grads = grads * factor
        for j, i in enumerate(lookup):
            # bincount adds in row order into zeros: np.add.at's sums
            table = views[i][0]
            card, d = table.values.shape
            slots = (codes[j][:, None] * d + np.arange(d)).ravel()
            table.grad += np.bincount(slots, grads[i].ravel(), card * d).reshape(card, d)
        for i in affine:  # one matmul per view rounds as ad.affine's does
            w, b = views[i]
            w.grad += x[:, i].reshape(-1, 1).T @ grads[i]
            b.grad += _unbroadcast(grads[i], b.values.shape)

    out._vjp = vjp
    return out


def concat_rows(mats: Sequence) -> Mat:
    mats = [as_mat(m) for m in mats]
    if not mats:
        raise ValueError("concat_rows of an empty list")
    cols = mats[0].values.shape[1]
    for m in mats:
        if m.values.shape[1] != cols:
            raise ValueError(
                f"concat_rows column mismatch: {m.values.shape} vs {cols} columns"
            )
    out = Mat(np.concatenate([m.values for m in mats], axis=0), tuple(mats))
    heights = [m.values.shape[0] for m in mats]
    offsets = np.cumsum([0] + heights)

    def vjp(g):
        for m, lo, hi in zip(mats, offsets[:-1], offsets[1:]):
            m.grad += g[lo:hi, :]

    out._vjp = vjp
    return out


def take_rows(x, rows) -> Mat:
    """Gather rows of ``x`` at integer positions ``rows``."""
    x = as_mat(x)
    idx = np.asarray(rows, dtype=np.int64)
    out = Mat(x.values[idx], (x,))

    def vjp(g):
        np.add.at(x.grad, idx, g)

    out._vjp = vjp
    return out


def mean(x) -> Mat:
    """Scalar mean of all entries, as a 1x1 Mat."""
    x = as_mat(x)
    n = x.values.size
    out = Mat(np.array([[x.values.mean()]]), (x,))

    def vjp(g):
        x.grad += g[0, 0] / n

    out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward(loss: Mat) -> None:
    """Populate ``grad`` on every node reachable from ``loss``.

    ``loss`` must be 1x1.  Gradients accumulate across calls; use
    ``zero_grad`` between passes.
    """
    if not isinstance(loss, Mat):
        raise TypeError("backward expects a Mat")
    if loss.values.shape != (1, 1):
        raise ValueError(f"backward expects a 1x1 loss, got shape {loss.shape}")

    # iterative post-order topological sort (graphs can be thousands deep)
    topo: list[Mat] = []
    visited: set[int] = set()
    stack: list[tuple[Mat, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    loss.grad = loss.grad + 1.0
    for node in reversed(topo):
        if node._vjp is not None:
            node._vjp(node.grad)


def zero_grad(params: Iterable[Mat]) -> None:
    for p in params:
        p.grad[...] = 0.0


# ---------------------------------------------------------------------------
# deterministic randomness
# ---------------------------------------------------------------------------

class RngStream:
    """Named, splittable, counter-based deterministic random stream.

    Each ``draw`` derives a fresh ``numpy`` generator from
    ``(seed, path, counter)`` via ``SeedSequence``, so the sequence of values
    depends only on the seed and the order of draws, identical on every
    platform and resumable by restoring the counter.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = (), counter: int = 0):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        self.counter = int(counter)

    def draw(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=self.path + (self.counter,)
        )
        self.counter += 1
        return np.random.Generator(np.random.PCG64(ss))

    def split(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.path + (int(index),), 0)

    def state(self) -> dict:
        return {"seed": self.seed, "path": list(self.path), "counter": self.counter}

    @classmethod
    def from_state(cls, state: dict) -> "RngStream":
        return cls(state["seed"], tuple(state["path"]), state["counter"])


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

def finite_diff_check(
    f: Callable[[], Mat],
    params: Sequence[tuple[str, Mat]],
    eps: float = 1e-5,
    zero_tol: float = 1e-6,
) -> tuple[float, str]:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` re-evaluates the (deterministic) scalar loss from the current
    parameter values on every call.  For each parameter entry the analytic
    gradient is checked against ``(f(th+eps) - f(th-eps)) / (2 eps)``.

    Entries where both gradients are below ``zero_tol`` are counted as exact
    agreement: differences that small are under the measurement noise of the
    finite-difference probe itself.

    Returns ``(max relative error, name of the worst parameter)``.
    """
    zero_grad([p for _, p in params])
    loss = f()
    backward(loss)
    analytic = [(name, p, p.grad.copy()) for name, p, in params]

    worst = 0.0
    worst_name = ""
    for name, p, grad in analytic:
        flat = p.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f().item()
            flat[i] = orig - eps
            lo = f().item()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            a = grad.reshape(-1)[i]
            denom = max(abs(a), abs(numeric))
            if denom < zero_tol:
                continue
            err = abs(a - numeric) / denom
            if err > worst:
                worst = err
                worst_name = f"{name}[{i}]"
    return worst, worst_name
