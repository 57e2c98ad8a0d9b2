"""Reverse-mode differentiation on 2-D float64 arrays.

The graph is rebuilt on every forward pass (define-by-run): each operation
returns a new :class:`Mat` holding its value, the parent nodes, and a closure
that propagates the output adjoint back to the parents.  ``backward`` runs
those closures once each, newest node first.  Gradients accumulate until
``zero_grad`` is called, so repeated backward passes without a reset add up.

A primitive may be a whole sublayer (:func:`ffn`, :func:`residual_norm`,
:func:`attention_sublayer`): with a hand-written vjp it is one node however
many array operations it runs.

Everything is double precision and strictly 2-D: row vectors are ``(1, n)``,
scalars are ``(1, 1)``.
"""
from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

LAYER_NORM_EPS = 1e-5

# numbers every Mat in creation order; only the order is read, so one
# counter serves every graph in the process
_created = itertools.count()


class Mat:
    """A 2-D value in the computation record.

    Leaves (parameters, constants) have no parents.  ``grad`` has the same
    shape as ``values`` and reads as zeros until ``backward`` adds to it.
    Its buffer is allocated on first read, so a forward pass that nothing
    differentiates allocates none; assigning ``grad`` rebinds the buffer.
    ``_seq`` numbers the nodes in creation order, so every node comes after
    its parents.
    """

    __slots__ = ("values", "_grad", "_parents", "_vjp", "_seq")

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
        self._seq = next(_created)

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
        out = np.add.reduce(out, axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = np.add.reduce(out, axis=1, keepdims=True)
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


def ffn(x, w1, b1, w2, b2, factor: np.ndarray | None = None) -> Mat:
    """``relu(x @ w1 + b1) @ w2 + b2`` as one node, times the dropout
    ``factor`` when one is given."""
    x, w1, b1, w2, b2 = (as_mat(m) for m in (x, w1, b1, w2, b2))
    hidden = x.values @ w1.values
    hidden += b1.values
    np.maximum(hidden, 0.0, out=hidden)
    value = hidden @ w2.values
    value += b2.values
    if factor is not None:
        value *= factor
    out = Mat(value, (x, w1, b1, w2, b2))

    def vjp(g):
        if factor is not None:
            g = g * factor
        gh = g @ w2.values.T
        w2.grad += hidden.T @ g
        b2.grad += _unbroadcast(g, b2.values.shape)
        gh *= hidden > 0
        x.grad += gh @ w1.values.T
        w1.grad += x.values.T @ gh
        b1.grad += _unbroadcast(gh, b1.values.shape)

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


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, blocks: int, heads: int):
    """The softmax-attention math of :func:`block_attention` on arrays.

    Returns the output, the weights and a function from the output's
    adjoint to the adjoints of ``q``, ``k`` and ``v``.
    """
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

    qh, kh, vh = split(q, lq), split(k, lk), split(v, lk)
    c = 1.0 / np.sqrt(dq // heads)
    scores = (qh @ kh.swapaxes(-1, -2)) * c
    e = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    w = e / np.add.reduce(e, axis=-1, keepdims=True)

    def back(g):
        gh = split(g, lq)
        gw = gh @ vh.swapaxes(-1, -2)
        gs = w * (gw - np.add.reduce(gw * w, axis=-1, keepdims=True)) * c
        return merge(gs @ kh), merge(gs.swapaxes(-1, -2) @ qh), merge(w.swapaxes(-1, -2) @ gh)

    return merge(w @ vh), w, back


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
    value, w, back = _attend(q.values, k.values, v.values, blocks, heads)
    out = Mat(value, (q, k, v))

    def vjp(g):
        gq, gk, gv = back(g)
        q.grad += gq
        k.grad += gk
        v.grad += gv

    out._vjp = vjp
    return out, w


def attention_sublayer(
    xq, xk, xv, wq, wk, wv, wo, blocks: int = 1, heads: int = 1,
    factor: np.ndarray | None = None,
) -> tuple[Mat, np.ndarray]:
    """``block_attention(xq @ wq, xk @ wk, xv @ wv) @ wo`` as one node,
    times the dropout ``factor`` when one is given.

    ``xv`` given as a plain array is a constant and gets no gradient.  An
    input passed in more than one place (self-attention) collects its
    query, then key, then value gradient.  Returns the output and the
    attention weights, as :func:`block_attention` does.
    """
    xq, xk, wq, wk, wv, wo = (as_mat(m) for m in (xq, xk, wq, wk, wv, wo))
    constant = not isinstance(xv, Mat)
    v_in = np.asarray(xv, dtype=np.float64) if constant else xv.values
    att, w, back = _attend(
        xq.values @ wq.values, xk.values @ wk.values, v_in @ wv.values, blocks, heads
    )
    value = att @ wo.values
    if factor is not None:
        value *= factor
    inputs = (xq, xk) if constant else (xq, xk, xv)
    out = Mat(value, inputs + (wq, wk, wv, wo))

    def vjp(g):
        if factor is not None:
            g = g * factor
        wo.grad += att.T @ g
        gq, gk, gv = back(g @ wo.values.T)
        xq.grad += gq @ wq.values.T
        wq.grad += xq.values.T @ gq
        xk.grad += gk @ wk.values.T
        wk.grad += xk.values.T @ gk
        if not constant:
            xv.grad += gv @ wv.values.T
        wv.grad += v_in.T @ gv

    out._vjp = vjp
    return out, w


def layer_norm_rows(x, gain, bias) -> Mat:
    """Per-row normalisation to zero mean / unit variance, then gain and bias.

    ``gain`` and ``bias`` are ``(1, D)`` and broadcast over rows.
    """
    return residual_norm(x, None, gain, bias)


def residual_norm(x, r, gain, bias) -> Mat:
    """``layer_norm_rows(x + r, gain, bias)`` as one node; ``r`` None
    normalises ``x`` alone.  Each row mean is ``np.add.reduce / D``, the
    bits of ``ndarray.mean``."""
    inputs = tuple(as_mat(m) for m in ((x,) if r is None else (x, r)))
    gain, bias = as_mat(gain), as_mat(bias)
    v = inputs[0].values if r is None else inputs[0].values + inputs[1].values
    d = v.shape[1]
    centered = v - np.add.reduce(v, axis=1, keepdims=True) / d
    var = np.add.reduce(centered**2, axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    out = Mat(xhat * gain.values + bias.values, inputs + (gain, bias))

    def vjp(g):
        gain.grad += _unbroadcast(g * xhat, gain.values.shape)
        bias.grad += _unbroadcast(g, bias.values.shape)
        gx = g * gain.values
        # standard layer-norm backward over the row axis
        gv = inv * (
            gx
            - np.add.reduce(gx, axis=1, keepdims=True) / d
            - xhat * np.add.reduce(gx * xhat, axis=1, keepdims=True) / d
        )
        for m in inputs:
            m.grad += gv

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
        stacked = codes + (np.cumsum(cards) - cards)[:, None]  # rows of the stacked tables
        pre[lookup] = np.concatenate(tables)[stacked]
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
        if lookup:
            # one bincount over the stacked tables adds in row order into
            # zeros, np.add.at's sums, and no two tables share a slot
            d = grads.shape[2]
            slots = stacked[:, :, None] * d + np.arange(d)
            sums = np.bincount(slots.ravel(), grads[lookup].ravel(), cards.sum() * d)
            sums = sums.reshape(-1, d)
            ends = np.cumsum(cards).tolist()
            for i, lo, hi in zip(lookup, [0] + ends, ends):
                views[i][0].grad += sums[lo:hi]
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

    # every node with a vjp that the loss reaches through such nodes, newest
    # first: a node is created after its parents, so it runs after every
    # node that consumes it.  Leaves are never visited.
    nodes: list[Mat] = [loss] if loss._vjp is not None else []
    seen = {id(loss)}
    for node in nodes:  # grows while it is walked
        for parent in node._parents:
            if parent._vjp is not None and id(parent) not in seen:
                seen.add(id(parent))
                nodes.append(parent)
    nodes.sort(key=attrgetter("_seq"), reverse=True)

    loss.grad = loss.grad + 1.0
    for node in nodes:
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
