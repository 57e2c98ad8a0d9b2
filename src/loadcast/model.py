"""Multi-view attention forecaster over lag-set inputs.

Every feature column is a "view".  Each view is embedded on its own
(lookup for categorical, affine for continuous, quantize-then-lookup under
the svd method), gated by a learnable scalar, optionally masked out, and
aggregated into the encoder input, all views in one step
(:func:`autodiff.embed`).  A small encoder/decoder attention stack
maps the aggregate to a multi-hour forecast read off the most recent lag
row.  Each sublayer of the stack is one tape node: the attention sublayer
with its projections and dropout, the feed-forward block with its dropout,
and the residual sum with its layer norm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Mat, RngStream
from .errors import ConfigError
from .frames import CATEGORICAL, CONTINUOUS, TARGET, FeatureSpec, Scaler

METHODS = ("additive", "concatenative", "svd")
HEAD_REDUCES = ("last", "mean")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; ``None`` fields resolve to method defaults."""

    method: str = "additive"
    d: int | None = None  # embedding dim per view; 32 default, 1 under svd
    heads: int = 2
    encoder_layers: int = 2
    decoder_layers: int = 2
    ffn_width: int | None = None  # None resolves to 4x model width
    transformer_dropout: float = 0.1
    embedding_dropout: float = 0.2
    horizon: int = 24
    bins: int = 16
    head_reduce: str = "last"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}, want one of {METHODS}")
        if self.method == "svd" and self.d not in (None, 1):
            raise ConfigError("svd method forces embedding dim 1")
        if self.d is not None and self.d < 1:
            raise ConfigError(f"embedding dim must be >= 1, got {self.d}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.encoder_layers < 0:
            raise ConfigError("encoder_layers must be >= 0")
        if self.decoder_layers < 1:
            raise ConfigError("decoder_layers must be >= 1")
        if self.ffn_width is not None and self.ffn_width < 1:
            raise ConfigError("ffn_width must be >= 1")
        for name in ("transformer_dropout", "embedding_dropout"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {p}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.bins < 2:
            raise ConfigError(f"bins must be >= 2, got {self.bins}")
        if self.head_reduce not in HEAD_REDUCES:
            raise ConfigError(f"head_reduce must be one of {HEAD_REDUCES}")

    @property
    def embed_dim(self) -> int:
        if self.method == "svd":
            return 1
        return 32 if self.d is None else self.d

    def width(self, n_views: int) -> int:
        """Model width D: per-view dim for additive, concatenated otherwise."""
        if self.method == "additive":
            return self.embed_dim
        return self.embed_dim * n_views

    def ffn(self, width: int) -> int:
        return 4 * width if self.ffn_width is None else self.ffn_width


# A forward pass's view masking and dropout: ``None`` evaluates, a keep mask
# from :func:`forced_keep` keeps fixed views, the training RngStream drops.
Mode = RngStream | tuple[bool, ...] | None


def forced_keep(specs: tuple[FeatureSpec, ...], kept_names) -> tuple[bool, ...]:
    """Keep mask, one entry per view: the named views and the target."""
    names = set(kept_names)
    unknown = names - {s.name for s in specs}
    if unknown:
        raise ConfigError(f"unknown view names in mask: {sorted(unknown)}")
    return tuple(s.role == TARGET or s.name in names for s in specs)


@dataclass(frozen=True)
class Quantizer:
    """Equal-width binning of a scaled continuous value."""

    lo: float
    hi: float
    bins: int

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ConfigError(f"degenerate quantizer range [{self.lo}, {self.hi}]")

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bins

    def index(self, x: np.ndarray) -> np.ndarray:
        """Bin index per value, clamped to the edge bins outside the range."""
        return _bin(x, self.lo, self.bin_width, self.bins)

    def edges(self) -> np.ndarray:
        return self.lo + self.bin_width * np.arange(self.bins + 1)


def _bin(x, lo, width, bins) -> np.ndarray:
    """Equal-width bin indices of ``x``; ``lo``, ``width`` and ``bins`` are
    one quantizer's or, broadcast over columns, one per column."""
    raw = np.floor((np.asarray(x) - lo) / width)
    return np.clip(raw, 0, np.asarray(bins) - 1).astype(np.int64)


@dataclass
class ModelTrace:
    """Optional per-forward capture of attention maps (one per head per layer).

    A map has one row per query row and one column per key row of its
    block.  Under ``head_reduce: last`` the last decoder layer queries only
    each block's most recent row, so its maps are ``(blocks, L)``; every
    other layer's are ``(blocks * L, L)``.
    """

    attention: list[np.ndarray] = field(default_factory=list)


def attention(
    q: Mat,
    k: Mat,
    v: Mat,
    trace: ModelTrace | None = None,
    blocks: int = 1,
    heads: int = 1,
) -> Mat:
    """Scaled dot-product attention: row-wise softmax(Q Kᵀ / sqrt(k)) V.

    With ``blocks`` > 1 the rows hold that many stacked examples and each
    attends only within its own block; ``heads`` splits the columns into
    independent heads (see :func:`autodiff.block_attention`).  The trace
    receives one map per head, the blocks' maps stacked row-wise.
    """
    if k.shape[1] != q.shape[1]:
        raise ConfigError(f"query width {q.shape[1]} != key width {k.shape[1]}")
    if v.shape[0] != k.shape[0]:
        raise ConfigError(f"key rows {k.shape[0]} != value rows {v.shape[0]}")
    out, weights = ad.block_attention(q, k, v, blocks, heads)
    _record(trace, weights)
    return out


def _record(trace: ModelTrace | None, weights: np.ndarray) -> None:
    """Append one map per head of ``(blocks, heads, rows, keys)`` attention
    weights to ``trace``, the blocks' maps stacked row-wise."""
    if trace is not None:
        for h in range(weights.shape[1]):
            trace.attention.append(weights[:, h].reshape(-1, weights.shape[-1]).copy())


class Model:
    """Parameter container plus the forward pipeline.

    Every parameter value lives in one float64 vector ``theta`` and every
    gradient in a second one, ``grad``, both in ``params`` order; each named
    parameter's ``values`` and ``grad`` are reshaped views of its slice.
    """

    def __init__(
        self,
        config: ModelConfig,
        specs: tuple[FeatureSpec, ...],
        params: dict[str, Mat],
        quantizers: dict[str, Quantizer],
    ):
        self.config = config
        self.specs = tuple(specs)
        self.params = params
        self.theta = np.concatenate([p.values.ravel() for p in params.values()])
        self.grad = np.zeros_like(self.theta)
        start = 0
        for p in params.values():
            end = start + p.values.size
            p.values = self.theta[start:end].reshape(p.shape)
            p.grad = self.grad[start:end].reshape(p.shape)
            start = end
        self.quantizers = quantizers
        targets = [i for i, s in enumerate(self.specs) if s.role == TARGET]
        if len(targets) != 1:
            raise ConfigError(f"need exactly one target view, got {len(targets)}")
        self.target_view = targets[0]
        # each view's embedding parameters, as ad.embed and explain read
        # them: (table,) for a categorical view and for every view under
        # svd (continuous ones quantized first), else the affine (w, b)
        svd = config.method == "svd"
        self.views = tuple(
            (params[f"embed/{s.name}/table"],) if svd or s.kind == CATEGORICAL
            else (params[f"embed/{s.name}/w"], params[f"embed/{s.name}/b"])
            for s in self.specs
        )
        self.gates = tuple(params[f"gate/{s.name}"] for s in self.specs)
        self._binned = [i for i, s in enumerate(self.specs) if svd and s.kind == CONTINUOUS]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        config: ModelConfig,
        specs: tuple[FeatureSpec, ...],
        rng: RngStream | None,
        scaler: Scaler | None = None,
    ) -> "Model":
        """A model of ``config`` over ``specs``, its weights drawn from
        ``rng``; with ``rng`` None they are zeros, for a caller that fills
        ``theta`` itself."""
        f = len(specs)
        d = config.embed_dim
        width = config.width(f)
        if width % config.heads:
            raise ConfigError(
                f"model width {width} not divisible by {config.heads} heads"
            )
        quantizers: dict[str, Quantizer] = {}
        if config.method == "svd":
            if scaler is None:
                raise ConfigError("svd method needs a fitted scaler for its quantizers")
            for spec in specs:
                if spec.kind != CONTINUOUS:
                    continue
                st = scaler.stats[spec.name]
                lo = (st.vmin - st.mean) / st.std
                hi = (st.vmax - st.mean) / st.std
                quantizers[spec.name] = Quantizer(lo, hi, config.bins)

        params: dict[str, Mat] = {}

        def uniform(name: str, shape: tuple[int, int], fan_in: int) -> None:
            if rng is None:
                params[name] = Mat(np.zeros(shape))
                return
            bound = math.sqrt(1.0 / fan_in)
            params[name] = Mat(rng.draw().uniform(-bound, bound, shape))

        def zeros(name: str, shape: tuple[int, int]) -> None:
            params[name] = Mat(np.zeros(shape))

        def ones(name: str, shape: tuple[int, int]) -> None:
            params[name] = Mat(np.ones(shape))

        for spec in specs:
            if spec.kind == CATEGORICAL:
                uniform(f"embed/{spec.name}/table", (spec.cardinality, d), 1)
            elif config.method == "svd":
                uniform(f"embed/{spec.name}/table", (config.bins, d), 1)
            else:
                uniform(f"embed/{spec.name}/w", (1, d), 1)
                zeros(f"embed/{spec.name}/b", (1, d))
            ones(f"gate/{spec.name}", (1, 1))

        hidden = config.ffn(width)

        def block(prefix: str, v_rows: int) -> None:
            uniform(f"{prefix}/attn/wq", (width, width), width)
            uniform(f"{prefix}/attn/wk", (width, width), width)
            uniform(f"{prefix}/attn/wv", (v_rows, width), v_rows)
            uniform(f"{prefix}/attn/wo", (width, width), width)
            ones(f"{prefix}/norm1/gain", (1, width))
            zeros(f"{prefix}/norm1/bias", (1, width))
            uniform(f"{prefix}/ffn/w1", (width, hidden), width)
            zeros(f"{prefix}/ffn/b1", (1, hidden))
            uniform(f"{prefix}/ffn/w2", (hidden, width), hidden)
            zeros(f"{prefix}/ffn/b2", (1, width))
            ones(f"{prefix}/norm2/gain", (1, width))
            zeros(f"{prefix}/norm2/bias", (1, width))

        for i in range(1, config.encoder_layers + 1):
            block(f"enc{i}", width)
        for i in range(1, config.decoder_layers + 1):
            block(f"dec{i}", f if i == 1 else width)
        uniform("head/w", (width, config.horizon), width)
        zeros("head/b", (1, config.horizon))

        return cls(config, specs, params, quantizers)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def n_views(self) -> int:
        return len(self.specs)

    @property
    def width(self) -> int:
        return self.config.width(self.n_views)

    def parameters(self) -> list[tuple[str, Mat]]:
        return list(self.params.items())

    def n_params(self) -> int:
        return self.theta.size

    # ------------------------------------------------------------------
    # forward pipeline
    #
    # A batch of B examples with L lag rows each travels as one stack of
    # B*L rows: every row-wise step serves the whole batch at once and
    # attention stays inside each example's L-row block, so one batch is
    # one graph.
    # ------------------------------------------------------------------

    def _draw_masks(
        self, mode: Mode, blocks: int, rows: int, sites: int
    ) -> tuple[np.ndarray, list[np.ndarray | None]]:
        """View-keep masks ``(blocks, F)`` plus a dropout factor for each of
        ``sites`` sublayers in network order, ``(blocks*rows, width)`` or
        ``None``.

        ``mode`` is ``None`` to evaluate: every view kept, no dropout.  A
        keep mask from :func:`forced_keep` keeps its views in every block,
        with no dropout.  An :class:`RngStream` trains: each block drops
        every view with probability ``embedding_dropout`` and every sublayer
        unit with ``transformer_dropout``.  The target view is kept in every
        mode.  Training makes one ``mode.draw()`` per example, in example
        order, and reads its doubles as the view mask's ``F`` (when
        ``embedding_dropout > 0``) and then one ``(rows, width)`` block per
        sublayer (when ``transformer_dropout > 0``).  Each example reads only
        its own draw, so a batch sees the masks that ``blocks`` separate
        single-example forwards would.
        """
        f = self.n_views
        keep = np.ones((blocks, f), dtype=bool)
        drops = [None] * sites
        if isinstance(mode, RngStream):
            p_e = self.config.embedding_dropout
            p = self.config.transformer_dropout
            views = f if p_e > 0.0 else 0
            units = sites if p > 0.0 else 0
            per = views + units * rows * self.width  # doubles per example
            if per:
                u = np.stack([mode.draw().random(per) for _ in range(blocks)])
                if views:
                    keep[:] = u[:, :views] >= p_e
                if units:
                    u = u[:, views:].reshape(blocks, units, rows, self.width)
                    drops = [
                        ad.dropout_factor(site.reshape(-1, self.width), p)
                        for site in u.swapaxes(0, 1)
                    ]
        elif mode is not None:
            if len(mode) != f:
                raise ConfigError(f"forced mask has {len(mode)} entries for {f} views")
            keep[:] = mode
        keep[:, self.target_view] = True
        return keep, drops

    def _embed(self, x: np.ndarray, keep: np.ndarray) -> Mat:
        """Embed stacked lag rows ``x``; ``keep`` is the ``(blocks, F)`` mask."""
        if self._binned:  # every quantized view binned in one pass
            quantizers = [self.quantizers.get(self.specs[i].name) for i in self._binned]
            for i, q in zip(self._binned, quantizers):
                if q is None:
                    raise ConfigError(f"no fitted quantizer for view {self.specs[i].name!r}")
            lo, width, bins = np.array([(q.lo, q.bin_width, q.bins) for q in quantizers]).T
            x = x.copy()
            x[:, self._binned] = _bin(x[:, self._binned], lo, width, bins)
        mask = None if keep.all() else np.repeat(keep, len(x) // len(keep), axis=0)
        return ad.embed(x, self.views, self.gates, mask, self.config.method == "additive")

    def _multi_head(
        self,
        prefix: str,
        q_src: Mat,
        k_src: Mat,
        v_src: Mat | np.ndarray,
        blocks: int,
        trace: ModelTrace | None,
        factor: np.ndarray | None = None,
    ) -> Mat:
        """The attention sublayer ``prefix``, its projections and dropout
        included, as one node (:func:`autodiff.attention_sublayer`)."""
        weights = (self.params[f"{prefix}/attn/{w}"] for w in ("wq", "wk", "wv", "wo"))
        out, maps = ad.attention_sublayer(
            q_src, k_src, v_src, *weights, blocks, self.config.heads, factor
        )
        _record(trace, maps)
        return out

    def _ffn(self, prefix: str, x: Mat, factor: np.ndarray | None = None) -> Mat:
        """The feed-forward sublayer ``prefix`` as one node."""
        p = self.params
        return ad.ffn(
            x, p[f"{prefix}/ffn/w1"], p[f"{prefix}/ffn/b1"],
            p[f"{prefix}/ffn/w2"], p[f"{prefix}/ffn/b2"], factor,
        )

    @staticmethod
    def _dropped(x: Mat, factor: np.ndarray | None) -> Mat:
        """``x`` times a dropout factor as a node of its own."""
        return x if factor is None else ad.mul(x, Mat(factor))

    def encode(
        self,
        z: Mat,
        blocks: int = 1,
        drops=None,
        trace: ModelTrace | None = None,
    ) -> Mat:
        """Self-attention stack over ``blocks`` stacked examples.

        ``drops`` yields one dropout factor (or ``None``) per sublayer and
        is consumed in order; leaving it out disables dropout.
        """
        if z.shape[1] != self.width:
            raise ConfigError(f"encoder input width {z.shape[1]}, expected {self.width}")
        p = self.params
        drops = iter(drops or ())
        h = z
        for i in range(1, self.config.encoder_layers + 1):
            attn = self._multi_head(f"enc{i}", h, h, h, blocks, trace, next(drops, None))
            h = ad.residual_norm(h, attn, p[f"enc{i}/norm1/gain"], p[f"enc{i}/norm1/bias"])
            f = self._ffn(f"enc{i}", h, next(drops, None))
            h = ad.residual_norm(h, f, p[f"enc{i}/norm2/gain"], p[f"enc{i}/norm2/bias"])
        return h

    def decode(
        self,
        h: Mat,
        raw_input: np.ndarray,
        blocks: int = 1,
        drops=None,
        trace: ModelTrace | None = None,
    ) -> Mat:
        """Cross-attention stack; queries and keys from the encoder output.

        The first layer's values come from the raw lag matrix, a constant,
        later layers from the previous layer's output.  The residual stream
        starts at the attention output, since the raw input's width differs
        from the model width.  ``drops`` works as in :meth:`encode`.

        Under ``head_reduce: last`` the last layer queries only the row the
        head reads, each block's last, and returns one row per block.  This
        is exact: no residual carries that layer's input forward and every
        later step works row by row.  Its dropout factors are still drawn
        for every row and then indexed, so the random stream is unchanged.
        """
        raw = np.asarray(raw_input)
        if raw.shape != (h.shape[0], self.n_views):
            raise ConfigError(
                f"raw input shape {raw.shape}, expected {(h.shape[0], self.n_views)}"
            )
        p = self.params
        drops = iter(drops or ())
        y = raw
        last = self.config.decoder_layers
        for i in range(1, last + 1):
            q, attn_drop, ffn_drop = h, next(drops, None), next(drops, None)
            if i == last and self.config.head_reduce == "last":
                tail = np.arange(1, blocks + 1) * (h.shape[0] // blocks) - 1
                q = ad.take_rows(h, tail)
                attn_drop = None if attn_drop is None else attn_drop[tail]
                ffn_drop = None if ffn_drop is None else ffn_drop[tail]
            attn = self._multi_head(f"dec{i}", q, h, y, blocks, trace, attn_drop)
            a = ad.layer_norm_rows(attn, p[f"dec{i}/norm1/gain"], p[f"dec{i}/norm1/bias"])
            f = self._ffn(f"dec{i}", a, ffn_drop)
            y = ad.residual_norm(a, f, p[f"dec{i}/norm2/gain"], p[f"dec{i}/norm2/bias"])
        return y

    def head(self, y: Mat, blocks: int = 1) -> Mat:
        """Per-row linear map to the horizon, one forecast row per block.

        Under ``head_reduce: last`` :meth:`decode` already returns one row
        per block, the most recent lag row, so the head is the affine map
        alone; under ``mean`` it averages the mapped rows of each block.
        """
        p = ad.affine(y, self.params["head/w"], self.params["head/b"])
        if self.config.head_reduce == "last":
            return p
        rows = p.shape[0] // blocks
        return Mat(np.kron(np.eye(blocks), np.full((1, rows), 1.0 / rows))) @ p

    def forward(
        self,
        input: np.ndarray,
        mode: Mode = None,
        trace: ModelTrace | None = None,
    ) -> Mat:
        """Full pipeline for one example's ``(L, F)`` lag rows: embed,
        encode, cross-decode, read the ``(1, horizon)`` forecast row.  It is
        :meth:`forward_batch` on a batch of one, whose shape check names
        the view count."""
        return self.forward_batch(np.asarray(input)[None], mode, trace)

    def forward_batch(
        self,
        inputs: np.ndarray,
        mode: Mode = None,
        trace: ModelTrace | None = None,
    ) -> Mat:
        """``B`` examples ``(B, L, F)`` through one graph; returns
        ``(B, horizon)`` whose row ``b`` is what ``forward(inputs[b], mode)``
        gives when the B forwards run in turn.

        ``mode`` is one of three forms: ``None`` evaluates, keeping every
        view with no dropout; a keep mask from :func:`forced_keep` keeps
        only its views, with no dropout; the training :class:`RngStream`
        draws view and sublayer dropout from that stream.
        """
        x = np.asarray(inputs)
        if x.ndim != 3 or x.shape[2] != self.n_views:
            raise ConfigError(
                f"batch shape {x.shape} is not (examples, lags, {self.n_views} views)"
            )
        blocks, rows, _ = x.shape
        flat = x.reshape(blocks * rows, self.n_views)
        sites = 2 * (self.config.encoder_layers + self.config.decoder_layers)
        keep, drops = self._draw_masks(mode, blocks, rows, sites)
        drops = iter(drops)
        z = self._embed(flat, keep)
        h = self.encode(z, blocks, drops, trace)
        y = self.decode(h, flat, blocks, drops, trace)
        return self.head(y, blocks)


def param_count(config: ModelConfig, specs: tuple[FeatureSpec, ...]) -> dict[str, int]:
    """Itemized learnable-scalar counts, computed arithmetically.

    Kept independent of ``Model.build`` so tests can cross-check the two.
    """
    f = len(specs)
    d = config.embed_dim
    width = config.width(f)
    hidden = config.ffn(width)

    embeddings = 0
    for spec in specs:
        if spec.kind == CATEGORICAL:
            embeddings += spec.cardinality * d
        elif config.method == "svd":
            embeddings += config.bins * d
        else:
            embeddings += 2 * d  # affine weight and bias
    gates = f

    per_block_shared = (
        3 * width * width  # wq, wk, wo
        + 2 * 2 * width  # two norms, gain and bias each
        + width * hidden + hidden  # ffn in
        + hidden * width + width  # ffn out
    )
    encoder = config.encoder_layers * (per_block_shared + width * width)
    decoder = 0
    for i in range(1, config.decoder_layers + 1):
        v_rows = f if i == 1 else width
        decoder += per_block_shared + v_rows * width
    head = width * config.horizon + config.horizon

    total = embeddings + gates + encoder + decoder + head
    return {
        "embeddings": embeddings,
        "gates": gates,
        "encoder": encoder,
        "decoder": decoder,
        "head": head,
        "total": total,
    }
