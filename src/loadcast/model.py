"""Multi-view attention forecaster over lag-set inputs.

Every feature column is a "view".  Each view is embedded on its own
(lookup for categorical, affine for continuous, quantize-then-lookup under
the svd method), gated by a learnable scalar, optionally masked out, and
aggregated into the encoder input.  A small encoder/decoder attention stack
maps the aggregate to a multi-hour forecast read off the most recent lag
row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Mat, RngStream
from .errors import ConfigError
from .frames import CATEGORICAL, CONTINUOUS, TARGET, FeatureSpec, Scaler
from .lags import ScaledInput

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
        raw = np.floor((np.asarray(x) - self.lo) / self.bin_width)
        return np.clip(raw, 0, self.bins - 1).astype(np.int64)

    def edges(self) -> np.ndarray:
        return self.lo + self.bin_width * np.arange(self.bins + 1)


@dataclass
class ModelTrace:
    """Optional per-forward capture of attention maps (one per head per layer)."""

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
    if trace is not None:
        for h in range(heads):
            trace.attention.append(
                weights[:, h].reshape(-1, weights.shape[-1]).copy()
            )
    return out


class Model:
    """Parameter container plus the forward pipeline."""

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
        self.quantizers = quantizers
        targets = [i for i, s in enumerate(self.specs) if s.role == TARGET]
        if len(targets) != 1:
            raise ConfigError(f"need exactly one target view, got {len(targets)}")
        self.target_view = targets[0]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        config: ModelConfig,
        specs: tuple[FeatureSpec, ...],
        rng: RngStream,
        scaler: Scaler | None = None,
    ) -> "Model":
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
        return sum(p.values.size for p in self.params.values())

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
        mode.  Training draws run example by example, view mask first and
        then every sublayer, which is the order of ``blocks`` separate
        single-example forwards; so a batch sees the same masks as those
        forwards would.
        """
        f = self.n_views
        keep = np.ones((blocks, f), dtype=bool)
        drops = [None] * sites
        if isinstance(mode, RngStream):
            p_e = self.config.embedding_dropout
            p = self.config.transformer_dropout
            factors = []
            for b in range(blocks):
                if p_e > 0.0:
                    keep[b] = mode.draw().random(f) >= p_e
                if p > 0.0:
                    factors.append(
                        [ad.dropout_factor((rows, self.width), p, mode) for _ in range(sites)]
                    )
            if factors:
                drops = [np.concatenate(site) for site in zip(*factors)]
        elif mode is not None:
            if len(mode) != f:
                raise ConfigError(f"forced mask has {len(mode)} entries for {f} views")
            keep[:] = mode
        keep[:, self.target_view] = True
        return keep, drops

    def _lag_rows(self, input: ScaledInput | np.ndarray) -> np.ndarray:
        x = input.values if isinstance(input, ScaledInput) else np.asarray(input)
        if x.ndim != 2 or x.shape[1] != self.n_views:
            raise ConfigError(
                f"input shape {x.shape} does not match {self.n_views} views"
            )
        return x

    def embed_views(self, input: ScaledInput | np.ndarray, mode: Mode = None) -> Mat:
        """Per-view embeddings of one example, gated, masked, and aggregated;
        ``mode`` as in :meth:`forward_batch`, drawing the view mask only."""
        x = self._lag_rows(input)
        return self._embed(x, self._draw_masks(mode, 1, len(x), 0)[0])

    def _embed(self, x: np.ndarray, keep: np.ndarray) -> Mat:
        """Embed stacked lag rows ``x``; ``keep`` is the ``(blocks, F)`` mask."""
        rows = len(x) // len(keep)
        pieces: list[Mat] = []
        for i, spec in enumerate(self.specs):
            col = x[:, i]
            if spec.kind == CATEGORICAL:
                z = ad.embedding_lookup(self.params[f"embed/{spec.name}/table"], col)
            elif self.config.method == "svd":
                q = self.quantizers.get(spec.name)
                if q is None:
                    raise ConfigError(f"no fitted quantizer for view {spec.name!r}")
                z = ad.embedding_lookup(
                    self.params[f"embed/{spec.name}/table"], q.index(col)
                )
            else:
                z = ad.affine(
                    Mat(col.reshape(-1, 1)),
                    self.params[f"embed/{spec.name}/w"],
                    self.params[f"embed/{spec.name}/b"],
                )
            z = ad.mul(z, self.params[f"gate/{spec.name}"])
            if not keep[:, i].all():
                z = ad.mul(z, Mat(np.repeat(keep[:, i], rows)[:, None]))
            pieces.append(z)
        if self.config.method == "additive":
            return ad.sum_terms(pieces)
        return ad.concat_cols(pieces)

    def _multi_head(
        self,
        prefix: str,
        q_src: Mat,
        k_src: Mat,
        v_src: Mat,
        blocks: int,
        trace: ModelTrace | None,
    ) -> Mat:
        p = self.params
        q = q_src @ p[f"{prefix}/attn/wq"]
        k = k_src @ p[f"{prefix}/attn/wk"]
        v = v_src @ p[f"{prefix}/attn/wv"]
        out = attention(q, k, v, trace, blocks, self.config.heads)
        return out @ p[f"{prefix}/attn/wo"]

    def _ffn(self, prefix: str, x: Mat) -> Mat:
        p = self.params
        inner = ad.relu(ad.affine(x, p[f"{prefix}/ffn/w1"], p[f"{prefix}/ffn/b1"]))
        return ad.affine(inner, p[f"{prefix}/ffn/w2"], p[f"{prefix}/ffn/b2"])

    @staticmethod
    def _dropped(x: Mat, factor: np.ndarray | None) -> Mat:
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
            attn = self._multi_head(f"enc{i}", h, h, h, blocks, trace)
            attn = self._dropped(attn, next(drops, None))
            h = ad.layer_norm_rows(
                ad.add(h, attn), p[f"enc{i}/norm1/gain"], p[f"enc{i}/norm1/bias"]
            )
            f = self._dropped(self._ffn(f"enc{i}", h), next(drops, None))
            h = ad.layer_norm_rows(
                ad.add(h, f), p[f"enc{i}/norm2/gain"], p[f"enc{i}/norm2/bias"]
            )
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

        The first layer's values come from the raw lag matrix, later layers
        from the previous layer's output.  The residual stream starts at the
        attention output, since the raw input's width differs from the model
        width.  ``drops`` works as in :meth:`encode`.
        """
        raw = np.asarray(raw_input)
        if raw.shape != (h.shape[0], self.n_views):
            raise ConfigError(
                f"raw input shape {raw.shape}, expected {(h.shape[0], self.n_views)}"
            )
        p = self.params
        drops = iter(drops or ())
        y = Mat(raw)
        for i in range(1, self.config.decoder_layers + 1):
            attn = self._multi_head(f"dec{i}", h, h, y, blocks, trace)
            attn = self._dropped(attn, next(drops, None))
            a = ad.layer_norm_rows(
                attn, p[f"dec{i}/norm1/gain"], p[f"dec{i}/norm1/bias"]
            )
            f = self._dropped(self._ffn(f"dec{i}", a), next(drops, None))
            y = ad.layer_norm_rows(
                ad.add(a, f), p[f"dec{i}/norm2/gain"], p[f"dec{i}/norm2/bias"]
            )
        return y

    def head(self, y: Mat, blocks: int = 1) -> Mat:
        """Per-row linear map to the horizon, read off one row per block."""
        p = ad.affine(y, self.params["head/w"], self.params["head/b"])
        rows = p.shape[0] // blocks
        if self.config.head_reduce == "last":
            return ad.take_rows(p, np.arange(1, blocks + 1) * rows - 1)
        return Mat(np.kron(np.eye(blocks), np.full((1, rows), 1.0 / rows))) @ p

    def forward(
        self,
        input: ScaledInput | np.ndarray,
        mode: Mode = None,
        trace: ModelTrace | None = None,
    ) -> Mat:
        """Full pipeline for one ``(L, F)`` example: embed, encode,
        cross-decode, read the ``(1, horizon)`` forecast row."""
        x = self._lag_rows(input)
        return self.forward_batch(x[None], mode, trace)

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
