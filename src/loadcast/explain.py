"""Interpretability: view isolation, embedding dumps, and SVD analysis.

Isolation reuses the view-masking machinery with a forced keep mask, so a
panel shows what the model forecasts from one group of views alone.
Embedding dumps expose the learned per-category weights and the view
gates.  The SVD of each embedding matrix summarises how much of its
variation each dimension carries.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
# forecast_rollout is the one-anchor form of the panels' rollout; it stays
# importable from here, where perfbench/test_perfbench.py looks it up
from .evaluation import forecast_rollout, forecast_rollout_batch  # noqa: F401
from .frames import (
    CATEGORICAL,
    TARGET,
    TimeSeriesFrame,
    apply_scaler,
    format_timestamp,
    write_json,
    write_series,
    write_table,
)
from .lags import LagSet
from .model import Model, forced_keep

_DEFAULT_MEMBERSHIP = (
    ("long_term", ("month", "season")),
    ("short_term", ("hour", "weekday")),
    ("temperature", ("temperature", "dewpoint")),
    ("weather", ("wind_speed", "humidity", "rainfall")),
    ("holiday", ("holiday_id", "school", "holiday", "school_period")),
)


@dataclass(frozen=True)
class ViewGroup:
    name: str
    members: tuple[str, ...]


def default_groups(specs) -> tuple[ViewGroup, ...]:
    """The shipped five-panel grouping, trimmed to the views present.

    Views outside the known membership land in a trailing "other" group so
    the groups always partition the non-target views.
    """
    non_target = [s.name for s in specs if s.role != TARGET]
    groups = []
    assigned = set()
    for name, members in _DEFAULT_MEMBERSHIP:
        present = tuple(m for m in members if m in non_target)
        if present:
            groups.append(ViewGroup(name, present))
            assigned.update(present)
    rest = tuple(v for v in non_target if v not in assigned)
    if rest:
        groups.append(ViewGroup("other", rest))
    return tuple(groups)


def validate_groups(groups, specs) -> None:
    """Groups must partition the non-target views exactly."""
    non_target = {s.name for s in specs if s.role != TARGET}
    seen: dict[str, str] = {}
    for group in groups:
        for member in group.members:
            if member not in non_target:
                raise ConfigError(
                    f"group {group.name!r} references unknown or target "
                    f"view {member!r}"
                )
            if member in seen:
                raise ConfigError(
                    f"view {member!r} appears in groups {seen[member]!r} "
                    f"and {group.name!r}"
                )
            seen[member] = group.name
    missing = non_target - set(seen)
    if missing:
        raise ConfigError(f"views not covered by any group: {sorted(missing)}")


@dataclass
class PanelSeries:
    """One isolation panel: hour-by-hour forecasts over a tiled range."""

    name: str
    timestamps: np.ndarray  # datetime64[h]
    values: np.ndarray  # unscaled forecasts


def _panel(
    model: Model,
    scaled: TimeSeriesFrame,
    scaler,
    group: ViewGroup | None,
    rng: tuple[int, int],
    horizon: int,
    lag_set: LagSet,
) -> PanelSeries:
    """Forecasts from the target plus ``group``'s views, or from every view
    when ``group`` is ``None`` (the combined panel).  Anchors tile the range
    back to back, so the series is hourly and contiguous; it equals
    ``forecast_rollout`` from each tile's anchor, concatenated."""
    start, end = rng
    anchors = np.arange(start, end - horizon, horizon)
    if not len(anchors):
        raise ConfigError(
            f"range [{start}, {end}) shorter than one horizon of {horizon} hours"
        )
    if group is None:
        mode, name = None, "combined"
    else:
        mode, name = forced_keep(model.specs, group.members), group.name
    values = forecast_rollout_batch(
        model, scaled, anchors, horizon, lag_set, scaler, mode
    )
    return PanelSeries(
        name=name,
        timestamps=scaled.timestamps[start + 1 : start + 1 + values.size],
        values=values.ravel(),
    )


def isolation_panels(
    model: Model,
    frame: TimeSeriesFrame,
    scaler,
    groups,
    rng: tuple[int, int],
    horizon: int,
    lag_set: LagSet,
) -> list[PanelSeries]:
    """The combined series plus one panel per group, from one scaled frame."""
    validate_groups(groups, model.specs)
    scaled = apply_scaler(frame, scaler)
    return [
        _panel(model, scaled, scaler, group, rng, horizon, lag_set)
        for group in (None, *groups)
    ]


# ---------------------------------------------------------------------------
# embedding dumps
# ---------------------------------------------------------------------------

@dataclass
class EmbeddingDump:
    """Per-view cell weights plus the gate vector, plain data for files."""

    method: str
    views: list[dict] = field(default_factory=list)
    gates: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"method": self.method, "views": self.views, "gates": self.gates}


def dump_embeddings(model: Model) -> EmbeddingDump:
    """Cells ordered lowest category (or lowest bin) first.

    Under d=1 each cell is the raw scalar weight; wider embeddings report
    the per-category vector norm.  Continuous views outside the quantized
    method carry no per-category cells and report their affine norms.
    """
    dump = EmbeddingDump(method=model.config.method)
    for spec, view, gate in zip(model.specs, model.views, model.gates):
        entry: dict = {"view": spec.name, "kind": spec.kind}
        if len(view) == 1:
            table = view[0].values
            if table.shape[1] == 1:
                cells = [float(v) for v in table[:, 0]]
            else:
                cells = [float(np.linalg.norm(row)) for row in table]
            entry["cells"] = cells
            if spec.kind == CATEGORICAL:
                entry["labels"] = [str(i) for i in range(table.shape[0])]
            else:
                edges = model.quantizers[spec.name].edges()
                entry["labels"] = [
                    f"[{edges[i]:.6g}, {edges[i + 1]:.6g})"
                    for i in range(len(edges) - 1)
                ]
                entry["units"] = "scaled"
        else:
            w, b = view
            entry["weight_norm"] = float(np.linalg.norm(w.values))
            entry["bias_norm"] = float(np.linalg.norm(b.values))
        dump.views.append(entry)
        dump.gates[spec.name] = float(gate.item())
    return dump


# ---------------------------------------------------------------------------
# SVD of embedding matrices
# ---------------------------------------------------------------------------

@dataclass
class SvdReport:
    # each entry: {"matrix": name, "shape": [m, n], "singular_values": [...],
    #              "reconstruction_error": float}
    entries: list[dict] = field(default_factory=list)


def svd_embeddings(model: Model) -> SvdReport:
    """Singular values per view matrix and for the row-stacked ensemble."""
    report = SvdReport()

    def add(name: str, matrix: np.ndarray) -> None:
        u, s, vt = np.linalg.svd(matrix, full_matrices=False)
        recon = u @ np.diag(s) @ vt
        err = float(np.linalg.norm(recon - matrix))
        report.entries.append(
            {
                "matrix": name,
                "shape": [int(matrix.shape[0]), int(matrix.shape[1])],
                "singular_values": [float(x) for x in s],
                "reconstruction_error": err,
            }
        )

    stacked = []
    for spec, view in zip(model.specs, model.views):
        matrix = np.vstack([p.values for p in view])  # a table, or w over b
        add(spec.name, matrix)
        stacked.append(matrix)
    add("stacked", np.vstack(stacked))
    return report


# ---------------------------------------------------------------------------
# artifact files
# ---------------------------------------------------------------------------

def write_panels(out_dir, panels: list[PanelSeries]) -> None:
    """One CSV per panel plus a manifest naming them."""
    manifest = {"kind": "isolation-panels", "series": []}
    for panel in panels:
        filename = f"panel_{panel.name}.csv"
        write_series(os.path.join(out_dir, filename), ["timestamp", "forecast"],
                     panel.timestamps, panel.values[:, None], [None])
        manifest["series"].append(
            {
                "name": panel.name,
                "file": filename,
                "hours": int(len(panel.values)),
                "start": format_timestamp(panel.timestamps[0]),
                "units": "load",
            }
        )
    write_json(os.path.join(out_dir, "panels.json"), manifest)


def _embedding_rows(dump: EmbeddingDump):
    for entry in dump.views:
        if "cells" in entry:
            for i, (label, value) in enumerate(zip(entry["labels"], entry["cells"])):
                yield entry["view"], i, label, value
        else:
            yield entry["view"], None, "weight_norm", entry["weight_norm"]
            yield entry["view"], None, "bias_norm", entry["bias_norm"]


def write_embeddings(out_dir, dump: EmbeddingDump) -> None:
    """Cells as plot-ready CSV plus the full dump as JSON."""
    write_table(
        os.path.join(out_dir, "embeddings.csv"),
        ["view", "cell", "label", "value"],
        _embedding_rows(dump),
    )
    write_table(os.path.join(out_dir, "gates.csv"), ["view", "gate"], dump.gates.items())
    write_json(os.path.join(out_dir, "embeddings.json"), dump.to_dict())


def write_svd(out_dir, report: SvdReport) -> None:
    write_table(
        os.path.join(out_dir, "svd.csv"),
        ["matrix", "index", "singular_value"],
        (
            (entry["matrix"], i, value)
            for entry in report.entries
            for i, value in enumerate(entry["singular_values"])
        ),
    )
    write_json(os.path.join(out_dir, "svd.json"), {"entries": report.entries})
