"""Interpretability: view isolation, embedding dumps, and SVD analysis.

Isolation reuses the view-masking machinery with a forced keep mask, so a
panel shows what the model forecasts from one group of views alone.
Embedding dumps expose the learned per-category weights and the view
gates.  The SVD of each embedding matrix summarises how much of its
variation each dimension carries.
"""
from __future__ import annotations

import csv
import json
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
    format_timestamps,
)
from .lags import LagSet, lag_set_for_history
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


def isolate_view(
    model: Model,
    frame: TimeSeriesFrame,
    scaler,
    group: ViewGroup | None,
    rng: tuple[int, int],
    horizon: int,
    lag_set: LagSet | None = None,
) -> PanelSeries:
    """Forecasts produced from the target plus one group of views.

    ``group=None`` runs unmasked (the combined panel).  Anchors tile the
    range back to back so the output is a contiguous hourly series; it
    equals ``forecast_rollout`` from each tile's anchor, concatenated.
    """
    if lag_set is None:
        lag_set = lag_set_for_history(frame.n_rows)
    scaled = apply_scaler(frame, scaler)
    return _panel(model, scaled, scaler, group, rng, horizon, lag_set)


def isolation_panels(
    model: Model,
    frame: TimeSeriesFrame,
    scaler,
    groups,
    rng: tuple[int, int],
    horizon: int,
    lag_set: LagSet | None = None,
) -> list[PanelSeries]:
    """The combined series plus one panel per group, from one scaled frame."""
    validate_groups(groups, model.specs)
    if lag_set is None:
        lag_set = lag_set_for_history(frame.n_rows)
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

    @classmethod
    def from_dict(cls, doc: dict) -> "EmbeddingDump":
        return cls(method=doc["method"], views=doc["views"], gates=doc["gates"])


def dump_embeddings(model: Model) -> EmbeddingDump:
    """Cells ordered lowest category (or lowest bin) first.

    Under d=1 each cell is the raw scalar weight; wider embeddings report
    the per-category vector norm.  Continuous views outside the quantized
    method carry no per-category cells and report their affine norms.
    """
    dump = EmbeddingDump(method=model.config.method)
    for spec in model.specs:
        entry: dict = {"view": spec.name, "kind": spec.kind}
        if spec.kind == CATEGORICAL or model.config.method == "svd":
            table = model.params[f"embed/{spec.name}/table"].values
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
            entry["weight_norm"] = float(
                np.linalg.norm(model.params[f"embed/{spec.name}/w"].values)
            )
            entry["bias_norm"] = float(
                np.linalg.norm(model.params[f"embed/{spec.name}/b"].values)
            )
        dump.views.append(entry)
        dump.gates[spec.name] = float(model.params[f"gate/{spec.name}"].item())
    return dump


# ---------------------------------------------------------------------------
# SVD of embedding matrices
# ---------------------------------------------------------------------------

def jacobi_svd(a: np.ndarray, tol: float = 1e-13, max_sweeps: int = 100):
    """One-sided Jacobi SVD: A = U diag(s) Vᵀ with s descending.

    Rotations orthogonalize column pairs of a working copy until every
    off-diagonal Gram entry is negligible; column norms are then the
    singular values.  Columns that vanish keep zero vectors in U, which
    still reconstructs A exactly.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"need a matrix, got shape {a.shape}")
    m, n = a.shape
    if m < n:
        u_t, s, v_t = jacobi_svd(a.T, tol, max_sweeps)
        return v_t.T, s, u_t.T

    b = a.copy()
    v = np.eye(n)
    for _ in range(max_sweeps):
        converged = True
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha = b[:, p] @ b[:, p]
                beta = b[:, q] @ b[:, q]
                gamma = b[:, p] @ b[:, q]
                if abs(gamma) <= tol * np.sqrt(alpha * beta):
                    continue
                converged = False
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.hypot(1.0, t)
                s_rot = c * t
                bp = b[:, p].copy()
                b[:, p] = c * bp - s_rot * b[:, q]
                b[:, q] = s_rot * bp + c * b[:, q]
                vp = v[:, p].copy()
                v[:, p] = c * vp - s_rot * v[:, q]
                v[:, q] = s_rot * vp + c * v[:, q]
        if converged:
            break

    norms = np.linalg.norm(b, axis=0)
    order = np.argsort(-norms)
    norms = norms[order]
    b = b[:, order]
    v = v[:, order]
    u = np.zeros((m, n))
    nonzero = norms > 0
    u[:, nonzero] = b[:, nonzero] / norms[nonzero]
    return u, norms, v.T


@dataclass
class SvdReport:
    # each entry: {"matrix": name, "shape": [m, n], "singular_values": [...],
    #              "reconstruction_error": float}
    entries: list[dict] = field(default_factory=list)


def _view_matrix(model: Model, spec) -> np.ndarray:
    if spec.kind == CATEGORICAL or model.config.method == "svd":
        return model.params[f"embed/{spec.name}/table"].values
    w = model.params[f"embed/{spec.name}/w"].values
    b = model.params[f"embed/{spec.name}/b"].values
    return np.vstack([w, b])


def svd_embeddings(model: Model) -> SvdReport:
    """Singular values per view matrix and for the row-stacked ensemble."""
    report = SvdReport()

    def add(name: str, matrix: np.ndarray) -> None:
        u, s, vt = jacobi_svd(matrix)
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
    for spec in model.specs:
        matrix = _view_matrix(model, spec)
        add(spec.name, matrix)
        stacked.append(matrix)
    add("stacked", np.vstack(stacked))
    return report


# ---------------------------------------------------------------------------
# artifact files
# ---------------------------------------------------------------------------

def write_series_csv(path, series: PanelSeries) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", "forecast"])
        writer.writerows(
            zip(format_timestamps(series.timestamps), map(repr, series.values.tolist()))
        )


def write_panels(out_dir, panels: list[PanelSeries]) -> None:
    """One CSV per panel plus a manifest naming them."""
    manifest = {"kind": "isolation-panels", "series": []}
    for panel in panels:
        filename = f"panel_{panel.name}.csv"
        write_series_csv(os.path.join(out_dir, filename), panel)
        manifest["series"].append(
            {
                "name": panel.name,
                "file": filename,
                "hours": int(len(panel.values)),
                "start": format_timestamp(panel.timestamps[0]),
                "units": "load",
            }
        )
    with open(os.path.join(out_dir, "panels.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_embeddings(out_dir, dump: EmbeddingDump) -> None:
    """Cells as plot-ready CSV plus the full dump as JSON."""
    with open(
        os.path.join(out_dir, "embeddings.csv"), "w", newline="", encoding="utf-8"
    ) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["view", "cell", "label", "value"])
        for entry in dump.views:
            if "cells" in entry:
                for i, (label, value) in enumerate(
                    zip(entry["labels"], entry["cells"])
                ):
                    writer.writerow([entry["view"], i, label, repr(value)])
            else:
                writer.writerow(
                    [entry["view"], "", "weight_norm", repr(entry["weight_norm"])]
                )
                writer.writerow(
                    [entry["view"], "", "bias_norm", repr(entry["bias_norm"])]
                )
    with open(
        os.path.join(out_dir, "gates.csv"), "w", newline="", encoding="utf-8"
    ) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["view", "gate"])
        for view, gate in dump.gates.items():
            writer.writerow([view, repr(gate)])
    with open(
        os.path.join(out_dir, "embeddings.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(dump.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_svd(out_dir, report: SvdReport) -> None:
    with open(
        os.path.join(out_dir, "svd.csv"), "w", newline="", encoding="utf-8"
    ) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["matrix", "index", "singular_value"])
        for entry in report.entries:
            for i, value in enumerate(entry["singular_values"]):
                writer.writerow([entry["matrix"], i, repr(value)])
    with open(os.path.join(out_dir, "svd.json"), "w", encoding="utf-8") as fh:
        json.dump({"entries": report.entries}, fh, indent=2, sort_keys=True)
        fh.write("\n")
