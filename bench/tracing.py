"""In-memory span tracer that wraps oamsim's public functions from outside.

Each target is patched where it is looked up (the runner calls
``oamsim.cli.build_state``, the scans call ``oamsim.experiments.sample_counts``,
every mode samples through ``TransverseMode.sample``), so the program itself
is unchanged.  A span records name, id, parent id, start and end, plus the
exact counts its call yields.  Per-setting calls are not spans: their count
and time are added to the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    # per-setting children folded into this span: name -> [calls, seconds]
    folded: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _scan_settings(result, args, kwargs) -> dict:
    return {"settings": math.prod(len(axis) for axis in result.axis_values)}


def _bell_counts_settings(result, args, kwargs) -> dict:
    return {"settings": result[0].size}


def _tomography_settings(result, args, kwargs) -> dict:
    return {"settings": len(result)}


def _sample_points(result, args, kwargs) -> dict:
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return {"points": grid.n_r * grid.n_phi}


def _reconstruct_counts(result, args, kwargs) -> dict:
    return {"nfev": result.iterations, "converged": int(bool(result.converged))}


def _written_bytes(result, args, kwargs) -> dict:
    ctx, name = args[0], args[1]
    return {"bytes": (ctx.out_dir / name).stat().st_size}


# (module, attribute path, span name, counts taken from the call)
TARGETS = (
    ("oamsim.cli", "main", "cli.main", None),
    ("oamsim.cli", "validate", "config.validate", None),
    ("oamsim.cli", "RunContext.write_table", "cli.write_table", _written_bytes),
    ("oamsim.modes", "TransverseMode.sample", "modes.sample", _sample_points),
    ("oamsim.cli", "build_state", "spdc.build_state", None),
    ("oamsim.cli", "spiral_scan", "experiments.spiral_scan", _scan_settings),
    ("oamsim.cli", "angular_scan", "experiments.angular_scan", _scan_settings),
    ("oamsim.cli", "bell_curve", "experiments.bell_curve", _scan_settings),
    ("oamsim.cli", "bell_counts", "experiments.bell_counts", _bell_counts_settings),
    ("oamsim.cli", "run_tomography_experiment", "experiments.run_tomography_experiment",
     _tomography_settings),
    ("oamsim.experiments", "fit_gaussian", "experiments.fit_gaussian", None),
    ("oamsim.cli", "reconstruct", "tomography.reconstruct", _reconstruct_counts),
    ("oamsim.cli", "fidelity", "tomography.fidelity", None),
)
# Called once per measured setting (about 65k times in a dense angular op).
FOLDED = (("oamsim.experiments", "sample_counts", "spdc.sample_counts"),)


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, path, name, counter in TARGETS:
            self._patch(module, path, functools.partial(self._spanned, name=name,
                                                        counter=counter))
        for module, path, name in FOLDED:
            self._patch(module, path, functools.partial(self._folded, name=name))
        return self

    def __exit__(self, *exc_info):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, module: str, path: str, make_wrapper) -> None:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # a target the program no longer has is simply not traced
        original = owner.__dict__.get(attr)
        if original is None:
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def _spanned(self, fn, name, counter):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts.update(counter(result, args, kwargs))
            return result
        return wrapper

    def _folded(self, fn, name):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if self._stack:
                    entry = self._stack[-1].folded.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += time.perf_counter() - start
        return wrapper


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its children."""
    own = {s.id: s.duration - sum(t for _, t in s.folded.values()) for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def descendants_count(spans: list[Span], ancestor: str, name: str, key: str) -> int:
    """Sum of counts[key] over spans called ``name`` that run inside ``ancestor``."""
    by_id = {s.id: s for s in spans}
    total = 0
    for s in spans:
        if s.name != name:
            continue
        parent = s.parent
        while parent is not None and by_id[parent].name != ancestor:
            parent = by_id[parent].parent
        if parent is not None:
            total += s.counts.get(key, 0)
    return total


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer figures for one traced pass whose ops took ``wall`` seconds."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    counts: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        seconds[s.name] = seconds.get(s.name, 0.0) + own[s.id]
        inclusive[s.name] = inclusive.get(s.name, 0.0) + s.duration
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + value
        for name, (n, t) in s.folded.items():
            calls[name] = calls.get(name, 0) + n
            seconds[name] = seconds.get(name, 0.0) + t
            inclusive[name] = inclusive.get(name, 0.0) + t

    def s_(name):
        return seconds.get(name, 0.0)

    def c_(name):
        return counts.get(name, 0)

    n_reconstruct = calls.get("tomography.reconstruct", 0)
    settings = sum(c_(f"{name}.settings") for name in (
        "experiments.spiral_scan", "experiments.angular_scan", "experiments.bell_curve",
        "experiments.bell_counts", "experiments.run_tomography_experiment"))
    return {
        "config.validate_s": s_("config.validate"),
        "modes.sample.calls": calls.get("modes.sample", 0),
        "modes.sample_s": s_("modes.sample"),
        "modes.sample.points": c_("modes.sample.points"),
        "spdc.build_state.calls": calls.get("spdc.build_state", 0),
        "spdc.build_state_s": s_("spdc.build_state"),
        "spdc.build_state.bytes_computed":
            16 * descendants_count(spans, "spdc.build_state", "modes.sample", "points"),
        "spdc.sample_counts.calls": calls.get("spdc.sample_counts", 0),
        "spdc.sample_counts_s": s_("spdc.sample_counts"),
        "experiments.spiral_scan_s": s_("experiments.spiral_scan"),
        "experiments.angular_scan_s": s_("experiments.angular_scan"),
        "experiments.bell_s": s_("experiments.bell_curve") + s_("experiments.bell_counts"),
        "experiments.settings": settings,
        "experiments.fit_gaussian.calls": calls.get("experiments.fit_gaussian", 0),
        "experiments.fit_gaussian_s": s_("experiments.fit_gaussian"),
        "experiments.run_tomography_experiment_s": s_("experiments.run_tomography_experiment"),
        "tomography.reconstruct_s": s_("tomography.reconstruct"),
        "tomography.reconstruct.nfev": c_("tomography.reconstruct.nfev"),
        "tomography.reconstruct.converged_share":
            c_("tomography.reconstruct.converged") / n_reconstruct if n_reconstruct else 0.0,
        "tomography.fidelity_s": s_("tomography.fidelity"),
        "cli.write_table_s": s_("cli.write_table"),
        "cli.write_table.bytes": c_("cli.write_table.bytes"),
        "cli.main_s": s_("cli.main"),
        "spdc.build_state.share": inclusive.get("spdc.build_state", 0.0) / wall,
        "spdc.sample_counts.share": inclusive.get("spdc.sample_counts", 0.0) / wall,
        "cli.write_table.share": inclusive.get("cli.write_table", 0.0) / wall,
        "tomography.reconstruct.share": inclusive.get("tomography.reconstruct", 0.0) / wall,
    }
