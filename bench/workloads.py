"""Op lists of the three benchmark workloads.

An op is one ``oamsim.cli.main`` call on one config.  A workload is a fixed
list of ops (one *pass*); a run repeats passes while its time lasts.

Op seeds are a fixed list, one per position in the pass.  Count-dependent
costs and estimates swing widely from one op seed to the next (a d = 2
reconstruction takes 0.35 s to 4.5 s, the windowed spiral width moves by
tens of percent), so a list drawn afresh from each workload seed would make
the workload itself differ between seeds.  The workload seed and the pass
index instead draw a small jitter of one physical parameter per op, so every
op of every pass builds its own state and samples its own counts: no two ops
in a run share a physical config, and a cache across ops cannot win.

This module uses the standard library only, so the set-up probe can build the
op list before it times the import of ``oamsim.cli``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Relative half-width of the per-op jitter.  Small enough that every op does
# the same work as its nominal config (same grid, same ell window, nearly the
# same counts), large enough that no two ops share a state or a count table.
JITTER = 0.005

ALIGNED_GAMMAS = (0.5, 1.0, 2.0)
ALIGNED_ELL_MAX = (10, 15, 20)
DENSE_ELL_MAX = (10, 20)
DENSE_OFFSET_WAISTS = 0.1
DENSE_ANGULAR_POINTS = 256
DEFAULT_GAMMA = 2.0
DEFAULT_PAIR_RATE = 3e4
TOMO_OPS = 8


@dataclass(frozen=True)
class Op:
    """One CLI call: subcommand plus its ``--set`` overrides."""

    command: str
    overrides: tuple[tuple[str, str], ...]

    def _sets(self) -> list[str]:
        return [arg for key, value in self.overrides for arg in ("--set", f"{key}={value}")]

    def argv(self, out_dir) -> list[str]:
        return [self.command, *self._sets(), "--out", str(out_dir)]

    def validate_argv(self) -> list[str]:
        return ["validate", *self._sets()]


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{pass_index}")


def _jittered(rng: random.Random, value: float) -> str:
    return repr(value * (1.0 + rng.uniform(-JITTER, JITTER)))


def _op(command: str, op_seed: int, settings: dict) -> Op:
    return Op(command, (("seed", str(op_seed)),
                        *((key, str(value)) for key, value in settings.items())))


def aligned_scans(seed: int, pass_index: int) -> list[Op]:
    rng = _rng("aligned-scans", seed, pass_index)
    ops = []
    for gamma in ALIGNED_GAMMAS:
        for ell_max in ALIGNED_ELL_MAX:
            for command, ell_key in (("spiral", "source.ell_max"),
                                     ("angular", "experiment.epr_ell_max"),
                                     ("epr-reid", "experiment.epr_ell_max")):
                ops.append(_op(command, len(ops) + 1, {"source.gamma": _jittered(rng, gamma),
                                                       ell_key: ell_max}))
        ops.append(_op("bell", len(ops) + 1, {"source.gamma": _jittered(rng, gamma)}))
    return ops


def misaligned_dense(seed: int, pass_index: int) -> list[Op]:
    rng = _rng("misaligned-dense", seed, pass_index)
    ops = []
    for ell_max in DENSE_ELL_MAX:
        for command, ell_key in (("spiral", "source.ell_max"),
                                 ("angular", "experiment.epr_ell_max")):
            ops.append(_op(command, len(ops) + 1, {
                "source.gamma": _jittered(rng, DEFAULT_GAMMA), ell_key: ell_max,
                "source.signal_offset_waists": DENSE_OFFSET_WAISTS,
                "experiment.angular_points": DENSE_ANGULAR_POINTS}))
    return ops


def tomo_d2(seed: int, pass_index: int) -> list[Op]:
    rng = _rng("tomo-d2", seed, pass_index)
    return [_op("tomo", k + 1, {"tomo.d": 2, "tomo.ell_values": "1,-1",
                                "experiment.pair_rate": _jittered(rng, DEFAULT_PAIR_RATE)})
            for k in range(TOMO_OPS)]


WORKLOADS = {
    "aligned-scans": aligned_scans,
    "misaligned-dense": misaligned_dense,
    "tomo-d2": tomo_d2,
}

# Accuracy metrics a workload cannot produce from its own ops come from
# untimed reference ops run after the measured passes: the aligned spiral
# sweep of aligned-scans for the spectrum width, and the first four ops of
# tomo-d2 for the reconstruction quality (the chi-square of a single count
# table jumps by about 5 % with the flux jitter).
REFERENCE_PASS = -1
REFERENCE_TOMO_OPS = 4


def reference_ops(workload: str, seed: int) -> list[Op]:
    refs = []
    if workload != "aligned-scans":
        refs += [op for op in aligned_scans(seed, REFERENCE_PASS) if op.command == "spiral"]
    if workload != "tomo-d2":
        refs += tomo_d2(seed, REFERENCE_PASS)[:REFERENCE_TOMO_OPS]
    return refs


def pass_ops(workload: str, seed: int, pass_index: int, max_ops: int | None = None) -> list[Op]:
    ops = WORKLOADS[workload](seed, pass_index)
    return ops[:max_ops] if max_ops else ops
