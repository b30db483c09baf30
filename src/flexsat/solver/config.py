"""Portfolio diversification: per-slot presets, seeds, thread throttling.

Slot i of the node with tree index k gets the diversification index
x = k*t + i (t = threads per PE), so every slot in a job tree is distinct.
x mod 14 selects the engine: 0..12 are CDCL presets varying restarts,
activity decay, phase init and random decision noise; 13 is local search,
alternating its preprocessing flag on successive selections.  The RNG
seed mixes x with a per-launch nonce so a rescheduled solver never
replays the exact same run.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..util import mix64


@dataclass(frozen=True)
class CdclParams:
    restart_base: int = 64
    restart_factor: float | None = None  # geometric growth; None: Luby sequence
    decay: float = 0.95          # EVSIDS activity decay in [0.85, 0.99]
    phase: str = "neg"           # initial phase: "neg" | "pos" | "rand"
    random_freq: float = 0.0     # probability of a random decision
    reduce_base: int = 4000      # learned-clause DB reduction interval


@dataclass(frozen=True)
class SlsParams:
    preprocess: bool = True      # unit propagation + pure literals first
    restart_flips: int = 100_000


@dataclass(frozen=True)
class SolverConfig:
    seed: int                    # 64-bit RNG seed
    params: CdclParams | SlsParams  # its type names the engine


CDCL_PRESETS: tuple[CdclParams, ...] = (
    CdclParams(),
    CdclParams(phase="pos"),
    CdclParams(phase="rand", random_freq=0.01),
    CdclParams(restart_base=100, restart_factor=1.2, decay=0.99),
    CdclParams(restart_base=100, restart_factor=1.2, decay=0.85, phase="pos",
               random_freq=0.02),
    CdclParams(restart_base=256, decay=0.92, phase="rand"),
    CdclParams(restart_base=32, decay=0.99, random_freq=0.05),
    CdclParams(restart_base=64, restart_factor=1.5, decay=0.90, phase="rand"),
    CdclParams(restart_base=128, decay=0.97, phase="pos", random_freq=0.01),
    CdclParams(restart_base=256, restart_factor=1.1,
               decay=0.95, phase="rand", random_freq=0.02),
    CdclParams(decay=0.88, random_freq=0.03),
    CdclParams(restart_base=512, phase="rand"),
    CdclParams(restart_base=32, restart_factor=1.3,
               decay=0.93, phase="pos", random_freq=0.05),
)

PORTFOLIO_CYCLE = len(CDCL_PRESETS) + 1  # 13 CDCL presets + 1 SLS slot


def make_portfolio_config(k: int, t: int, i: int, nonce: int = 0) -> SolverConfig:
    """Config for thread slot i on the job-tree node with index k."""
    if k < 0 or t < 1 or not (0 <= i < t):
        raise ValueError(f"bad portfolio coordinates k={k} t={t} i={i}")
    x = k * t + i
    seed = mix64(mix64(x) ^ nonce)
    slot = x % PORTFOLIO_CYCLE
    if slot == len(CDCL_PRESETS):
        pre = (x // PORTFOLIO_CYCLE) % 2 == 0
        return SolverConfig(seed, SlsParams(preprocess=pre))
    return SolverConfig(seed, CDCL_PRESETS[slot])


def throttled_thread_count(s: int, s_hat: int, t: int) -> int:
    """Threads to actually launch for a formula of serialized size s.

    Small formulas get all t threads; oversized ones are throttled to
    max(1, floor(t * s_hat / s)) so memory stays roughly bounded.
    """
    if s < 0 or s_hat < 1 or t < 1:
        raise ValueError("bad throttle arguments")
    if s <= s_hat:
        return t
    return max(1, (t * s_hat) // s)
