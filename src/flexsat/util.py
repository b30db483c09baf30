"""Small shared helpers: 64-bit mixing, seed derivation, Luby sequence,
number checks."""
from __future__ import annotations

MASK64 = (1 << 64) - 1

# Every seconds value becomes integer µs.  1 µs is the simulator's clock
# tick: a shorter period or solver slice would re-arm its timer at the same
# instant forever.  MAX_SECONDS, about 31 years, bounds every time an input
# may give: it keeps each µs product finite and each sleep of the wall-clock
# loop within what time.sleep accepts.
MIN_PERIOD_S = 1e-6
MAX_SECONDS = 10 ** 9

# A balancing epoch re-arms its timer no sooner than this, so the config
# refuses a shorter balance_period_s, which would not run as written.
MIN_BALANCE_PERIOD_S = 1e-3


def mix64(x: int) -> int:
    """Avalanche-mix a 64-bit value (splitmix64 finalizer).

    Negative inputs are folded in as two's complement.  Used wherever we
    need a hash that is stable across processes and interpreter runs.
    """
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def derive_seed(*parts: int | str) -> int:
    """Fold ints and strings into one 64-bit seed, deterministically."""
    h = 0x9E3779B97F4A7C15
    for part in parts:
        if isinstance(part, str):
            for b in part.encode("utf-8"):
                h = mix64(h ^ b)
        else:
            h = mix64(h ^ (part & MASK64))
    return h


def luby(i: int) -> int:
    """i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    if i < 1:
        raise ValueError("luby index starts at 1")
    # find the subsequence containing i
    size, seq = 1, 0
    x = i - 1
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x = x % size
    return 1 << seq


def is_real(value) -> bool:
    """An int or a float, not a bool (nor a numeric string)."""
    return type(value) in (int, float)


def below(getrandbits, n: int) -> int:
    """Random.randrange(n) for n >= 1, drawing the same getrandbits calls."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r
