"""numpy's Poisson streams as arrays.

``poisson_streams`` draws one Poisson count per mean, count k exactly
``default_rng([seed, k]).poisson``, with every stream advanced together as
uint64 arrays.  It is a pure function of its inputs; no shared mutable state.
"""

from __future__ import annotations

import math

import numpy as np


# numpy's SeedSequence hash constants and pool size
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _POOL = 0xCA01F9DD, 0x4973F715, 4
_M32 = np.uint64(0xFFFFFFFF)
# PCG64's 128-bit multiplier as 64-bit limbs, and the low limb's 32-bit halves
_MUL_HI, _MUL_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MUL_LO_1, _MUL_LO_0 = _MUL_LO >> np.uint64(32), _MUL_LO & _M32
# largest mean numpy's Generator.poisson accepts
_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
# coefficients of numpy's random_loggam
_LOGGAM = (8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
           -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
           6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
           -1.39243221690590e+00)
# streams evaluated together; bounds the working set at a few hundred kB
_LANES = 8192


def _libm(fn, x):
    """fn (math.exp or math.log) over a float array, through the C library."""
    return np.fromiter(map(fn, x.tolist()), float, len(x))


def _pcg_states(seed: int, ks: np.ndarray) -> np.ndarray:
    """PCG64 states of ``default_rng([seed, k])`` for each k, rows (state hi, lo, inc hi, lo).

    ``SeedSequence([seed, k])`` hashes the 32-bit words of seed and then k into
    a pool of four words, and ``generate_state(4, uint64)`` draws the seed and
    increment of PCG64's 128-bit LCG from it.  The hash multipliers advance
    the same way for every k, so each step is one uint32 array operation.
    """
    n = len(ks)
    words = [np.full(n, seed >> s & 0xFFFFFFFF, np.uint32) for s in range(0, max(seed.bit_length(), 1), 32)]
    words.append(ks.astype(np.uint32))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & 0xFFFFFFFF
        value *= np.uint32(const)
        return value ^ value >> 16

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else np.zeros(n, np.uint32)) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & 0xFFFFFFFF
        value *= np.uint32(const)
        state.append((value ^ value >> 16).astype(np.uint64))
    init_hi, init_lo, seq_hi, seq_lo = (state[2 * j] | state[2 * j + 1] << np.uint64(32) for j in range(4))
    # srandom: inc = 2 initseq + 1, state = 0; step; state += initstate; step
    lanes = np.stack([np.zeros(n, np.uint64), np.zeros(n, np.uint64),
                      seq_hi << np.uint64(1) | seq_lo >> np.uint64(63), seq_lo << np.uint64(1) | np.uint64(1)])
    _pcg_step(lanes)
    lanes[1] += init_lo
    lanes[0] += init_hi + (lanes[1] < init_lo)
    _pcg_step(lanes)
    return lanes


def _pcg_step(lanes: np.ndarray) -> None:
    """state = state * multiplier + inc mod 2^128, in place, for every lane."""
    hi, lo, inc_hi, inc_lo = lanes
    # high 64 bits of lo * _MUL_LO from 32-bit halves
    lo_0, lo_1 = lo & _M32, lo >> np.uint64(32)
    t = lo_1 * _MUL_LO_0 + (lo_0 * _MUL_LO_0 >> np.uint64(32))
    w = (t & _M32) + lo_0 * _MUL_LO_1
    hi *= _MUL_LO
    hi += lo * _MUL_HI
    hi += lo_1 * _MUL_LO_1 + (t >> np.uint64(32)) + (w >> np.uint64(32)) + inc_hi
    lo *= _MUL_LO
    lo += inc_lo
    hi += lo < inc_lo


def _next_double(lanes: np.ndarray) -> np.ndarray:
    """Step every lane and return its next double: the XSL-RR output's top 53 bits / 2^53."""
    _pcg_step(lanes)
    hi, lo = lanes[0], lanes[1]
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    x = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))
    return (x >> np.uint64(11)).astype(float) * (1.0 / 9007199254740992.0)


def _loggam(x: np.ndarray) -> np.ndarray:
    """numpy's random_loggam, term for term, at the positive integers x."""
    n = np.where(x < 7.0, 7.0 - x, 0.0).astype(np.int64)
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = np.full(len(x), _LOGGAM[9])
    for coefficient in _LOGGAM[8::-1]:
        gl0 *= x2
        gl0 += coefficient
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * _libm(math.log, x0) - x0
    for j in range(1, int(n.max(initial=0)) + 1):
        down = n >= j
        gl[down] -= _libm(math.log, x0[down] - 1.0)
        x0[down] -= 1.0
    gl[(x == 1.0) | (x == 2.0)] = 0.0
    return gl


def _poisson_mult(lanes: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """numpy's multiplication method for 0 < lam < 10: count uniforms until their product <= exp(-lam)."""
    idx = np.arange(len(lam))
    out = np.zeros(len(lam), dtype=np.int64)
    enlam = _libm(math.exp, -lam)
    prod = np.ones(len(lam))
    draws = 0
    while len(idx):
        prod *= _next_double(lanes)
        more = prod > enlam
        out[idx[~more]] = draws
        draws += 1
        idx, lanes, prod, enlam = idx[more], lanes[:, more], prod[more], enlam[more]
    return out


def _poisson_ptrs(lanes: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """numpy's transformed rejection with squeeze (PTRS, Hörmann 1993) for lam >= 10."""
    idx = np.arange(len(lam))
    out = np.zeros(len(lam), dtype=np.int64)
    b = 0.931 + 2.53 * np.sqrt(lam)
    params = np.stack([lam, _libm(math.log, lam), -0.059 + 0.02483 * b, b,
                       _libm(math.log, 1.1239 + 1.1328 / (b - 3.4)), 0.9277 - 3.6224 / (b - 2)])
    while len(idx):
        lam, loglam, a, b, log_invalpha, vr = params
        u = _next_double(lanes) - 0.5
        v = _next_double(lanes)
        us = 0.5 - np.abs(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            kf = np.floor((2 * a / us + b) * u + lam + 0.43)
        # a floor outside int64 converts to INT64_MIN in C, a negative k
        valid = (kf >= 0) & (kf < 2.0**63)
        k = np.where(valid, kf, -1.0).astype(np.int64)
        accept = (us >= 0.07) & (v <= vr)
        test = np.flatnonzero(~accept & valid & ~((us < 0.013) & (v > us)))
        if len(test):
            vt, ust, kt = v[test], us[test], k[test]
            # C's log(0) is -inf where math.log raises
            log_v = np.full(len(test), -math.inf)
            log_v[vt > 0] = _libm(math.log, vt[vt > 0])
            lhs = log_v + log_invalpha[test] - _libm(math.log, a[test] / (ust * ust) + b[test])
            rhs = -lam[test] + kt.astype(float) * loglam[test] - _loggam((kt + 1).astype(float))
            accept[test] = lhs <= rhs
        out[idx[accept]] = k[accept]
        keep = ~accept
        idx, lanes, params = idx[keep], lanes[:, keep], params[:, keep]
    return out


def poisson_streams(means: np.ndarray, seed: int) -> np.ndarray:
    """``default_rng([seed, k]).poisson(means[k])`` for every k of a flat float array, bit for bit.

    The streams are evaluated in lockstep, ``_LANES`` at a time, as arrays:
    numpy's SeedSequence hash and PCG64 generator (O'Neill, 2014) on uint64
    limbs, then numpy's ``random_poisson`` as a masked loop over the lanes
    still drawing: 0 for a zero mean, the multiplication method below 10 and
    PTRS from 10.  exp and log come from the C library through ``math``, as in
    numpy's own sampler; numpy's vectorised exp and log may differ from it in
    the last bit, which can flip an acceptance test.  Raises numpy's
    ValueError for a negative seed and for the first mean that is negative,
    NaN or above numpy's limit of about 9.2e18.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    means = np.asarray(means, dtype=float)
    bad = np.flatnonzero(~(means >= 0) | (means > _LAM_MAX))
    if len(bad):
        raise ValueError("lam value too large" if means[bad[0]] > 0 else "lam < 0 or lam is NaN")
    out = np.zeros(len(means), dtype=np.int64)
    for first in range(0, len(means), _LANES):
        block = means[first:first + _LANES]
        lanes = _pcg_states(seed, np.arange(first, first + len(block)))
        counts = out[first:first + len(block)]
        for draw, chosen in ((_poisson_mult, (block > 0) & (block < 10)), (_poisson_ptrs, block >= 10)):
            counts[chosen] = draw(lanes[:, chosen], block[chosen])
    return out
