"""Guided-wave sensor signals: synthesis, state metadata and CSV I/O.

Real acquisitions are rarely available during development, so
:func:`simulate_dataset` provides a parametric stand-in: a Hamming-windowed
tone burst propagated with a state-dependent delay, attenuation and noise
floor. Damage grows the delay and attenuation and can also grow the noise
level (heteroscedastic scatter across replicates), load only shifts the
arrival time.

:func:`signals_to_csv_text` writes each sample as ``%.17g``, which
round-trips a float64. Its bytes come from a private numpy kernel that
prints a value in 1e-9 <= |x| < 10, or a zero, exactly as Python's ``%``
does, and hands any other value to ``%`` itself (see ``_rows_17g``). The
text is rendered one section (one signal) at a time.

:func:`read_signals_csv` parses a file's samples all at once, with a second
numpy kernel that reads each value as ``float`` does, bit for bit, or leaves
it to ``float`` (see ``_sample_values``). It proves each value it keeps:
short decimals by Clinger's exact case, and 17-digit ones by giving a
candidate double the line's digits with the writer's own digit code,
``_digits_17``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, SignalParseError
from .persist import _MAX_COUNT, _text_number, read_ascii_bytes

ROLES = ("baseline", "test")


@dataclass(frozen=True)
class StateLabel:
    """Structural state of one acquired signal.

    damage_size is in mm for a notch or a weight count for attached masses;
    load is in kN. (damage_size, load, replicate, role) identifies a signal
    uniquely within a dataset.
    """

    damage_size: float = 0.0
    load: float = 0.0
    replicate: int = 0
    role: str = "test"

    def __post_init__(self):
        if self.damage_size < 0 or not math.isfinite(self.damage_size):
            raise InvalidArgumentError("damage_size must be finite and >= 0")
        if self.load < 0 or not math.isfinite(self.load):
            raise InvalidArgumentError("load must be finite and >= 0")
        if self.replicate < 0:
            raise InvalidArgumentError("replicate must be >= 0")
        if self.role not in ROLES:
            raise InvalidArgumentError(f"role must be one of {ROLES}, got {self.role!r}")


@dataclass
class Signal:
    """A uniformly sampled waveform with acquisition metadata."""

    samples: np.ndarray
    sample_rate: float
    state: StateLabel = field(default_factory=StateLabel)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise InvalidArgumentError("samples must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(self.samples)):
            raise InvalidArgumentError("samples must be finite")
        if not (self.sample_rate > 0 and math.isfinite(self.sample_rate)):
            raise InvalidArgumentError("sample_rate must be finite and > 0")

    def __len__(self) -> int:
        return self.samples.size


@dataclass
class SimulationConfig:
    """Parameters of the synthetic tone-burst propagation model.

    The received signal for state (damage d, load w) is the excitation burst
    delayed by ``path_delay + damage_delay_coeff*d + load_delay_coeff*w``
    (rounded to the nearest sample), scaled by
    ``exp(-damage_attenuation_coeff*d)``, plus iid Gaussian noise with
    standard deviation ``noise_floor_std + heteroscedastic_noise_slope*d``.
    """

    center_frequency: float = 250e3
    n_cycles: int = 5
    burst_amplitude: float = 1.0
    sample_rate: float = 6e6
    path_delay: float = 0.0
    damage_attenuation_coeff: float = 0.05
    damage_delay_coeff: float = 0.0
    load_delay_coeff: float = 0.0
    noise_floor_std: float = 0.0
    heteroscedastic_noise_slope: float = 0.0
    n_samples: int = 512
    n_replicates: int = 1
    rng_seed: int = 0
    crosstalk_blank_samples: int = 0

    def __post_init__(self):
        if self.n_cycles < 1:
            raise InvalidArgumentError("n_cycles must be >= 1")
        if self.n_samples < 1:
            raise InvalidArgumentError("n_samples must be >= 1")
        if self.n_samples > _MAX_COUNT:
            raise InvalidArgumentError(f"n_samples must be <= {_MAX_COUNT}")
        if self.n_replicates < 1:
            raise InvalidArgumentError("n_replicates must be >= 1")
        if self.noise_floor_std < 0:
            raise InvalidArgumentError("noise_floor_std must be >= 0")
        if self.heteroscedastic_noise_slope < 0:
            raise InvalidArgumentError("heteroscedastic_noise_slope must be >= 0")
        if self.crosstalk_blank_samples < 0:
            raise InvalidArgumentError("crosstalk_blank_samples must be >= 0")
        if self.rng_seed < 0:
            raise InvalidArgumentError("rng_seed must be >= 0")
        for name in (
            "center_frequency",
            "burst_amplitude",
            "sample_rate",
            "path_delay",
            "damage_attenuation_coeff",
            "damage_delay_coeff",
            "load_delay_coeff",
            "noise_floor_std",
            "heteroscedastic_noise_slope",
        ):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise InvalidArgumentError(f"{name} must be a finite number")


def tone_burst(
    center_frequency: float,
    n_cycles: int,
    amplitude: float,
    sample_rate: float,
    n_samples: int,
    state: StateLabel | None = None,
) -> Signal:
    """Hamming-windowed sinusoid of n_cycles cycles at the head of the buffer.

    The remainder of the buffer is zero. Peak absolute amplitude equals
    ``amplitude`` up to the window shaping.
    """
    if center_frequency <= 0:
        raise InvalidArgumentError("center_frequency must be > 0")
    if sample_rate <= 2.0 * center_frequency:
        raise InvalidArgumentError(
            "sample_rate must exceed twice the center frequency "
            f"({sample_rate} <= 2*{center_frequency})"
        )
    if n_cycles < 1:
        raise InvalidArgumentError("n_cycles must be >= 1")
    span = n_cycles * sample_rate / center_frequency  # the burst's length in samples
    if not math.isfinite(span):
        raise InvalidArgumentError(
            "n_cycles * sample_rate / center_frequency overflows "
            f"({n_cycles} * {sample_rate!r} / {center_frequency!r})"
        )
    burst_len = int(round(span))
    if n_samples < math.ceil(span):
        raise InvalidArgumentError(
            f"n_samples={n_samples} cannot hold a {burst_len}-sample burst"
        )
    samples = np.zeros(n_samples)
    t = np.arange(burst_len)
    window = np.hamming(burst_len)
    samples[:burst_len] = amplitude * window * np.sin(
        2.0 * np.pi * center_frequency * t / sample_rate
    )
    if state is None:
        state = StateLabel(role="baseline")
    return Signal(samples, sample_rate, state)


def _received_samples(config: SimulationConfig, burst: np.ndarray, damage: float, load: float) -> np.ndarray:
    delay = (
        config.path_delay
        + config.damage_delay_coeff * damage
        + config.load_delay_coeff * load
    )
    delay_samples = delay * config.sample_rate
    if not math.isfinite(delay_samples):
        raise InvalidArgumentError(f"propagation delay {delay!r} overflows in samples")
    shift = int(round(delay_samples))
    if shift < 0:
        raise InvalidArgumentError(f"negative propagation delay {delay!r}")
    out = np.zeros(config.n_samples)
    if shift < config.n_samples:
        take = min(burst.size, config.n_samples - shift)
        out[shift : shift + take] = burst[:take]
    out *= np.exp(-config.damage_attenuation_coeff * damage)
    return out


def simulate_dataset(config: SimulationConfig, damage_grid, load_grid) -> list[Signal]:
    """Synthesize replicate signals for every (damage, load) grid cell.

    The signals come in damage -> load -> replicate order: each cell's
    ``config.n_replicates`` signals in one run, the cells in grid order with
    the load varying fastest. Deterministic given ``config.rng_seed``; the
    generator is owned by this call and never shared.
    """
    damage_grid = [float(d) for d in damage_grid]
    load_grid = [float(w) for w in load_grid]
    for name, grid in (("damage_grid", damage_grid), ("load_grid", load_grid)):
        if not grid:
            raise InvalidArgumentError(f"{name} must be non-empty")
        if not all(0 <= g < math.inf for g in grid):
            raise InvalidArgumentError(f"{name} values must be finite and >= 0")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidArgumentError(f"{name} must be strictly increasing")

    burst = tone_burst(
        config.center_frequency,
        config.n_cycles,
        config.burst_amplitude,
        config.sample_rate,
        config.n_samples,
    ).samples
    burst = np.trim_zeros(burst, trim="b")

    rng = np.random.default_rng(config.rng_seed)
    signals = []
    for damage in damage_grid:
        noise_std = config.noise_floor_std + config.heteroscedastic_noise_slope * damage
        for load in load_grid:
            clean = _received_samples(config, burst, damage, load)
            cell = np.tile(clean, (config.n_replicates, 1))
            # a noiseless cell draws nothing, and keeps the sign of its zeros
            if noise_std > 0:
                cell += rng.normal(0.0, noise_std, cell.shape)
            cell[:, : config.crosstalk_blank_samples] = 0.0
            signals.extend(
                Signal(samples, config.sample_rate, StateLabel(damage, load, rep, "test"))
                for rep, samples in enumerate(cell)
            )
    return signals


# --- CSV format -------------------------------------------------------------
#
# One section per signal:
#     # signal damage=<real> load=<real> replicate=<int> role=<baseline|test> sample_rate=<real>
#     <amplitude>
#     ...
# Sections are separated by blank lines. Other '#' lines are comments. A
# header names each of its five keys once. Column-0 comments and empty lines
# may stand anywhere and take the fast reader; a file with an indented
# header or comment, a whitespace-only line or an error is read line by
# line, with the same result.

_HEADER_PREFIX = "# signal "
_HEADER_KEYS = ("damage", "load", "replicate", "role", "sample_rate")
# header key -> the StateLabel field it sets
_STATE_FIELDS = {"damage": "damage_size", "load": "load", "replicate": "replicate", "role": "role"}


def _format_header(sig: Signal) -> str:
    s = sig.state
    return (
        f"# signal damage={s.damage_size:.17g} load={s.load:.17g} "
        f"replicate={s.replicate} role={s.role} sample_rate={sig.sample_rate:.17g}"
    )


def _parse_header(line: str, lineno: int, path) -> tuple[StateLabel, float]:
    fields = {}
    for token in line[len(_HEADER_PREFIX) :].split():
        if "=" not in token:
            raise SignalParseError(f"malformed header token {token!r}", lineno, path)
        key, value = token.split("=", 1)
        if key not in _HEADER_KEYS:
            raise SignalParseError(f"header has unknown key {key!r}", lineno, path)
        if key in fields:
            raise SignalParseError(f"header repeats key {key!r}", lineno, path)
        fields[key] = value
    missing = [k for k in _HEADER_KEYS if k not in fields]
    if missing:
        raise SignalParseError(f"header missing keys {missing}", lineno, path)
    for key in ("damage", "load", "replicate", "sample_rate"):
        try:
            fields[key] = _text_number(fields[key], int if key == "replicate" else float)
        except ValueError as exc:
            raise SignalParseError(f"header key {key!r}: {exc}", lineno, path) from exc
    try:
        state = StateLabel(fields["damage"], fields["load"], fields["replicate"], fields["role"])
    except InvalidArgumentError:
        # checked alone, the rejected value is named by its key
        for key, name in _STATE_FIELDS.items():
            try:
                StateLabel(**{name: fields[key]})
            except InvalidArgumentError as exc:
                raise SignalParseError(f"header key {key!r}: {exc}", lineno, path) from exc
        raise
    return state, fields["sample_rate"]


def signals_to_csv_text(signals: list[Signal], comment: str | None = None) -> str:
    """Render signals in the section format; 17 significant digits per sample.

    Each sample line is the bytes of ``f"{value:.17g}\\n"``. A section's
    samples are rendered on their own, after its header, ``_CHUNK`` values
    to a call of the numpy kernel ``_rows_17g``, which formats most values
    without a Python call per value; the rows' pads are then deleted.
    """
    parts = [f"# {comment}\n"] if comment else []
    for i, sig in enumerate(signals):
        parts.append(("\n" if i else "") + _format_header(sig) + "\n")
        for start in range(0, len(sig), _CHUNK):
            rows = _rows_17g(sig.samples[start : start + _CHUNK])
            parts.append(rows.tobytes().translate(None, _PAD).decode("ascii"))
    return "".join(parts)


# --- %.17g sample kernel ------------------------------------------------------
#
# Python's "%.17g" runs dtoa's bignum path, about 0.35 us a value. The kernel
# below gives the same bytes from integer numpy arrays, as exact
# fixed-precision printers do (Adams, "Ryu revisited", OOPSLA 2019). A value
# x = m * 2**(e - 53), with m the 53-bit integer mantissa, has its 17 digits
# in N = x * 10**p = m * 5**p / 2**s, p = 16 - k, s = 53 - e - p, where
# k = floor(log10 |x|). The product m * 5**p is formed exactly in 32-bit limbs
# and shifted right by s, rounding half to even on the exact remainder, as
# dtoa rounds. The decade check 10**16 <= floor(N) is exact, so a k one too
# high only sends its value to the fallback. A value whose N rounds up to
# 10**17 would carry into the next decade; no double in the fast range does
# (the tests list the few in float64), and such a value would take the
# fallback too. The digits are ``_digits_17``'s, which the reader shares.
#
# The fast range is 1e-9 <= |x| < 10: 5**p, p <= 25, fits one uint64, s lies
# in 33..57, and the layout has three forms, "d.ddd", "0.000ddd" (k >= -4)
# and "d.ddde-0K" (k <= -5). Zeros are laid out too. Every other value, and
# one that fails the decade check, is formatted with "%.17g" into its row.

_CHUNK = 1 << 14  # values per kernel call: bounds its temporary arrays
_FAST_LOW, _FAST_HIGH = 1e-9, 10.0
_PAD = b"\0"  # the byte a row is padded with, deleted from the text
_K_OFF = 350  # tens[k + _K_OFF] and fives[p + _K_OFF] hold 10**k and 5**p


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The digit code's read-only tables, built on its first call.

    - tens: the double nearest 10**k, for every decade a double reaches;
    - fives: 5**p for the fast range's p = 16 - k, and 0 for every other p,
      so that a value outside the range gets n = 0 and fails the decade
      check.
    """
    tens = np.array([float(f"1e{k}") for k in range(-_K_OFF, _K_OFF)])
    fives = np.zeros(2 * _K_OFF, np.uint64)
    low, high = (round(math.log10(bound)) for bound in (_FAST_LOW, _FAST_HIGH))
    for k in range(low, high):
        fives[16 - k + _K_OFF] = 5 ** (16 - k)
    for table in (tens, fives):
        table.setflags(write=False)
    return tens, fives


def _digits_17(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits ``"%.17g"`` gives each magnitude in ax.

    Returns (n, k, ok): where ok, the digits are the uint64 n, 10**16 <= n
    < 10**17, read as n * 10**(k - 16). ok is False outside the fast range
    and wherever the digits are not proven (a zero among them).
    """
    tens, fives = _digit_tables()
    mant, e = np.frexp(ax)
    m = (mant * 2.0**53).astype(np.uint64)
    # floor(log10 2**(e - 1)) (exact for |e| < 2620), then one more where
    # |x| reaches the next decade's double: never too low, and one too high
    # only at a double just below its power of ten
    k = (e - 1) * 315653 >> 20
    k += ax >= tens.take(k + (_K_OFF + 1))
    p = 16 - k
    s = (53 - e - p).astype(np.uint64)

    # m * 5**p = hi * 2**64 + lo, from 32-bit limbs (m < 2**53, 5**p < 2**59)
    f = fives.take(p + _K_OFF)
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    f_lo, f_hi = f & 0xFFFFFFFF, f >> 32
    low = m_lo * f_lo
    cross = m_lo * f_hi + m_hi * f_lo  # < 2**59 + 2**53: no carry out
    mid = (low >> 32) + (cross & 0xFFFFFFFF)
    hi = (mid >> 32) + (cross >> 32) + m_hi * f_hi
    lo = (mid << 32) | (low & 0xFFFFFFFF)

    # n = floor(m * 5**p / 2**s). Where 5**p is not 0, k is the decade or
    # one above it, so N < 10**17 < 2**57 and hi < 2**s: n is exact
    n = (hi << (64 - s)) | (lo >> s)
    ok = n >= 10**16
    remainder = lo & ((np.uint64(1) << s) - np.uint64(1))
    half = np.uint64(1) << (s - np.uint64(1))
    n += (remainder > half) | ((remainder == half) & ((n & 1) == 1))
    ok &= n < 10**17  # a carry into the next decade: none in the fast range
    return n, k, ok


@functools.cache
def _render_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The writer's read-only lookup tables, built on its first call.

    - groups: the 4 ASCII digits of each g < 10**4 as one little-endian
      uint32, then at 10**4 + g the same digits with their trailing zeros
      turned into pad bytes;
    - heads: the first 8 bytes of a line (sign, "0." and the zeros of the
      positional form, the first digit, and "." when digits follow it),
      indexed by ((negative * 10 + k + 9) * 10 + first digit) * 2 + has more;
    - suffixes: "e-0K" for k + 9 in 0..4, pad bytes for the positional k.
    """
    g = np.arange(10_000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    full = (digits + ord("0")).astype(np.uint8)
    stripped = full.copy()
    # a digit is a trailing zero when it and every digit after it is 0
    stripped[np.cumprod(digits[:, ::-1] == 0, axis=1)[:, ::-1] == 1] = 0
    groups = np.concatenate([full, stripped]).view("<u4").ravel()

    heads = np.zeros((2, 10, 10, 2, 8), np.uint8)
    for negative, k, first, more in np.ndindex(2, 10, 10, 2):
        k -= 9
        text = b"-" if negative else b""
        if -4 <= k < 0:
            text += b"0." + b"0" * (-k - 1) + b"%d" % first
        else:
            text += b"%d" % first + (b"." if more else b"")
        heads[negative, k + 9, first, more, : len(text)] = np.frombuffer(text, np.uint8)
    heads = heads.view("<u8").ravel()

    suffixes = np.zeros(10, "<u4")
    suffixes[:5] = np.frombuffer(b"".join(b"e-0%d" % -k for k in range(-9, -4)), "<u4")
    for table in (groups, heads, suffixes):
        table.setflags(write=False)
    return groups, heads, suffixes


def _rows_17g(x: np.ndarray) -> np.ndarray:
    """Each finite value's ``"%.17g\\n"`` line in a 32-byte row of ``_PAD``s.

    The rows come as an (n, 8) array of little-endian uint32 words: the
    line's head in words 0-1, its 16 digits after the first in words 2-5
    (trailing zeros as pads), the exponent in word 6 and the newline in
    word 7. A fallback value's line, at most 25 bytes, fills its row from
    the start.
    """
    groups, heads, suffixes = _render_tables()
    ax = np.abs(x)
    n, k, ok = _digits_17(ax)
    # a zero lays out as "0", and so does a fallback row before it is overwritten
    n *= ok
    k *= ok
    ok |= ax == 0

    n = n.view(np.int64)
    first = n // 10**16
    more = n - first * 10**16
    hi8 = more // 10**8
    lo8 = more - hi8 * 10**8
    g0, g2 = hi8 // 10**4, lo8 // 10**4
    g1, g3 = hi8 - g0 * 10**4, lo8 - g2 * 10**4

    rows = np.empty((x.size, 8), "<u4")
    k += 9
    rows.view("<u8")[:, 0] = heads[((np.signbit(x) * 10 + k) * 10 + first) * 2 + (more != 0)]
    # a group with no nonzero digit after it takes its stripped form
    rows[:, 5] = groups[g3 + 10_000]
    rest = g3 == 0
    rows[:, 4] = groups[g2 + 10_000 * rest]
    rest &= g2 == 0
    rows[:, 3] = groups[g1 + 10_000 * rest]
    rest &= g1 == 0
    rows[:, 2] = groups[g0 + 10_000 * rest]
    rows[:, 6] = suffixes.take(k)
    rows[:, 7] = ord("\n")
    slow = np.flatnonzero(~ok)
    if slow.size:
        cells = rows.view(np.uint8)
        cells[slow] = 0
        for i, value in zip(slow.tolist(), x[slow].tolist()):
            line = b"%.17g\n" % value
            cells[i, : len(line)] = np.frombuffer(line, np.uint8)
    return rows


# --- sample reader kernel -------------------------------------------------------
#
# read_signals_csv parses a file's sample lines _CHUNK to a call of
# _sample_values, a numpy kernel for lines
#     [-]d.ddd[e(+|-)DD]   or   [-]ddd[e(+|-)DD]
# with at most 22 digits after the point, or in all where there is none,
# that works on the text's uint64 words. The 24 bytes that end a line's
# mantissa are three words, whose digit bytes each fold to their value in
# three multiplications (SWAR, as in Lemire, "Number parsing at a gigabyte
# per second", 2021). That gives the line as M * 10**q, the integer
# M < 2**64 exact. A value leaves the kernel only where it is proven to be
# float(line), in one of two ways, each stated again where it is made:
# - Clinger's case (Clinger, "How to read floating point numbers
#   accurately", PLDI 1990).
# - a digit match: the writer's own digit code, _digits_17, gives a
#   candidate x the line's digits, and "%.17g" round-trips.
# Every other line (more than 17 digits, a number outside the fast range
# that no candidate matches, "1_0", surrounding whitespace) is left to one
# np.array(lines, dtype=float) call: float's grammar.

_LEAD = 32  # zero bytes before the text in the reader's buffer: a line's window starts in it
_STEPS = 2  # nextafter steps a candidate may take towards its line
_Q_OFF = 128  # the index of 10**0 in the reader's power tables
_ZEROS, _SEVENS, _HIGHS = 0x3030303030303030, 0x7676767676767676, 0x8080808080808080


@functools.cache
def _read_tables() -> tuple[np.ndarray, ...]:
    """The reader kernel's read-only lookup tables, built on its first call.

    - masks: at [j, f], the bytes of word j of a 24-byte window that hold
      its last f bytes;
    - tens: 10**f as uint64 where it fits, to scale the digit before a point;
    - at q + _Q_OFF, for the q of a line, -121 <= q <= 99:
      - scale and divisor, doubles: 10**q and 1 for 0 < q <= 22, 1 and
        10**-q for -22 <= q <= 0, and 1 and 1 elsewhere;
      - ldivisor: the longdouble 10**-q for -27 <= q <= 0, and 1 elsewhere;
    - at t + _Q_OFF, for the decimal shift t from a line's M to the 17
      digits of a decade: shift and limit, 10**t and 10**(17 - t) as
      uint64 for 0 <= t <= 17, and limit 0 elsewhere.
    """
    top = [0] + [(1 << 64) - (1 << (64 - 8 * c)) for c in range(1, 9)]
    masks = [[top[min(max(f + 8 * j - 16, 0), 8)] for f in range(23)] for j in range(3)]
    tens = np.array([10**f if f <= 19 else 0 for f in range(23)], np.uint64)
    q = range(-_Q_OFF, 256 - _Q_OFF)
    scale = np.array([10.0**i if 0 < i <= 22 else 1.0 for i in q])
    divisor = np.array([10.0**-i if -22 <= i <= 0 else 1.0 for i in q])
    ldivisor = np.array([10**-i if -27 <= i <= 0 else 1 for i in q], np.longdouble)
    shift = np.array([10**t if 0 <= t <= 17 else 0 for t in q], np.uint64)
    limit = np.array([10 ** (17 - t) if 0 <= t <= 17 else 0 for t in q], np.uint64)
    tables = np.array(masks, np.uint64), tens, scale, divisor, ldivisor, shift, limit
    for table in tables:
        table.setflags(write=False)
    return tables


def _sample_values(buf: np.ndarray, start: np.ndarray, end: np.ndarray):
    """The values of the lines buf[start:end], and where they are proven.

    buf is a text's _line_buffer. Returns (values, good): where good is
    False, the line is not read and its value is meaningless.
    """
    masks, tens, scale, divisor, ldivisor, _, _ = _read_tables()
    negative = buf[start] == ord("-")
    head = start + negative
    first = buf[head] ^ ord("0")  # the digit before a point, where < 10
    point = buf[head + 1] == ord(".")

    # an exponent "e+DD" or "e-DD" is the line's last 4 bytes
    tail = np.ndarray((buf.size - 3,), "<u4", buf, strides=(1,))[end - 4]
    sign = tail & 0xFFFF
    digits = (tail >> 16) ^ 0x3030
    exponent = (sign == 0x2B65) | (sign == 0x2D65)  # "e+", "e-" little-endian
    exponent &= ((digits + 0x7676) & 0x8080) == 0
    power = ((digits & 0xFF) * 10 + (digits >> 8)).astype(np.int64)
    power *= exponent
    np.negative(power, out=power, where=sign == 0x2D65)

    # the 24 bytes that end the mantissa: three words, from four aligned ones
    stop = end - 4 * exponent
    base = (stop - 24) >> 3
    up = ((stop & 7) << 3).astype(np.uint64)
    down = 64 - up  # a shift by 64 gives 0 in numpy
    words = buf.view("<u8")
    aligned = [words[base + i] for i in range(4)]
    window = np.empty((3, start.size), np.uint64)
    for i in range(3):
        np.bitwise_or(aligned[i] >> up, aligned[i + 1] << down, out=window[i])

    # the digits after the point, or all of them where there is none, end
    # the window: byte -> digit, the other bytes masked to 0, then each
    # word's 8 digits fold to their value
    mantissa = stop - head
    point &= mantissa >= 2
    count = mantissa - 2 * point
    fraction = np.minimum(count, 22)
    window ^= _ZEROS
    window &= masks.take(fraction, axis=1)
    digit_bytes = (np.bitwise_or.reduce(window + _SEVENS, axis=0) & _HIGHS) == 0
    pairs = window >> 8
    window *= 10
    window += pairs  # byte 2i: the two digits 2i, 2i + 1
    quads = window >> 16
    quads &= 0x000000FF000000FF
    quads *= 1 + (10_000 << 32)
    window &= 0x000000FF000000FF
    window *= 100 + (1_000_000 << 32)
    window += quads
    window >>= 32
    valid = (mantissa >= 1) & (count <= 22) & digit_bytes
    valid &= ~point | (first < 10)
    first *= point
    # M < 2**64: at most 19 digits, or 20-22 led by zeros after a point
    valid &= (count + point <= 19) | ((first == 0) & (window[0] < 1000))
    m = (window[0] * 10**8 + window[1]) * 10**8 + window[2]
    m += first * tens[fraction]
    q_index = power - fraction * point + _Q_OFF  # the digits after a point scale M down
    q = q_index - _Q_OFF

    # Clinger's case: with M <= 2**53 and |q| <= 22, M and 10**|q| are
    # exact doubles, so M * 10**q and M / 10**-q, each one IEEE operation
    # and so correctly rounded, are float(line). The other table is 1
    x = m.astype(np.float64) * scale[q_index] / divisor[q_index]
    good = valid & (m <= 2**53) & (q >= -22) & (q <= 22)

    # A digit match: where _digits_17, the writer's code, gives a double x
    # the line's number, "%.17g" % x is the line, and "%.17g" round-trips:
    # x = float("%.17g" % x) = float(line). The candidate, M / 10**-q in
    # longdouble rounded to a double, is float(line) or next to it where
    # longdouble has 64 bits; one that misses steps towards the line,
    # _STEPS times at most
    rest = np.flatnonzero(valid & ~good)
    if rest.size:
        m, q_index = m[rest], q_index[rest]
        candidate = (m.astype(np.longdouble) / ldivisor[q_index]).astype(np.float64)
        hit, miss, grow = _digit_match(candidate, m, q_index)
        todo = np.flatnonzero(miss)
        for _ in range(_STEPS):
            if not todo.size:
                break
            candidate[todo] = np.nextafter(candidate[todo], np.where(grow[todo], np.inf, 0.0))
            hit[todo], missed, grow[todo] = _digit_match(candidate[todo], m[todo], q_index[todo])
            todo = todo[missed]
        x[rest] = candidate
        good[rest] = hit
    x.view(np.uint64)[...] |= negative.astype(np.uint64) << 63
    return x, good


def _digit_match(x, m, q_index):
    """Whether the 17 digits "%.17g" gives x are those of m * 10**q.

    Returns (hit, miss, grow): miss where they are not, though the line has
    at most 17 digits at x's decade, and grow where the line's are larger.
    """
    _, _, _, _, _, shift, limit = _read_tables()
    n, k, ok = _digits_17(x)
    k *= ok  # keeps t in its table
    t = q_index + 16 - k
    line = m * shift[t]  # the line's digits at x's decade, where m < limit[t]
    ok &= m < limit[t]
    hit = ok & (line == n)
    return hit, ok & ~hit, line > n


def read_signals_csv(path) -> list[Signal]:
    """Parse a signal CSV file.

    The file is read whole, as ASCII text, and its samples are parsed all at
    once; where that fails, the line loop, the format's one grammar, reads
    the text instead.

    Every error is a SignalParseError that names the file and a line: the
    offending line (a bad sample or header), the line of a non-ASCII byte
    wherever it lies, or the section's header line when the section as a
    whole is bad (no samples, a non-finite sample, a bad sample rate).
    """
    data = read_ascii_bytes(path, SignalParseError)
    signals = _read_text(data)
    if signals is None:
        signals = _read_lines(data.decode("ascii").split("\n"), path)
    return signals


def _read_text(data: bytes) -> list[Signal] | None:
    """The signals of the text data, its samples parsed together, or None.

    A line is a sample unless it is empty or starts with ``#`` in column 0,
    so column-0 comments and empty lines may stand anywhere. Each column-0
    ``# signal`` line starts a section that holds the samples up to the
    next one. Anything else (an indented header or comment, a
    whitespace-only line, a sample before the first header, a bad token,
    header or section) returns None, and ``_read_lines``, the file's one
    grammar, reads the file instead, with the same result.

    The lines after the first header are parsed ``_CHUNK`` to a call of
    ``_sample_values``, across sections, and the sample lines it leaves go
    to one ``np.array`` call.
    """
    buf, breaks = _line_buffer(data)
    starts = breaks[:-1] + 1
    marked = buf[starts] == ord("#")
    sample = (breaks[1:] > starts) & ~marked

    def line(i: int) -> str:
        return data[breaks[i] + 1 - _LEAD : breaks[i + 1] - _LEAD].decode("ascii")

    headers = [i for i in np.flatnonzero(marked).tolist() if line(i).startswith(_HEADER_PREFIX)]
    if sample[: headers[0] if headers else sample.size].any():
        return None  # a sample before any header
    if not headers:
        return []
    try:
        sections = [_parse_header(line(h), 0, None) for h in headers]
    except ValueError:  # SignalParseError and InvalidArgumentError
        return None
    counts = np.add.reduceat(sample, headers, dtype=np.intp)

    low = headers[0] + 1
    sample = sample[low:]
    values = np.empty(sample.size)
    good = np.zeros(sample.size, bool)
    for c in range(0, sample.size, _CHUNK):
        part = slice(c, c + _CHUNK)
        values[part], good[part] = _sample_values(buf, starts[low:][part], breaks[low + 1 :][part])
    rest = np.flatnonzero(sample & ~good)
    try:
        if rest.size:
            # float's grammar: numpy converts each str line through float
            text = data.decode("ascii")
            cuts = [(breaks[rest + low + i] - _LEAD).tolist() for i in (0, 1)]
            values[rest] = np.array([text[a + 1 : b] for a, b in zip(*cuts)], dtype=float)
        parts = np.split(values[sample], np.cumsum(counts[:-1]))
        return [Signal(part, rate, state) for (state, rate), part in zip(sections, parts)]
    except ValueError:  # float's, and InvalidArgumentError
        return None


def _line_buffer(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The text data in the buffer _sample_values reads, and its line breaks.

    The buffer holds data from offset _LEAD, after zero bytes, and ends in
    at least 8 zero bytes; its size is a multiple of 8. Line i is
    buf[breaks[i] + 1 : breaks[i + 1]]: breaks are the newlines, between
    _LEAD - 1 and the end of data.
    """
    size = len(data)
    buf = np.zeros((_LEAD + size) // 8 * 8 + 16, np.uint8)
    buf[_LEAD : _LEAD + size] = np.frombuffer(data, np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    return buf, np.concatenate([[_LEAD - 1], newlines, [_LEAD + size]])


def _read_lines(lines, path) -> list[Signal]:
    """The signals of a file's lines, read one at a time.

    This is the file's grammar: blank lines and ``#`` comments may stand
    anywhere, surrounding whitespace is dropped, and every SignalParseError
    but the non-ASCII one is raised here or in ``_parse_header``.
    """
    signals = []
    header = None
    header_line = 0
    rate = None
    values: list[float] = []

    def flush():
        nonlocal header
        if header is None:
            return
        if not values:
            raise SignalParseError(
                f"signal section {_format_state(header)} has no samples", header_line, path
            )
        try:
            signals.append(Signal(np.array(values), rate, header))
        except InvalidArgumentError as exc:
            raise SignalParseError(
                f"signal section {_format_state(header)}: {exc}", header_line, path
            ) from None
        header = None
        values.clear()

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith(_HEADER_PREFIX):
            flush()
            header, rate = _parse_header(line, lineno, path)
            header_line = lineno
        elif not line or line.startswith("#"):
            continue
        else:
            if header is None:
                raise SignalParseError("sample value before any header", lineno, path)
            try:
                values.append(float(line))
            except ValueError as exc:
                raise SignalParseError(f"bad amplitude {line!r}", lineno, path) from exc
    flush()
    return signals


def _format_state(state: StateLabel) -> str:
    return f"(damage={state.damage_size:g}, load={state.load:g}, replicate={state.replicate})"
