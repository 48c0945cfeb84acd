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
text is rendered one section (one signal) at a time, as
:func:`read_signals_csv` reads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, SignalParseError
from .persist import _MAX_COUNT, _text_number, read_ascii

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
# header names each of its five keys once.

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
# dtoa rounds. The decade check 10**16 <= floor(N) < 10**17 is exact, so a
# log10 that misses k by one only sends its value to the fallback. A value
# whose N rounds up to 10**17 would carry into the next decade; no double in
# the fast range does (the tests list the few in float64), and such a value
# would take the fallback too.
#
# The fast range is 1e-9 <= |x| < 10: 5**p, p <= 25, fits one uint64, s lies
# in 33..57, and the layout has three forms, "d.ddd", "0.000ddd" (k >= -4)
# and "d.ddde-0K" (k <= -5). Zeros are laid out too. Every other value, and
# one that fails the decade check, is formatted with "%.17g" into its row.

_CHUNK = 1 << 14  # values per kernel call, within a section: bounds its temporary arrays
_FAST_LOW, _FAST_HIGH = 1e-9, 10.0
_PAD = b"\0"  # the byte a row is padded with, deleted from the text


@functools.cache
def _render_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's read-only lookup tables, built on its first call.

    - groups: the 4 ASCII digits of each g < 10**4 as one little-endian
      uint32, then at 10**4 + g the same digits with their trailing zeros
      turned into pad bytes;
    - heads: the first 8 bytes of a line (sign, "0." and the zeros of the
      positional form, the first digit, and "." when digits follow it),
      indexed by ((negative * 10 + k + 9) * 10 + first digit) * 2 + has more;
    - suffixes: "e-0K" for k + 9 in 0..4, pad bytes for the positional k;
    - powers of 5 up to 5**26.
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
    powers = np.array([5**p for p in range(27)], np.uint64)
    for table in (groups, heads, suffixes, powers):
        table.setflags(write=False)
    return groups, heads, suffixes, powers


def _rows_17g(x: np.ndarray) -> np.ndarray:
    """Each finite value's ``"%.17g\\n"`` line in a 32-byte row of ``_PAD``s.

    The rows come as an (n, 8) array of little-endian uint32 words: the
    line's head in words 0-1, its 16 digits after the first in words 2-5
    (trailing zeros as pads), the exponent in word 6 and the newline in
    word 7. A fallback value's line, at most 25 bytes, fills its row from
    the start.
    """
    groups, heads, suffixes, powers = _render_tables()
    ax = np.abs(x)
    fast = (ax >= _FAST_LOW) & (ax < _FAST_HIGH)
    xf = np.where(fast, ax, 1.0)
    mant, e = np.frexp(xf)
    m = (mant * 2.0**53).astype(np.uint64)
    k = np.floor(np.log10(xf)).astype(np.int64)
    p = 16 - k
    s = 53 - e - p

    # m * 5**p = hi * 2**64 + lo, from 32-bit limbs (m < 2**53, 5**p < 2**61)
    f = powers[p]  # p is 15..26, log10 missing k by one included
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    f_lo, f_hi = f & 0xFFFFFFFF, f >> 32
    low, cross1, cross2 = m_lo * f_lo, m_lo * f_hi, m_hi * f_lo
    mid = (low >> 32) + (cross1 & 0xFFFFFFFF) + (cross2 & 0xFFFFFFFF)
    hi = (mid >> 32) + (cross1 >> 32) + (cross2 >> 32) + m_hi * f_hi
    lo = (mid << 32) | (low & 0xFFFFFFFF)

    # n = floor(m * 5**p / 2**s), exact where hi < 2**s
    shift = np.clip(s, 1, 63).astype(np.uint64)
    n = (hi << (64 - shift)) | (lo >> shift)
    ok = fast & (s >= 1) & (s <= 63) & ((hi >> shift) == 0) & (n >= 10**16) & (n < 10**17)
    remainder = lo & ((np.uint64(1) << shift) - np.uint64(1))
    half = np.uint64(1) << (shift - np.uint64(1))
    n += (remainder > half) | ((remainder == half) & ((n & 1) == 1))
    ok &= n < 10**17  # a carry into the next decade: none in the fast range
    zero = ax == 0
    blank = ~ok | zero  # a zero lays out as "0", a fallback row is overwritten
    n[blank] = 0
    k[blank] = 0
    ok |= zero

    n = n.astype(np.int64)
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
    rows[:, 2] = groups[g0 + 10_000 * ((g1 | g2 | g3) == 0)]
    rows[:, 3] = groups[g1 + 10_000 * ((g2 | g3) == 0)]
    rows[:, 4] = groups[g2 + 10_000 * (g3 == 0)]
    rows[:, 5] = groups[g3 + 10_000]
    rows[:, 6] = suffixes[k]
    rows[:, 7] = ord("\n")
    slow = np.flatnonzero(~ok)
    if slow.size:
        cells = rows.view(np.uint8)
        cells[slow] = 0
        for i, value in zip(slow.tolist(), x[slow].tolist()):
            line = b"%.17g\n" % value
            cells[i, : len(line)] = np.frombuffer(line, np.uint8)
    return rows


def read_signals_csv(path) -> list[Signal]:
    """Parse a signal CSV file.

    The file is read whole, as ASCII text, then a section at a time; where
    that fails, the line loop, the format's one grammar, reads the text
    instead.

    Every error is a SignalParseError that names the file and a line: the
    offending line (a bad sample or header), the line of a non-ASCII byte
    wherever it lies, or the section's header line when the section as a
    whole is bad (no samples, a non-finite sample, a bad sample rate).
    """
    text = read_ascii(path, SignalParseError)
    signals = _read_sections(text)
    if signals is None:
        signals = _read_lines(text.split("\n"), path)
    return signals


def _read_sections(text: str) -> list[Signal] | None:
    """The signals of text read a section at a time, or None where that fails.

    Each column-0 ``# signal`` line starts a section whose other lines,
    but for the blank lines that end it, are each one sample ``float``
    takes. The lines before the first section must be blank or comments.
    Anything else (a comment or blank line inside a section, an indented
    header, a bad token, header or section) returns None, and
    ``_read_lines``, the file's one grammar, reads the file instead.
    """
    preamble, *sections = ("\n" + text).split("\n" + _HEADER_PREFIX)
    for line in preamble.split("\n"):
        line = line.strip()
        if line and (not line.startswith("#") or line.startswith(_HEADER_PREFIX)):
            return None
    signals = []
    try:
        for section in sections:
            header, _, body = section.partition("\n")
            lines = body.split("\n")
            while lines and not lines[-1]:
                lines.pop()
            state, rate = _parse_header(_HEADER_PREFIX + header, 0, None)
            # float's grammar: numpy converts each str line through float
            signals.append(Signal(np.array(lines, dtype=float), rate, state))
    except ValueError:  # float's, and SignalParseError and InvalidArgumentError
        return None
    return signals


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
