"""Guided-wave sensor signals: synthesis, state metadata and CSV ingestion.

Real acquisitions are rarely available during development, so
:func:`simulate_dataset` provides a parametric stand-in: a Hamming-windowed
tone burst propagated with a state-dependent delay, attenuation and noise
floor. Damage grows the delay and attenuation and can also grow the noise
level (heteroscedastic scatter across replicates), load only shifts the
arrival time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, SignalParseError

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
        if self.n_replicates < 1:
            raise InvalidArgumentError("n_replicates must be >= 1")
        if self.noise_floor_std < 0:
            raise InvalidArgumentError("noise_floor_std must be >= 0")
        if self.heteroscedastic_noise_slope < 0:
            raise InvalidArgumentError("heteroscedastic_noise_slope must be >= 0")
        if self.crosstalk_blank_samples < 0:
            raise InvalidArgumentError("crosstalk_blank_samples must be >= 0")
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
    burst_len = int(round(n_cycles * sample_rate / center_frequency))
    if n_samples < math.ceil(n_cycles * sample_rate / center_frequency):
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
    shift = int(round(delay * config.sample_rate))
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

    Deterministic given ``config.rng_seed``; the generator is owned by this
    call and never shared.
    """
    damage_grid = [float(d) for d in damage_grid]
    load_grid = [float(w) for w in load_grid]
    for name, grid in (("damage_grid", damage_grid), ("load_grid", load_grid)):
        if not grid:
            raise InvalidArgumentError(f"{name} must be non-empty")
        if any(g < 0 for g in grid):
            raise InvalidArgumentError(f"{name} values must be >= 0")
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
            for rep in range(config.n_replicates):
                samples = clean.copy()
                if noise_std > 0:
                    samples += rng.normal(0.0, noise_std, config.n_samples)
                if config.crosstalk_blank_samples > 0:
                    samples[: config.crosstalk_blank_samples] = 0.0
                signals.append(
                    Signal(
                        samples,
                        config.sample_rate,
                        StateLabel(damage, load, rep, "test"),
                    )
                )
    return signals


# --- CSV format -------------------------------------------------------------
#
# One section per signal:
#     # signal damage=<real> load=<real> replicate=<int> role=<baseline|test> sample_rate=<real>
#     <amplitude>
#     ...
# Sections are separated by blank lines. Other '#' lines are comments.

_HEADER_PREFIX = "# signal "
_HEADER_KEYS = ("damage", "load", "replicate", "role", "sample_rate")


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
        fields[key] = value
    missing = [k for k in _HEADER_KEYS if k not in fields]
    if missing:
        raise SignalParseError(f"header missing keys {missing}", lineno, path)
    try:
        state = StateLabel(
            float(fields["damage"]),
            float(fields["load"]),
            int(fields["replicate"]),
            fields["role"],
        )
        rate = float(fields["sample_rate"])
    except (ValueError, InvalidArgumentError) as exc:
        raise SignalParseError(str(exc), lineno, path) from exc
    return state, rate


def signals_to_csv_text(signals: list[Signal], comment: str | None = None) -> str:
    """Render signals in the section format; 17 significant digits per sample."""
    parts = []
    if comment:
        parts.append(f"# {comment}\n")
    for i, sig in enumerate(signals):
        if i:
            parts.append("\n")
        parts.append(_format_header(sig) + "\n")
        parts.extend(f"{value:.17g}\n" for value in sig.samples)
    return "".join(parts)


def write_signals_csv(path, signals: list[Signal], comment: str | None = None) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(signals_to_csv_text(signals, comment))


def read_signals_csv(path) -> list[Signal]:
    """Parse a signal CSV file.

    Every error is a SignalParseError that names the file and a line: the
    offending line (a bad sample, header or byte), or the section's header
    line when the section as a whole is bad (no samples, a non-finite
    sample, a bad sample rate).
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

    with open(path, "r", encoding="ascii") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
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
        except UnicodeDecodeError:
            raise SignalParseError("not ASCII text", _first_non_ascii_line(path), path) from None
        flush()
    return signals


def _first_non_ascii_line(path) -> int:
    # text mode decodes whole blocks, so the failing line is found afresh
    with open(path, "rb") as fh:
        return next(n for n, raw in enumerate(fh, start=1) if not raw.isascii())


def _format_state(state: StateLabel) -> str:
    return f"(damage={state.damage_size:g}, load={state.load:g}, replicate={state.replicate})"
