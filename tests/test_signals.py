"""Signal synthesis and CSV ingestion tests."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gwquant import signals as signals_module
from gwquant.errors import InvalidArgumentError, SignalParseError
from gwquant.persist import read_ascii, read_ascii_bytes
from gwquant.signals import (
    Signal,
    SimulationConfig,
    StateLabel,
    read_signals_csv,
    signals_to_csv_text,
    simulate_dataset,
    tone_burst,
)


class TestToneBurst:
    def test_zero_amplitude_gives_all_zero_signal(self):
        sig = tone_burst(250e3, 5, 0.0, 24e6, 600)
        assert np.all(sig.samples == 0.0)

    def test_burst_occupies_first_480_samples(self):
        # 5 cycles * 24 MHz / 250 kHz = 480 samples
        sig = tone_burst(250e3, 5, 1.0, 24e6, 600)
        assert np.any(sig.samples[:480] != 0.0)
        assert np.all(sig.samples[480:] == 0.0)

    def test_energy_matches_direct_summation(self):
        fc, cycles, amp, fs, n = 250e3, 5, 0.7, 24e6, 600
        sig = tone_burst(fc, cycles, amp, fs, n)
        burst_len = round(cycles * fs / fc)
        expected = 0.0
        for t in range(burst_len):
            w = 0.54 - 0.46 * math.cos(2.0 * math.pi * t / (burst_len - 1))
            expected += (amp * w * math.sin(2.0 * math.pi * fc * t / fs)) ** 2
        assert float(np.sum(sig.samples**2)) == pytest.approx(expected, rel=1e-12)

    def test_peak_amplitude_near_requested(self):
        sig = tone_burst(250e3, 5, 2.0, 24e6, 600)
        peak = np.max(np.abs(sig.samples))
        assert 1.6 <= peak <= 2.0 + 1e-12

    def test_preconditions(self):
        with pytest.raises(InvalidArgumentError):
            tone_burst(-1.0, 5, 1.0, 24e6, 600)
        with pytest.raises(InvalidArgumentError):
            tone_burst(250e3, 5, 1.0, 400e3, 600)  # fs <= 2 fc
        with pytest.raises(InvalidArgumentError):
            tone_burst(250e3, 5, 1.0, 24e6, 100)  # buffer too small


def make_config(**kwargs) -> SimulationConfig:
    base = dict(
        center_frequency=50e3,
        n_cycles=5,
        burst_amplitude=1.0,
        sample_rate=1e6,
        path_delay=20e-6,
        damage_attenuation_coeff=0.1,
        damage_delay_coeff=5e-6,
        load_delay_coeff=2e-6,
        noise_floor_std=0.0,
        heteroscedastic_noise_slope=0.0,
        n_samples=400,
        n_replicates=1,
        rng_seed=1,
    )
    base.update(kwargs)
    return SimulationConfig(**base)


class TestSimulateDataset:
    def test_zero_state_zero_noise_equals_delayed_burst(self):
        config = make_config()
        [sig] = simulate_dataset(config, [0.0], [0.0])
        burst = tone_burst(50e3, 5, 1.0, 1e6, 400).samples
        shift = round(20e-6 * 1e6)
        expected = np.zeros(400)
        expected[shift : shift + 100] = burst[:100]
        assert np.array_equal(sig.samples, expected)

    def test_same_seed_bit_identical(self):
        config = make_config(noise_floor_std=0.05, n_replicates=3)
        a = simulate_dataset(config, [0.0, 1.0], [0.0, 5.0])
        b = simulate_dataset(config, [0.0, 1.0], [0.0, 5.0])
        assert len(a) == len(b) == 12
        for sa, sb in zip(a, b):
            assert sa.state == sb.state
            assert np.array_equal(sa.samples, sb.samples)

    def test_attenuation_ratio_matches_closed_form(self):
        config = make_config(damage_delay_coeff=0.0)
        signals = simulate_dataset(config, [0.0, 3.0], [0.0])
        peak0 = np.max(np.abs(signals[0].samples))
        peak3 = np.max(np.abs(signals[1].samples))
        assert peak3 / peak0 == pytest.approx(math.exp(-0.1 * 3.0), rel=1e-12)

    def test_peak_amplitude_strictly_decreasing_in_damage(self):
        config = make_config()
        signals = simulate_dataset(config, [0.0, 1.0, 2.0, 3.0, 4.0], [0.0])
        peaks = [np.max(np.abs(s.samples)) for s in signals]
        assert all(b < a for a, b in zip(peaks, peaks[1:]))

    def test_replicate_noise_std_converges_to_configured_level(self):
        slope, floor, damage = 0.02, 0.01, 3.0
        config = make_config(
            noise_floor_std=floor,
            heteroscedastic_noise_slope=slope,
            n_replicates=200,
            rng_seed=5,
        )
        signals = simulate_dataset(config, [damage], [0.0])
        index = 390  # outside the burst: pure noise
        values = np.array([s.samples[index] for s in signals])
        expected = floor + slope * damage
        observed = values.std(ddof=1)
        stderr = expected / math.sqrt(2 * (len(values) - 1))
        assert abs(observed - expected) <= 3 * stderr

    def test_crosstalk_blanking_zeroes_head(self):
        config = make_config(noise_floor_std=0.1, crosstalk_blank_samples=10)
        [sig] = simulate_dataset(config, [0.0], [0.0])
        assert np.all(sig.samples[:10] == 0.0)
        assert np.any(sig.samples[10:] != 0.0)

    def test_empty_or_bad_grids_rejected(self):
        config = make_config()
        with pytest.raises(InvalidArgumentError):
            simulate_dataset(config, [], [0.0])
        with pytest.raises(InvalidArgumentError):
            simulate_dataset(config, [0.0], [])
        with pytest.raises(InvalidArgumentError):
            simulate_dataset(config, [1.0, 1.0], [0.0])
        with pytest.raises(InvalidArgumentError):
            simulate_dataset(config, [-1.0, 0.0], [0.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidArgumentError, match="finite"):
                simulate_dataset(config, [0.0, bad], [0.0])
            with pytest.raises(InvalidArgumentError, match="finite"):
                simulate_dataset(config, [0.0], [bad])


class TestSignalCsv:
    def test_round_trip_is_lossless(self, tmp_path, rng):
        signals = [
            Signal(
                rng.normal(size=50) * 10.0 ** rng.integers(-12, 12),
                24e6,
                StateLabel(2.0, 5.0, k, "test"),
            )
            for k in range(3)
        ]
        path = tmp_path / "signals.csv"
        path.write_text(signals_to_csv_text(signals))
        loaded = read_signals_csv(path)
        assert len(loaded) == 3
        for orig, back in zip(signals, loaded):
            assert back.state == orig.state
            assert back.sample_rate == orig.sample_rate
            assert np.array_equal(back.samples, orig.samples)

    def test_three_sections_with_matching_labels(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text(
            "# signal damage=0 load=0 replicate=0 role=baseline sample_rate=1e6\n"
            "0.5\n-0.25\n"
            "\n"
            "# signal damage=2 load=5 replicate=1 role=test sample_rate=1e6\n"
            "1\n2\n3\n"
            "\n"
            "# signal damage=4 load=10 replicate=2 role=test sample_rate=1e6\n"
            "7\n"
        )
        signals = read_signals_csv(path)
        assert [s.state.damage_size for s in signals] == [0.0, 2.0, 4.0]
        assert [s.state.load for s in signals] == [0.0, 5.0, 10.0]
        assert [s.state.replicate for s in signals] == [0, 1, 2]
        assert [s.state.role for s in signals] == ["baseline", "test", "test"]
        assert np.array_equal(signals[1].samples, [1.0, 2.0, 3.0])

    def test_empty_section_names_offending_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(
            "# signal damage=1 load=0 replicate=0 role=test sample_rate=1e6\n"
            "\n"
            "# signal damage=2 load=0 replicate=0 role=test sample_rate=1e6\n"
            "1.0\n"
        )
        with pytest.raises(SignalParseError, match="line 1"):
            read_signals_csv(path)

    def test_bad_amplitude_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# signal damage=1 load=0 replicate=0 role=test sample_rate=1e6\n"
            "0.5\nnot-a-number\n"
        )
        with pytest.raises(SignalParseError, match="line 3"):
            read_signals_csv(path)

    def test_bad_amplitude_error_starts_with_the_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# signal damage=1 load=0 replicate=0 role=test sample_rate=1e6\n"
            "0.5\nabc\n"
        )
        with pytest.raises(SignalParseError) as excinfo:
            read_signals_csv(path)
        assert str(excinfo.value) == f"{path}: line 3: bad amplitude 'abc'"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_sample_names_file_and_section_header(self, tmp_path, bad):
        path = tmp_path / "nonfinite.csv"
        path.write_text(
            "# signal damage=1 load=0 replicate=0 role=test sample_rate=1e6\n"
            "0.5\n"
            "\n"
            "# signal damage=2 load=5 replicate=1 role=test sample_rate=1e6\n"
            f"0.5\n{bad}\n0.25\n"
        )
        with pytest.raises(SignalParseError) as excinfo:
            read_signals_csv(path)
        assert excinfo.value.line == 4
        assert str(excinfo.value) == (
            f"{path}: line 4: signal section (damage=2, load=5, replicate=1): "
            "samples must be finite"
        )

    def test_non_ascii_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(
            b"# signal damage=1 load=0 replicate=0 role=test sample_rate=1e6\n"
            b"0.5\n0.25\n\xe9\n"
        )
        with pytest.raises(SignalParseError) as excinfo:
            read_signals_csv(path)
        assert str(excinfo.value) == f"{path}: line 4: not ASCII text"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_read_ascii_bytes_translates_newlines_as_text_mode(self, tmp_path, newline):
        # an LF file is returned as read, the others go through a text decoder
        path = tmp_path / "text.csv"
        path.write_bytes(newline.join(["# a", "1.5", "", "2.5", ""]).encode("ascii"))
        assert read_ascii_bytes(path) == b"# a\n1.5\n\n2.5\n"
        assert read_ascii(path) == "# a\n1.5\n\n2.5\n"
        path.write_bytes(newline.join(["# a", "1.5", "\u00e9", ""]).encode("latin-1"))
        errors = []
        for read in (read_ascii, read_ascii_bytes):
            with pytest.raises(SignalParseError) as excinfo:
                read(path, SignalParseError)
            errors.append(str(excinfo.value))
        assert errors == [f"{path}: line 3: not ASCII text"] * 2

    # a text decoder reads a file 8 KiB at a time: the byte is the error
    # whether the bad line ahead of it is in its block or blocks before it
    @pytest.mark.parametrize("blocks", [0, 1, 3])
    def test_a_non_ascii_byte_after_a_bad_line_is_the_error(self, tmp_path, blocks):
        filler = b"0.25\n" * (blocks * 8192 // 5 + 1)
        path = tmp_path / "latin.csv"
        path.write_bytes(
            b"# signal damage=1 load=0 replicate=0 role=test sample_rate=1e6\n"
            b"x\n" + filler + b"\xe9\n"
        )
        with pytest.raises(SignalParseError) as excinfo:
            read_signals_csv(path)
        line = 3 + filler.count(b"\n")
        assert str(excinfo.value) == f"{path}: line {line}: not ASCII text"

    def test_missing_header_key_is_schema_error(self, tmp_path):
        path = tmp_path / "schema.csv"
        path.write_text("# signal damage=1 load=0 replicate=0 role=test\n1.0\n")
        with pytest.raises(SignalParseError, match="sample_rate"):
            read_signals_csv(path)

    def test_value_before_header_rejected(self, tmp_path):
        path = tmp_path / "orphan.csv"
        path.write_text("0.5\n")
        with pytest.raises(SignalParseError, match="line 1"):
            read_signals_csv(path)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ("damage=1 load=0 replicate=0 role=test replicate=7 sample_rate=1e6",
             "header repeats key 'replicate'"),
            ("damage=1 load=0 replicate=0 role=test sample_rate=1e6 bogus=1",
             "header has unknown key 'bogus'"),
            ("damage=x load=0 replicate=0 role=test sample_rate=1e6",
             "header key 'damage': could not convert string to float: 'x'"),
            ("damage=1 load=0 replicate=1.5 role=test sample_rate=1e6",
             "header key 'replicate': invalid literal for int() with base 10: '1.5'"),
            ("damage=1 load=nan replicate=0 role=test sample_rate=1e6",
             "header key 'load': 'nan' is not a finite number"),
            ("damage=-1 load=0 replicate=0 role=test sample_rate=1e6",
             "header key 'damage': damage_size must be finite and >= 0"),
            ("damage=1 load=-5 replicate=0 role=test sample_rate=1e6",
             "header key 'load': load must be finite and >= 0"),
            ("damage=1 load=0 replicate=-1 role=test sample_rate=1e6",
             "header key 'replicate': replicate must be >= 0"),
            ("damage=1 load=0 replicate=0 role=probe sample_rate=1e6",
             "header key 'role': role must be one of ('baseline', 'test'), got 'probe'"),
        ],
    )
    def test_header_names_each_key_once(self, tmp_path, fields, message):
        path = tmp_path / "keys.csv"
        path.write_text(f"# run\n# signal {fields}\n1.0\n")
        with pytest.raises(SignalParseError) as excinfo:
            read_signals_csv(path)
        assert str(excinfo.value) == f"{path}: line 2: {message}"

    @pytest.mark.parametrize(
        "layout",
        [
            lambda text: text,
            lambda text: re.sub(r"^(# signal .*)$", r"\1\n# probe 3", text, flags=re.M),
            lambda text: text.replace("\n\n", "\n\n# between\n\n"),
            lambda text: re.sub(r"^(# signal .*\n.*)$", r"\1\n", text, flags=re.M),
        ],
        ids=["plain", "comment-after-header", "comment-between-sections", "empty-in-section"],
    )
    def test_the_writers_layout_never_reaches_the_line_loop(
        self, tmp_path, rng, monkeypatch, layout
    ):
        """Column-0 comments and empty lines anywhere take the fast path."""
        signals = [
            Signal(rng.normal(size=n), 1e6, StateLabel(1.0, 5.0, n, "test")) for n in (1, 2, 30)
        ]
        path = tmp_path / "written.csv"
        path.write_text(layout(signals_to_csv_text(signals, comment="seed=3")))

        def no_line_loop(lines, path):
            raise AssertionError("the line loop read a file the line mask places")

        monkeypatch.setattr(signals_module, "_read_lines", no_line_loop)
        back = read_signals_csv(path)
        assert [s.state for s in back] == [s.state for s in signals]
        assert [s.samples.tobytes() for s in back] == [s.samples.tobytes() for s in signals]


class TestSignalCsvWriter:
    @pytest.mark.parametrize(
        "samples",
        [
            [0.0],
            [-0.0],
            [5e-324],
            [1e308, -1e308, 1.7976931348623157e308, -0.0, 0.0],
            [2.2250738585072014e-308, -4.9e-324, 1e-310, 0.1, 1 / 3, 1e16, 123456789.0],
        ],
    )
    def test_render_equals_one_format_per_value(self, samples):
        signals = [
            Signal(samples, 1e6, StateLabel(0.5, 2.0, 0, "baseline")),
            Signal(samples[::-1], 2e6, StateLabel(0.5, 2.0, 1, "test")),
        ]
        expected = "# a comment\n" + "\n".join(
            signals_module._format_header(sig) + "\n"
            + "".join(f"{value:.17g}\n" for value in sig.samples)
            for sig in signals
        )
        assert signals_to_csv_text(signals, "a comment") == expected

    def test_render_equals_one_format_per_value_on_random_doubles(self, rng):
        bits = rng.integers(0, 2**64 - 1, size=5000, dtype=np.uint64, endpoint=True)
        samples = bits.view(np.float64)
        samples = samples[np.isfinite(samples)]
        text = signals_to_csv_text([Signal(samples, 1e6)])
        assert text.split("\n", 1)[1] == "".join(f"{value:.17g}\n" for value in samples)


def _one_per_value(values) -> str:
    return "".join(f"{value:.17g}\n" for value in np.asarray(values, dtype=float).tolist())


def _rendered(values) -> str:
    """The sample lines signals_to_csv_text writes for one signal of values."""
    return signals_to_csv_text([Signal(values, 1e6)]).split("\n", 1)[1]


def _both_signs(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


class TestSampleKernel:
    """The %.17g kernel against one f-string per value, at its edges."""

    def test_neighbours_of_every_power_of_ten_the_fast_path_covers(self):
        # 1e-10 and 1e1 lie beyond the fast range's two ends
        values = []
        for k in range(-10, 2):
            power = float(f"1e{k}")
            below, above = np.nextafter(power, 0.0), np.nextafter(power, np.inf)
            values += [np.nextafter(below, 0.0), below, power, above, np.nextafter(above, np.inf)]
        values = _both_signs(values)
        assert _rendered(values) == _one_per_value(values)

    def test_round_up_carries_into_the_next_decade(self):
        # the doubles below a power of ten whose 17 digits round up to it:
        # 14 in all of float64, none in the fast range, so each one takes the
        # fallback. The 9.99999999999999999e<k> literals are the nearest
        # doubles to 10**k, whose digits do not carry
        carries = []
        for k in range(-323, 309):
            power = Fraction(10) ** k
            below = float(power)
            if Fraction(below) >= power:
                below = float(np.nextafter(below, 0.0))
            if below and Fraction(f"{below:.17g}") == power:
                carries.append(below)
        assert len(carries) == 14 and 1e-14 in carries and 1e-305 in carries
        low, high = signals_module._FAST_LOW, signals_module._FAST_HIGH
        assert not any(low <= c < high for c in carries)
        literals = [float(f"9.99999999999999999e{k}") for k in range(-12, 3)]
        values = _both_signs(carries + literals + [9.9999999999999995e-08])
        assert _rendered(values) == _one_per_value(values)
        assert "1e-14\n" in _rendered(values) and "9.9999999999999995e-08\n" in _rendered(values)

    def test_exact_ties_round_half_to_even(self):
        # j * 2**q with 18 significant digits ends in a 5: its 17 digits are
        # a tie, rounded to the even neighbour, up about half the time
        ties = [
            j * 2.0**q
            for q in range(-70, 4)
            for j in range(1, 1024, 2)
            if len(Decimal(j * 2.0**q).normalize().as_tuple().digits) == 18
        ]
        ups = [x for x in ties if Decimal(f"{x:.17g}") > Decimal(x)]
        assert len(ties) > 500 and len(ups) > 100
        values = _both_signs(ties)
        assert _rendered(values) == _one_per_value(values)

    def test_values_at_and_just_past_the_fast_range_bounds(self):
        low, high = signals_module._FAST_LOW, signals_module._FAST_HIGH
        values = _both_signs(
            [
                low, np.nextafter(low, 0.0), np.nextafter(low, np.inf),
                high, np.nextafter(high, 0.0), np.nextafter(high, np.inf),
            ]
        )
        assert _rendered(values) == _one_per_value(values)

    def test_zeros_subnormals_and_the_largest_doubles(self):
        tiny = np.finfo(float).smallest_subnormal
        values = _both_signs(
            [0.0, tiny, 2 * tiny, 3 * tiny, 1e-310, np.finfo(float).smallest_normal,
             np.finfo(float).max, np.nextafter(np.finfo(float).max, 0.0)]
        )
        assert _rendered(values) == _one_per_value(values)
        assert _rendered([0.0, -0.0]) == "0\n-0\n"

    def test_a_signal_mixing_fast_and_fallback_rows(self, rng):
        fast = rng.normal(0.0, 0.01, 200)
        fallback = rng.normal(0.0, 1e30, 200)
        values = np.where(rng.random(200) < 0.5, fast, fallback)
        values[::17] = 0.0
        assert _rendered(values) == _one_per_value(values)

    def test_a_one_sample_signal(self):
        for value in (0.5, -3.25e-7, 123.0, -0.0):
            assert _rendered([value]) == _one_per_value([value])

    def test_sections_across_chunk_bounds(self, rng, monkeypatch):
        chunk = signals_module._CHUNK
        signals = [
            Signal(rng.normal(0.0, 0.1, n), 1e6, StateLabel(0.0, 0.0, i, "test"))
            for i, n in enumerate([1, chunk - 2, 3, chunk, 2 * chunk + 1, 1])
        ]
        expected = "\n".join(
            signals_module._format_header(sig) + "\n" + _one_per_value(sig.samples)
            for sig in signals
        )
        calls, rows_17g = [], signals_module._rows_17g

        def spy(x):
            calls.append(x.copy())
            return rows_17g(x)

        monkeypatch.setattr(signals_module, "_rows_17g", spy)
        assert signals_to_csv_text(signals) == expected
        # the calls take the samples in order, at most a chunk each, and no
        # section ends inside a call: each call's values come from one section
        sizes = [len(x) for x in calls]
        assert max(sizes) <= chunk
        assert np.array_equal(np.concatenate(calls), np.concatenate([s.samples for s in signals]))
        assert set(np.cumsum([len(s) for s in signals])) <= set(np.cumsum(sizes))

    def test_a_million_random_bit_patterns(self, rng):
        bits = rng.integers(0, 2**64 - 1, size=1_000_000, dtype=np.uint64, endpoint=True)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert _rendered(values) == _one_per_value(values)


def _kernel(lines):
    """The reader kernel's values, and where it proves them, for lines."""
    buf, breaks = signals_module._line_buffer("".join(f"{line}\n" for line in lines).encode())
    chunk, n = signals_module._CHUNK, len(lines)
    bounds = [(c, min(c + chunk, n)) for c in range(0, n, chunk)]
    kernel = signals_module._sample_values
    parts = [kernel(buf, breaks[a:b] + 1, breaks[a + 1 : b + 1]) for a, b in bounds]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _floats(lines) -> np.ndarray:
    return np.array([float(line) for line in lines])


def _section(lines) -> str:
    header = "# signal damage=0 load=0 replicate=0 role=test sample_rate=1e6\n"
    return header + "".join(f"{line}\n" for line in lines)


def _assert_read_as_float(tmp_path, lines):
    """A one-section file of lines reads back as float reads each line, bit
    for bit, and so does every value the kernel proves."""
    path = tmp_path / "lines.csv"
    path.write_text(_section(lines))
    expected = _floats(lines)
    assert read_signals_csv(path)[0].samples.tobytes() == expected.tobytes()
    values, good = _kernel(lines)
    assert values[good].tobytes() == expected[good].tobytes()
    return good


def _carries() -> list[float]:
    """The doubles below a power of ten whose 17 digits round up to it."""
    carries = []
    for k in range(-323, 309):
        power = Fraction(10) ** k
        below = float(power)
        if Fraction(below) >= power:
            below = float(np.nextafter(below, 0.0))
        if below and Fraction(f"{below:.17g}") == power:
            carries.append(below)
    return carries


class TestSampleReader:
    """The sample reader against one float per line, bit for bit, sign of
    zero included; the kernel's proven values are checked on their own."""

    def test_the_writers_text_of_a_million_random_bit_patterns(self, tmp_path, rng):
        bits = rng.integers(0, 2**64 - 1, size=1_000_000, dtype=np.uint64, endpoint=True)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        lines = signals_to_csv_text([Signal(values, 1e6)]).split("\n")[1:-1]
        good = _assert_read_as_float(tmp_path, lines)
        low, high = signals_module._FAST_LOW, signals_module._FAST_HIGH
        fast = (np.abs(values) >= low) & (np.abs(values) < high)
        assert good[fast].mean() > 0.999

    def test_the_writers_edge_values(self, tmp_path):
        carries = _carries()
        assert len(carries) == 14
        ties = [
            j * 2.0**q
            for q in range(-70, 4)
            for j in range(1, 1024, 2)
            if len(Decimal(j * 2.0**q).normalize().as_tuple().digits) == 18
        ]
        bounds = []
        for bound in (signals_module._FAST_LOW, signals_module._FAST_HIGH):
            below, above = np.nextafter(bound, 0.0), np.nextafter(bound, np.inf)
            bounds += [np.nextafter(below, 0.0), below, bound, above, np.nextafter(above, np.inf)]
        tiny, largest = np.finfo(float).smallest_subnormal, np.finfo(float).max
        extremes = [0.0, tiny, 2 * tiny, 1e-310, np.finfo(float).smallest_normal, largest]
        values = _both_signs(carries + ties + bounds + extremes)
        lines = [f"{value:.17g}" for value in values.tolist()]
        assert "-0" in lines and "0" in lines
        _assert_read_as_float(tmp_path, lines)

    def test_short_forms(self, tmp_path, rng):
        x = rng.normal(0.0, 1.0, 300) * 10.0 ** rng.integers(-12, 12, 300)
        lines = [repr(v) for v in x.tolist()]
        lines += [f"{v:.6e}" for v in x.tolist()] + [f"{v:.3f}" for v in x.tolist()]
        lines += [str(i) for i in rng.integers(-(10**18), 10**18, 100).tolist()]
        lines += ["1.", "+1", "1_0", "-0", "0", "0.0", "-0.0", "1e5", "1E-05", "7e-01", "1e+300"]
        lines += [" 1.5", "2.5 ", "99999999999999999", "0.10000000000000001", "0.1"]
        # Clinger's bounds: |q| = 22 and 23, M = 2**53 and 2**53 + 1
        lines += [f"{m}e{q:+03d}" for m in (1, 3, 7, 123) for q in (-23, -22, 22, 23)]
        lines += ["9007199254740992", "9007199254740993"]
        lines += ["9.007199254740993e-5", "-9007199254740992e-22"]
        # no digit before the point, M past 2**64, a mantissa of 24 bytes
        lines += ["+.5", " .5", "18446744073709551621", "-1.2345678901234567890123e-05"]
        good = _assert_read_as_float(tmp_path, lines)
        # Clinger's case reads the short ones in the kernel
        assert good[[lines.index(s) for s in ("0.1", "1.", "-0", "7e-01", "1E-05")]].tolist() == [
            True, True, True, True, False
        ]

    def test_sections_across_chunk_bounds_in_one_file(self, tmp_path, rng, monkeypatch):
        chunk = signals_module._CHUNK
        signals = [
            Signal(rng.normal(0.0, 0.01, n), 1e6, StateLabel(0.0, 0.0, i, "test"))
            for i, n in enumerate([1, chunk - 2, chunk, 2 * chunk + 1])
        ]
        path = tmp_path / "sections.csv"
        path.write_text(signals_to_csv_text(signals))
        calls, sample_values = [], signals_module._sample_values

        def spy(buf, start, end):
            calls.append(start.size)
            return sample_values(buf, start, end)

        monkeypatch.setattr(signals_module, "_sample_values", spy)
        back = read_signals_csv(path)
        for sig, read in zip(signals, back):
            lines = [f"{value:.17g}" for value in sig.samples.tolist()]
            assert read.samples.tobytes() == _floats(lines).tobytes()
        # the calls run across sections: every line after the first header
        # (the other headers, the blank lines and the empty last one among
        # them), _CHUNK to a call
        lines = path.read_text().count("\n")
        assert calls == [chunk] * (lines // chunk) + [lines % chunk]

    def test_the_writers_samples_are_all_proven_by_the_kernel(self):
        rng = np.random.default_rng(1)
        values = np.concatenate([rng.normal(0.0, 0.003, 20_000), np.zeros(10), -np.zeros(10)])
        lines = signals_to_csv_text([Signal(values, 1e6)]).split("\n")[1:-1]
        read, good = _kernel(lines)
        assert good.all()
        assert read.tobytes() == values.tobytes()

    def test_a_shortest_repr_file_steps_a_bounded_number_of_times(self, tmp_path, rng, monkeypatch):
        # a 16-digit repr is float(line) but not its 17 digits, so its
        # candidate misses: it leaves the nextafter loop after _STEPS rounds
        values = rng.normal(0.0, 0.005, 5000)
        calls, digit_match = [], signals_module._digit_match

        def spy(x, m, q_index):
            calls.append(x.size)
            return digit_match(x, m, q_index)

        monkeypatch.setattr(signals_module, "_digit_match", spy)
        lines = [repr(value) for value in values.tolist()]
        _assert_read_as_float(tmp_path, lines)
        # two kernel calls, read_signals_csv's and _kernel's, the same rounds each
        assert len(calls) % 2 == 0
        first, rounds = calls[0], calls[1 : len(calls) // 2]
        assert 1 <= len(rounds) <= signals_module._STEPS
        assert rounds == sorted(rounds, reverse=True) and rounds[0] < first / 4


# --- the section reader against the line loop -------------------------------

_VALID_FIELDS = {
    "damage": "2.5", "load": "5", "replicate": "1", "role": "test", "sample_rate": "1e6"
}
_FIELD_EDITS = st.integers(0, 9).flatmap(
    lambda k: st.just("none")
    if k < 7
    else st.sampled_from(["drop", "repeat", "unknown", "bad-value", "token", "shuffle"])
)
_PADS = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"])
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda v: f"{v:.17g}"),
    st.integers(-(10**20), 10**20).map(str),
)
_ODD_TOKENS = st.sampled_from(
    ["1_0", "1 2", "0x1p3", "0x10", "nan", "inf", "-inf", "-Infinity", "1e400", "1e", "-0",
     "5e-324", "1e+308", "x", "1\x0b2", "1\x0c2", "1\x1c2", "1\x1e2", "1\x1f2"]
)
_TOKENS = st.integers(0, 9).flatmap(lambda k: _NUMBERS if k < 9 else _ODD_TOKENS)


@st.composite
def _headers(draw):
    items = list(_VALID_FIELDS.items())
    edit = draw(_FIELD_EDITS)
    if edit == "drop":
        items.pop(draw(st.integers(0, 4)))
    elif edit == "repeat":
        items.append(draw(st.sampled_from(items)))
    elif edit == "unknown":
        items.append(("bogus", "1"))
    elif edit == "bad-value":
        at = draw(st.integers(0, 4))
        items[at] = (items[at][0], draw(st.sampled_from(["nan", "-1", "0", "1.5", "probe", ""])))
    elif edit == "shuffle":
        items = draw(st.permutations(items))
    tokens = [f"{key}={value}" for key, value in items]
    if edit == "token":
        tokens.insert(draw(st.integers(0, 5)), "damage")
    indent = draw(st.sampled_from(["", "", "", " ", "\t", "\x1c"]))
    return indent + "# signal " + draw(_PADS) + " ".join(tokens) + draw(_PADS)


_NOISE = st.sampled_from(
    ["", "", " ", "\x0c", "\x1f", "# a comment", "  # indented comment", "# signal",
     "# signal  ", "# signal\t\x1c", "#"]
)
_NOISE_OR_NOT_ASCII = st.integers(0, 9).flatmap(
    lambda k: _NOISE if k < 9 else st.sampled_from(["\u00e9", "1.5 \u00e9", "\x85"])
)
_SAMPLE_LINES = st.builds(lambda a, t, b: a + t + b, _PADS, _TOKENS, _PADS)
_BODY_LINES = st.integers(0, 19).flatmap(
    lambda k: _SAMPLE_LINES if k < 18 else _NOISE_OR_NOT_ASCII
)


@st.composite
def _signal_files(draw):
    """Bytes of a random signal file: mostly sections, with every oddity mixed in."""
    lines = draw(st.lists(_NOISE_OR_NOT_ASCII, max_size=2))
    if draw(st.integers(0, 9)) == 9:
        lines.append(draw(_headers()))
    for _ in range(draw(st.integers(0, 4))):
        lines.append(draw(_headers()))
        empty_allowed = draw(st.integers(0, 9)) == 9
        lines.extend(draw(st.lists(_BODY_LINES, min_size=0 if empty_allowed else 1, max_size=6)))
        lines.extend(draw(st.lists(st.just(""), max_size=2)))
    ends = draw(
        st.lists(
            st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]),
            min_size=len(lines),
            max_size=len(lines),
        )
    )
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


def _outcome(read, path):
    """What a reader makes of a file: its signals as plain values, or its error."""
    try:
        return [
            (s.state, s.sample_rate, s.samples.dtype, s.samples.tobytes()) for s in read(path)
        ]
    except Exception as exc:  # noqa: BLE001 - the type and text are compared
        return (type(exc), str(exc))


def _line_loop(path):
    """The oracle: the line loop alone, over the file's lines."""
    return signals_module._read_lines(read_ascii(path, SignalParseError).split("\n"), path)


@settings(
    max_examples=400, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=_signal_files())
# str.splitlines would also break at \x0c; an indented header is a header
@example(data=b"# signal damage=0 load=0 replicate=0 role=test sample_rate=1e6\n1\x0c2\n")
@example(data=b"  # signal damage=0 load=0 replicate=0 role=test sample_rate=1e6\n1\n")
# a bad line, then a non-ASCII byte more than one 8 KiB decode block later
@example(data=b"# signal damage=0 load=0 replicate=0 role=test sample_rate=1e6\n1 2\n"
         + b"0.5\n" * 3000 + b"\xff\n")
# the line mask's edges: a header with no samples before another header, a
# whitespace-only line in a section, a file of comments and empty lines with
# one whitespace-only line, a sample before the first header
@example(data=b"# signal damage=0 load=0 replicate=0 role=test sample_rate=1e6\n"
         b"# signal damage=1 load=0 replicate=0 role=test sample_rate=1e6\n1\n")
@example(data=b"# signal damage=0 load=0 replicate=0 role=test sample_rate=1e6\n1\n \t\n2\n")
@example(data=b"# run\n\n#\n \n\n# signal\n")
@example(data=b"1.5\n# signal damage=0 load=0 replicate=0 role=test sample_rate=1e6\n1\n")
def test_read_signals_csv_equals_the_line_loop(tmp_path, data):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    assert _outcome(read_signals_csv, path) == _outcome(_line_loop, path)


def test_state_label_validation():
    with pytest.raises(InvalidArgumentError):
        StateLabel(damage_size=-1.0)
    with pytest.raises(InvalidArgumentError):
        StateLabel(role="reference")


def test_signal_validation():
    with pytest.raises(InvalidArgumentError):
        Signal(np.array([]), 1e6)
    with pytest.raises(InvalidArgumentError):
        Signal(np.array([1.0, float("nan")]), 1e6)
    with pytest.raises(InvalidArgumentError):
        Signal(np.array([1.0]), 0.0)
