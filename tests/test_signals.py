"""Signal synthesis and CSV ingestion tests."""

import math

import numpy as np
import pytest

from gwquant.errors import InvalidArgumentError, SignalParseError
from gwquant.signals import (
    Signal,
    SimulationConfig,
    StateLabel,
    read_signals_csv,
    simulate_dataset,
    tone_burst,
    write_signals_csv,
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
        write_signals_csv(path, signals)
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
