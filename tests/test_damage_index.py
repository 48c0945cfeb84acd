"""Damage-index formula oracles and dataset assembly tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwquant.damage_index import (
    COLUMN_NAMES,
    DiDataset,
    build_di_dataset,
    normalized_di,
    read_di_csv,
    rmsd_di,
    write_di_csv,
)
from gwquant.errors import (
    DegenerateSignalError,
    InvalidArgumentError,
    MissingBaselineError,
)
from gwquant.signals import Signal, SimulationConfig, StateLabel, simulate_dataset


def sig(samples, damage=0.0, load=0.0, rep=0, role="test"):
    return Signal(np.asarray(samples, dtype=float), 1e6, StateLabel(damage, load, rep, role))


class TestRmsdDi:
    def test_identical_signals_give_zero(self, rng):
        s = sig(rng.normal(size=32))
        assert rmsd_di(s, s, 32) == 0.0

    def test_zeros_vs_ones_gives_one(self):
        assert rmsd_di(sig(np.zeros(4)), sig(np.ones(4)), 4) == pytest.approx(1.0)

    def test_two_sample_case_matches_hand_arithmetic(self):
        # sqrt(((1-3)^2 + (2-4)^2)/2) = sqrt(4) = 2
        assert rmsd_di(sig([1.0, 2.0]), sig([3.0, 4.0]), 2) == pytest.approx(2.0)

    def test_absolute_homogeneity(self, rng):
        y0, yu = rng.normal(size=20), rng.normal(size=20)
        base = rmsd_di(sig(y0), sig(yu), 20)
        for alpha in (0.25, 3.0, 17.5):
            scaled = rmsd_di(sig(alpha * y0), sig(alpha * yu), 20)
            assert scaled == pytest.approx(abs(alpha) * base, rel=1e-12)

    def test_short_signals_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rmsd_di(sig([1.0]), sig([1.0, 2.0]), 2)


class TestNormalizedDi:
    def test_identical_signals_projection_zero(self, rng):
        s = sig(rng.normal(size=64))
        assert abs(normalized_di(s, s, 64)) <= 1e-12

    def test_unit_vectors_give_one(self):
        # y0 = e1, yu = e2: Yu = e2, cross = 0, Y0 = 0 -> DI = sum(e2) = 1
        assert normalized_di(sig([1.0, 0.0, 0.0]), sig([0.0, 1.0, 0.0]), 3) == pytest.approx(1.0)

    def test_scale_invariance_of_both_signals(self, rng):
        y0, yu = rng.normal(size=50), rng.normal(size=50)
        base = normalized_di(sig(y0), sig(yu), 50)
        assert normalized_di(sig(3.7 * y0), sig(yu), 50) == pytest.approx(base, abs=1e-12 * max(1.0, abs(base)))
        assert normalized_di(sig(y0), sig(0.004 * yu), 50) == pytest.approx(base, abs=1e-12 * max(1.0, abs(base)))

    def test_as_written_matches_direct_formula(self):
        y0 = np.array([1.0, 2.0, 2.0])
        yu = np.array([2.0, 1.0, 1.0])
        got = normalized_di(sig(y0), sig(yu), 3, mode="as_written")
        yu_n = yu / math.sqrt(float(np.sum(yu**2)))
        cross = float(np.sum(y0 * yu_n))
        e0 = float(np.sum(y0**2))
        expected = sum(yu_n[t] - cross / (y0[t] * e0) for t in range(3))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_as_written_zero_baseline_sample_raises(self):
        with pytest.raises(DegenerateSignalError, match="zero samples"):
            normalized_di(sig([1.0, 0.0, 2.0]), sig([1.0, 1.0, 1.0]), 3, mode="as_written")

    def test_degenerate_signals_rejected(self):
        with pytest.raises(DegenerateSignalError):
            normalized_di(sig(np.zeros(4)), sig(np.ones(4)), 4)
        with pytest.raises(DegenerateSignalError):
            normalized_di(sig(np.ones(4)), sig(np.zeros(4)), 4)

    def test_no_nan_on_random_pairs(self, rng):
        for _ in range(100):
            y0 = rng.normal(size=30)
            yu = rng.normal(size=30)
            assert math.isfinite(normalized_di(sig(y0), sig(yu), 30))


def simulated(noise=0.0, slope=0.0, replicates=4, seed=3):
    config = SimulationConfig(
        center_frequency=50e3,
        n_cycles=5,
        burst_amplitude=1.0,
        sample_rate=1e6,
        path_delay=10e-6,
        damage_attenuation_coeff=0.15,
        damage_delay_coeff=4e-6,
        load_delay_coeff=2e-6,
        noise_floor_std=noise,
        heteroscedastic_noise_slope=slope,
        n_samples=300,
        n_replicates=replicates,
        rng_seed=seed,
    )
    return config


class TestBuildDiDataset:
    def test_healthy_replicates_cluster_near_zero(self):
        noise = 0.01
        signals = simulate_dataset(simulated(noise=noise, replicates=20), [0.0], [0.0])
        dataset = build_di_dataset(signals, "rmsd", "healthy_per_load", n_use=300)
        assert dataset.n == 20
        # pure-noise DIs against the leave-one-out averaged baseline
        assert 0.0 < dataset.targets.mean() < 3.0 * noise

    def test_both_classes_layout_and_row_count(self):
        signals = simulate_dataset(
            simulated(noise=0.001, replicates=4), [0.0, 1.0, 2.0], [0.0, 5.0]
        )
        n_test = len(signals)
        dataset = build_di_dataset(signals, "rmsd", "both_classes", n_use=300)
        assert dataset.ndim == 3
        assert dataset.column_names == ["damage", "load", "switch"]
        # one class-1 and one class-2 pairing per test signal
        assert dataset.n == 2 * n_test
        switch = dataset.inputs[:, 2]
        assert set(switch) == {1.0, 2.0}
        # block layout: all class-1 rows first, then all class-2 rows
        boundary = np.searchsorted(switch, 1.5)
        assert np.all(switch[:boundary] == 1.0) and np.all(switch[boundary:] == 2.0)

    def test_fixed_reference_zero_noise_monotone_in_damage(self):
        # attenuation-driven deviation growth; a damage delay of a full
        # carrier period would re-align the burst and break monotonicity
        config = simulated()
        config.damage_delay_coeff = 0.0
        signals = simulate_dataset(config, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0])
        dataset = build_di_dataset(
            signals, "rmsd", "fixed", n_use=300, fixed_reference=(0.0, 0.0)
        )
        assert dataset.column_names == ["damage"]
        # replicates are identical at zero noise; compare one DI per state
        per_state = [
            dataset.targets[dataset.inputs[:, 0] == d][0]
            for d in sorted(set(dataset.inputs[:, 0]))
        ]
        assert all(b > a for a, b in zip(per_state, per_state[1:]))

    def test_single_load_gives_one_input_column(self):
        signals = simulate_dataset(simulated(), [0.0, 1.0], [5.0])
        with pytest.raises(MissingBaselineError):
            # class 2 needs unloaded references, none were simulated
            build_di_dataset(signals, "rmsd", "unloaded_per_damage", n_use=300)
        signals = simulate_dataset(simulated(), [0.0, 1.0], [0.0])
        dataset = build_di_dataset(signals, "rmsd", "unloaded_per_damage", n_use=300)
        assert dataset.column_names == ["damage"]

    def test_missing_baseline_names_the_state(self):
        signals = simulate_dataset(simulated(), [1.0, 2.0], [5.0, 10.0])
        with pytest.raises(MissingBaselineError, match="damage=0"):
            build_di_dataset(signals, "rmsd", "healthy_per_load", n_use=300)

    def test_class_metadata_on_di_values(self):
        # class 1 pairs a signal with the healthy mean at its load, class 2
        # with the unloaded mean at its damage; rows keep the signal order
        signals = simulate_dataset(simulated(noise=0.002), [0.0, 1.0], [0.0, 5.0])
        dataset = build_di_dataset(signals, "rmsd", "both_classes", n_use=300)
        n = len(signals)

        def pool_mean(damage, load):
            pool = [s.samples for s in signals if (s.state.damage_size, s.state.load) == (damage, load)]
            return sig(np.stack(pool).mean(axis=0))

        for i, s in enumerate(signals):
            damage, load = s.state.damage_size, s.state.load
            assert list(dataset.inputs[i]) == [damage, load, 1.0]
            assert list(dataset.inputs[n + i]) == [damage, load, 2.0]
            if damage > 0:
                assert dataset.targets[i] == rmsd_di(pool_mean(0.0, load), s, 300)
            if load > 0:
                assert dataset.targets[n + i] == rmsd_di(pool_mean(damage, 0.0), s, 300)


def oracle_dataset(signals, di_kind, policy, n_use, mode, fixed_reference):
    """The DI dataset computed one test signal at a time, each reference mean
    taken afresh over the pool without that signal (or the whole pool when
    nothing is left)."""
    classes = {
        "healthy_per_load": [1.0],
        "unloaded_per_damage": [2.0],
        "both_classes": [1.0, 2.0],
        "fixed": [None],
    }[policy]
    tests = [s for s in signals if s.state.role == "test"]
    if not tests:
        raise InvalidArgumentError("no test signals in input")
    rows, targets = [], []
    for switch in classes:
        for s in tests:
            damage, load = s.state.damage_size, s.state.load
            ref_state = {1.0: (0.0, load), 2.0: (damage, 0.0), None: fixed_reference}[switch]
            pool = [p for p in signals if (p.state.damage_size, p.state.load) == ref_state]
            if not pool:
                raise MissingBaselineError(
                    f"no reference signals at (damage={ref_state[0]:g}, load={ref_state[1]:g})"
                )
            members = [p for p in pool if p is not s] or pool
            mean = np.stack([p.samples[:n_use] for p in members]).mean(axis=0)
            ref = Signal(mean, members[0].sample_rate)
            if di_kind == "rmsd":
                value = rmsd_di(ref, s, n_use)
            else:
                value = normalized_di(ref, s, n_use, mode)
            if not np.isfinite(value):
                raise InvalidArgumentError("DI value must be finite")
            rows.append([damage, load, switch])
            targets.append(value)
    loads = {s.state.load for s in tests}
    d = 3 if policy == "both_classes" else 2 if len(loads) > 1 else 1
    return DiDataset(
        np.array([row[:d] for row in rows], dtype=float), np.array(targets), list(COLUMN_NAMES[:d])
    )


@st.composite
def di_layouts(draw):
    """Signals on a damage x load grid with replicates, some relabelled
    baseline and shuffled, plus a policy, a DI kind and a DI length."""

    def grid(values):
        # 1-3 values; 0 (the class references) is left out a quarter of the time
        zero = [0.0] if draw(st.sampled_from([True, True, True, False])) else []
        size = {"min_size": 1 - len(zero), "max_size": 3 - len(zero)}
        return zero + draw(st.lists(st.sampled_from(values), unique=True, **size))

    damages, loads = grid([0.5, 1.0, 2.5]), grid([5.0, 10.0, 15.0])
    n_samples = draw(st.integers(1, 6))
    # zeros give zero-energy and zero-sample baselines, which must raise alike
    number = st.floats(-10.0, 10.0, allow_nan=False)
    sample = st.one_of(st.just(0.0), number, number, number)
    signals = []
    for damage in damages:
        for load in loads:
            for rep in range(draw(st.integers(1, 4))):
                role = draw(st.sampled_from(["test", "test", "baseline"]))
                samples = draw(st.lists(sample, min_size=n_samples, max_size=n_samples))
                signals.append(Signal(np.array(samples), 1e6, StateLabel(damage, load, rep, role)))
    signals = draw(st.permutations(signals))
    policy = draw(st.sampled_from(["healthy_per_load", "unloaded_per_damage", "both_classes", "fixed"]))
    present = sorted({(s.state.damage_size, s.state.load) for s in signals})
    fixed = draw(st.sampled_from([*present, (7.0, 0.0)])) if policy == "fixed" else None
    di_kind = draw(st.sampled_from(["rmsd", "normalized"]))
    mode = draw(st.sampled_from(["projection", "as_written"]))
    return signals, di_kind, policy, draw(st.integers(1, n_samples)), mode, fixed


# tiny samples can overflow a DI to inf or nan, which both sides must reject alike
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(layout=di_layouts())
def test_builder_matches_per_signal_oracle(layout):
    try:
        expected = oracle_dataset(*layout)
    except (InvalidArgumentError, MissingBaselineError, DegenerateSignalError) as exc:
        with pytest.raises(type(exc)) as raised:
            build_di_dataset(*layout)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    got = build_di_dataset(*layout)
    assert got.column_names == expected.column_names
    assert got.inputs.shape == expected.inputs.shape
    assert np.array_equal(got.inputs, expected.inputs)
    assert np.array_equal(got.targets, expected.targets)


class TestDiDatasetValidation:
    def test_switch_column_must_be_one_or_two(self):
        with pytest.raises(InvalidArgumentError):
            DiDataset(
                np.array([[0.0, 0.0, 3.0], [1.0, 0.0, 1.0]]),
                np.array([0.1, 0.2]),
                ["damage", "load", "switch"],
            )

    def test_needs_two_rows(self):
        with pytest.raises(InvalidArgumentError):
            DiDataset(np.array([[0.0]]), np.array([0.1]), ["damage"])

    def test_csv_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("size,di\n1,0.5\n2,0.7\n")
        with pytest.raises(InvalidArgumentError, match="header"):
            read_di_csv(path)

    def test_csv_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("damage,di\n1,0.5\n2\n")
        with pytest.raises(InvalidArgumentError, match="cells"):
            read_di_csv(path)

    def test_csv_round_trip(self, tmp_path, rng):
        inputs = np.column_stack(
            [rng.uniform(0, 4, 8), rng.uniform(0, 15, 8), rng.integers(1, 3, 8)]
        ).astype(float)
        dataset = DiDataset(inputs, rng.normal(size=8), ["damage", "load", "switch"])
        path = tmp_path / "di.csv"
        write_di_csv(path, dataset, comment="seed=0")
        back = read_di_csv(path)
        assert back.column_names == dataset.column_names
        assert np.array_equal(back.inputs, dataset.inputs)
        assert np.array_equal(back.targets, dataset.targets)
