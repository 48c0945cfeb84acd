"""Damage-index formula oracles and dataset assembly tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwquant import damage_index
from gwquant.damage_index import (
    COLUMN_NAMES,
    DI_HEADERS,
    DiDataset,
    build_di_dataset,
    di_to_csv_text,
    normalized_di,
    read_csv_table,
    read_di_csv,
    rmsd_di,
)
from gwquant.errors import (
    DegenerateSignalError,
    InvalidArgumentError,
    MissingBaselineError,
)
from gwquant.persist import _text_number, read_ascii
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

    @pytest.mark.parametrize("tiny", [1e-17, -1e-17, 1e-300, 5e-324, 4.4e-16])
    def test_as_written_refuses_a_baseline_sample_within_eps_of_zero(self, tiny):
        # without the refusal 1e-17 gave a DI of -3.5e16 here and 1e-300 one
        # of -3.5e299; 4.4e-16 is eps * 2, the largest magnitude refused here
        assert abs(tiny) <= np.finfo(float).eps * 2.0
        with pytest.raises(DegenerateSignalError, match=re.escape("|y0[t]| <= eps * max|y0|")):
            normalized_di(sig([tiny, 1.0, 2.0]), sig([1.0, 1.0, 1.0]), 3, mode="as_written")

    def test_as_written_keeps_a_baseline_sample_just_above_eps(self):
        y0 = np.array([np.nextafter(np.finfo(float).eps * 2.0, 1.0), 1.0, 2.0])
        yu = np.array([1.0, 1.0, 1.0])
        got = normalized_di(sig(y0), sig(yu), 3, mode="as_written")
        yu_n = yu / math.sqrt(float(np.sum(yu**2)))
        cross = float(np.sum(y0 * yu_n))
        e0 = float(np.sum(y0**2))
        expected = sum(yu_n[t] - cross / (y0[t] * e0) for t in range(3))
        assert math.isfinite(got) and got == pytest.approx(expected, rel=1e-12)
        # projection mode divides by no sample, so it keeps every baseline
        assert math.isfinite(normalized_di(sig([1e-300, 1.0, 2.0]), sig(yu), 3))

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
        path.write_text(di_to_csv_text(dataset, comment="seed=0"))
        back = read_di_csv(path)
        assert back.column_names == dataset.column_names
        assert np.array_equal(back.inputs, dataset.inputs)
        assert np.array_equal(back.targets, dataset.targets)


def _read_table_before(path, headers):
    """read_csv_table as it read a file before, one line at a time: the oracle."""
    lines = [(n, ln.strip()) for n, ln in enumerate(read_ascii(path).split("\n"), start=1)]
    lines = [(n, ln) for n, ln in lines if ln and not ln.startswith("#")]
    names = lines[0][1].split(",") if lines else []
    if names not in [list(h) for h in headers]:
        expected = " or ".join(repr(",".join(h)) for h in headers)
        found = repr(lines[0][1]) if lines else "no rows"
        raise InvalidArgumentError(f"expected header {expected}, got {found}", path=path)
    rows = []
    for lineno, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(names):
            raise InvalidArgumentError(
                f"row has {len(cells)} cells, expected {len(names)}", lineno, path
            )
        try:
            rows.append([_text_number(c) for c in cells])
        except ValueError:
            raise InvalidArgumentError(f"bad value in row {ln!r}", lineno, path) from None
    return names, rows


def _table_outcome(read, path):
    """(names, the rows' float bits) of a read, or (its error text, line)."""
    try:
        names, rows = read(path, DI_HEADERS)
    except InvalidArgumentError as exc:
        return str(exc), exc.line
    # bits, so that -0.0 and 0.0 differ
    return names, np.array(rows, dtype=float).reshape(len(rows), len(names)).tobytes()


# cells float takes, finite (a padded one too), and the flawed ones
_GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1_000", "-0.0", "5e-324", "1e308", " 2.5 ", "+4", ".5", "7"]),
)
_BAD_CELLS = st.sampled_from(
    ["1e400", "-1e400", "inf", "-inf", "nan", "\t3", "\x0c7", "\x1c7", "1e", "bad", "",
     "0x10", "1__0", "#1"]
)
_TABLE_JUNK = st.sampled_from(["", "   ", "# a comment", "#", "  # indented", "\t"])
_GOOD_HEADERS = st.sampled_from(["damage,di", "damage,load,di", "damage,load,switch,di"])
_BAD_HEADERS = st.sampled_from([" damage,di ", "damage, di", "di", "damage,load"])


@st.composite
def _table_texts(draw):
    """The text of a table file: well formed, or with one or more flaws of each kind.

    Each place a flaw may stand draws one with the file's flaw rate, so
    about half of the files are well formed.
    """
    rate = draw(st.sampled_from([0, 0, 0, 5, 30]))

    def flawed():
        return draw(st.integers(0, 99)) < rate

    preamble = [
        draw(_TABLE_JUNK) if flawed() else "# kind=rmsd" for _ in range(draw(st.integers(0, 2)))
    ]
    header = draw(_BAD_HEADERS if flawed() else _GOOD_HEADERS)
    ncols = header.count(",") + 1
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if flawed():
            lines.append(draw(_TABLE_JUNK))
            continue
        width = ncols + (draw(st.sampled_from([-1, 1])) if flawed() else 0)
        cells = [draw(_BAD_CELLS if flawed() else _GOOD_CELLS) for _ in range(width)]
        pad = draw(st.sampled_from([" ", "\t", "\x1c"])) if flawed() else ""
        lines.append(pad + ",".join(cells) + pad)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join([*preamble, header, *lines]) + draw(st.sampled_from([newline, ""]))
    if flawed():  # a non-ASCII byte
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\xe9" + text[at:]
    return text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=_table_texts())
def test_the_table_reader_equals_the_line_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("table") / "table.csv"
    path.write_bytes(text.encode("latin-1"))
    expected = _table_outcome(_read_table_before, path)
    assert _table_outcome(read_csv_table, path) == expected


@pytest.mark.parametrize(
    "text",
    [
        "damage,di\n",
        "damage,di\n\n",
        "# only a comment\ndamage,load,di\n",
        "damage,di\n1_000,-0.0\n5e-324,1e308\n",
        "damage,di\r\n1,2\r\n\r\n# c\r\n 3 , 4 \r\n",
        "damage,di\n1,2\n3\n",
        # ragged rows whose cells total a multiple of the column count
        "damage,di\n1,2,3\n4\n",
        "damage,di\n1,2\n3,x\n",
        "damage,di\n1,inf\n",
        "damage,di\n1,nan\n",
        "damage,di\n1,2\n3,\xe9\n",
        "",
    ],
)
def test_each_kind_of_table_reads_as_the_line_loop(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode("latin-1"))
    expected = _table_outcome(_read_table_before, path)
    assert _table_outcome(read_csv_table, path) == expected


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_well_formed_table_never_walks_its_lines(tmp_path, rng, monkeypatch, newline):
    # the walk converts cell by cell through _text_number; one array does not
    monkeypatch.setattr(damage_index, "_text_number", None)
    dataset = DiDataset(rng.normal(size=(5, 2)), rng.normal(size=5), ["damage", "load"])
    lines = di_to_csv_text(dataset, comment="kind=rmsd").split("\n")
    lines[2:2] = ["", "  # a comment", " "]  # blank and comment lines inside the table
    lines[5] = " " + lines[5] + "\t"  # the first row, padded
    path = tmp_path / "table.csv"
    path.write_bytes(newline.join(lines).encode("ascii"))
    names, rows = read_csv_table(path, DI_HEADERS)
    assert names == ["damage", "load", "di"]
    assert rows.tobytes() == np.column_stack([dataset.inputs, dataset.targets]).tobytes()
