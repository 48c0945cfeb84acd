"""End-to-end CLI pipeline tests: simulate -> di -> train -> predict -> report."""

import json
import os

import numpy as np
import pytest

from gwquant.cli import main, parse_config, split_dataset
from gwquant.damage_index import DiDataset, read_di_csv
from gwquant.errors import InvalidArgumentError
from gwquant.kernels import KernelParams
from gwquant.persist import save_model
from gwquant.vhgpr import VhgprModel, VhgprState

BASE_CONFIG = """
# synthetic test-rig configuration
simulation.center_frequency = 50e3
simulation.n_cycles = 5
simulation.burst_amplitude = 1.0
simulation.sample_rate = 1e6
simulation.path_delay = 20e-6
simulation.damage_attenuation_coeff = 0.12
simulation.damage_delay_coeff = 2e-6
simulation.load_delay_coeff = 1e-6
simulation.noise_floor_std = 0.003
simulation.n_samples = 300
simulation.n_replicates = 6
simulation.rng_seed = 11
simulation.damage_grid = 0 1 2 3 4
simulation.load_grid = 0 5
di.kind = rmsd
di.n_use = 300
train.model_kind = sgpr
train.train_fraction = 0.5
train.restarts = 2
train.seed = 11
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text(BASE_CONFIG)
    return str(path)


def run(*argv):
    return main([str(a) for a in argv])


def read_bytes_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestParseConfig:
    def test_round_trip_of_base_config(self):
        config = parse_config(BASE_CONFIG)
        assert config.simulation.center_frequency == 50e3
        assert config.damage_grid == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert config.load_grid == [0.0, 5.0]
        assert config.train.train_fraction == 0.5
        assert config.di.kind == "rmsd"

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidArgumentError, match="unknown keys"):
            parse_config("simulation.bogus = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(InvalidArgumentError, match="unknown sections"):
            parse_config("nosuch.key = 3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(InvalidArgumentError, match="line 2"):
            parse_config("\njust some words\n")

    def test_train_fraction_validated(self):
        with pytest.raises(InvalidArgumentError):
            parse_config("train.train_fraction = 1.5\n")

    def test_mistyped_value_names_its_line(self):
        with pytest.raises(InvalidArgumentError, match="line 3: train.restarts must be an integer"):
            parse_config("# header\ntrain.seed = 4\ntrain.restarts = 2.5\n")


class TestSplitDataset:
    def make_dataset(self, reps=6, states=4):
        inputs = np.repeat(np.arange(float(states)), reps).reshape(-1, 1)
        targets = np.arange(inputs.shape[0], dtype=float)
        return DiDataset(inputs, targets, ["damage"])

    def test_ceil_rule_per_state(self):
        dataset = self.make_dataset(reps=5, states=3)
        train, test = split_dataset(dataset, 0.5, seed=0)
        # ceil(0.5 * 5) = 3 per state
        assert train.n == 9
        assert test.n == 6

    def test_every_state_keeps_a_heldout_replicate(self):
        dataset = self.make_dataset(reps=2, states=4)
        train, test = split_dataset(dataset, 0.9, seed=1)
        for d in range(4):
            assert np.sum(test.inputs[:, 0] == d) >= 1
            assert np.sum(train.inputs[:, 0] == d) >= 1

    def test_split_is_seeded_and_disjoint(self):
        dataset = self.make_dataset()
        t1, h1 = split_dataset(dataset, 0.5, seed=3)
        t2, h2 = split_dataset(dataset, 0.5, seed=3)
        assert np.array_equal(t1.targets, t2.targets)
        merged = sorted(np.concatenate([t1.targets, h1.targets]).tolist())
        assert merged == dataset.targets.tolist()


class TestSimulate:
    def test_manifest_counts_grid_cells(self, tmp_path):
        config = tmp_path / "sim.cfg"
        config.write_text(
            BASE_CONFIG.replace("load_grid = 0 5", "load_grid = 0 5 10 15").replace(
                "n_replicates = 6", "n_replicates = 20"
            )
        )
        workdir = tmp_path / "out"
        assert run("simulate", "--config", config, "--workdir", workdir) == 0
        lines = (workdir / "manifest.csv").read_text().strip().splitlines()
        rows = [ln for ln in lines if ln and not ln.startswith(("#", "damage,"))]
        assert len(rows) == 20  # 5 damages x 4 loads
        assert sum(int(r.split(",")[2]) for r in rows) == 400

    def test_rerun_is_byte_identical(self, tmp_path, config_file):
        w1, w2 = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", config_file, "--workdir", w1) == 0
        assert run("simulate", "--config", config_file, "--workdir", w2) == 0
        assert read_bytes_tree(w1) == read_bytes_tree(w2)

    def test_unwritable_workdir_reports_path(self, tmp_path, config_file, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        target = blocker / "nested"
        assert run("simulate", "--config", config_file, "--workdir", target) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "blocker" in err

    def test_grid_values_equal_to_six_digits_get_their_own_files(self, tmp_path):
        config = tmp_path / "close.cfg"
        config.write_text(
            BASE_CONFIG.replace("damage_grid = 0 1 2 3 4", "damage_grid = 0 1.0000001 1.0000002")
            .replace("load_grid = 0 5", "load_grid = 0")
            .replace("n_replicates = 6", "n_replicates = 2")
        )
        workdir = tmp_path / "out"
        assert run("simulate", "--config", config, "--workdir", workdir) == 0
        lines = (workdir / "manifest.csv").read_text().strip().splitlines()
        names = [ln.split(",")[3] for ln in lines if not ln.startswith(("#", "damage,"))]
        assert len(set(names)) == 3
        assert all((workdir / name).exists() for name in names)
        out = tmp_path / "di.csv"
        assert run("di", "--config", config, "--workdir", workdir, "--out", out) == 0
        damages = read_di_csv(out).inputs[:, 0].tolist()
        assert [damages.count(d) for d in (0.0, 1.0000001, 1.0000002)] == [2, 2, 2]

    def test_env_seed_overrides_config(self, tmp_path, config_file, monkeypatch):
        w1, w2, w3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run("simulate", "--config", config_file, "--workdir", w1)
        monkeypatch.setenv("GWQUANT_SEED", "99")
        run("simulate", "--config", config_file, "--workdir", w2)
        monkeypatch.delenv("GWQUANT_SEED")
        run("simulate", "--config", config_file, "--workdir", w3, "--seed", "99")
        assert read_bytes_tree(w1) != read_bytes_tree(w2)
        assert read_bytes_tree(w2) == read_bytes_tree(w3)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One simulated workdir + DI datasets + trained model for reuse."""
    root = tmp_path_factory.mktemp("pipeline")
    config = root / "pipeline.cfg"
    config.write_text(BASE_CONFIG)
    workdir = root / "out"
    assert run("simulate", "--config", config, "--workdir", workdir) == 0
    di_csv = root / "di.csv"
    assert (
        run(
            "di", "--config", config, "--workdir", workdir,
            "--policy", "class1", "--out", di_csv,
        )
        == 0
    )
    model_file = root / "model.json"
    assert (
        run(
            "train", "--config", config, "--di-file", di_csv,
            "--model-file", model_file,
        )
        == 0
    )
    return {
        "root": root,
        "config": str(config),
        "workdir": str(workdir),
        "di_csv": str(di_csv),
        "model_file": str(model_file),
    }


class TestDiAndTrain:
    def test_di_csv_has_expected_shape(self, pipeline):
        dataset = read_di_csv(pipeline["di_csv"])
        assert dataset.column_names == ["damage", "load"]
        assert dataset.n == 60  # 5 damages x 2 loads x 6 replicates

    def test_train_prints_metrics_and_persists(self, pipeline, capsys):
        heldout = read_di_csv(pipeline["model_file"] + ".heldout.csv")
        assert heldout.n == 30
        assert run("evaluate", "--model-file", pipeline["model_file"],
                   "--di-file", pipeline["model_file"] + ".heldout.csv") == 0
        out = capsys.readouterr().out
        assert "nmse=" in out and "rss_sss_percent=" in out
        nmse = float(out.split("nmse=")[1].split()[0])
        assert nmse < 0.05

    def test_both_classes_policy_emits_switch_column(self, pipeline, tmp_path):
        out = tmp_path / "both.csv"
        assert (
            run(
                "di", "--config", pipeline["config"], "--workdir", pipeline["workdir"],
                "--policy", "both", "--out", out,
            )
            == 0
        )
        dataset = read_di_csv(out)
        assert dataset.column_names == ["damage", "load", "switch"]
        assert dataset.n == 120

    def test_train_rerun_writes_identical_model(self, pipeline, tmp_path):
        other = tmp_path / "model2.json"
        with open(pipeline["di_csv"], "rb") as fh:
            di_before = fh.read()
        assert (
            run(
                "train", "--config", pipeline["config"],
                "--di-file", pipeline["di_csv"], "--model-file", other,
            )
            == 0
        )
        with open(pipeline["model_file"], "rb") as fh:
            first = fh.read()
        with open(other, "rb") as fh:
            second = fh.read()
        assert first == second
        # inputs are never mutated
        with open(pipeline["di_csv"], "rb") as fh:
            assert fh.read() == di_before


class TestPredict:
    def test_single_state_json_contract(self, pipeline, tmp_path, capsys):
        di = read_di_csv(pipeline["di_csv"])
        row = int(np.argmax(di.inputs[:, 0] == 3.0))
        test_di = di.targets[row]
        out = tmp_path / "pred.json"
        code = run(
            "predict", "--model-file", pipeline["model_file"],
            "--test-di", test_di, "--known-load", di.inputs[row, 1], "--out", out,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"test_di", "argmax", "low_confidence", "probabilities"}
        assert payload["argmax"]["damage"] == 3.0
        assert not payload["low_confidence"]
        assert all(0.0 <= p["p"] <= 1.0 for p in payload["probabilities"])

    def test_grid_refine_adds_candidates(self, pipeline, capsys):
        code = run(
            "predict", "--model-file", pipeline["model_file"],
            "--test-di", 0.01, "--known-load", 0, "--grid-refine", 3,
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["probabilities"]) == 5 + 4 * 3

    def test_schema_mismatch_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "gwquant.sgpr.v999"}))
        code = run("predict", "--model-file", bad, "--test-di", 0.0)
        assert code == 1
        assert "schema" in capsys.readouterr().err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["predict"])  # missing --model-file
        assert excinfo.value.code == 2

    def test_non_json_model_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "garbage.json"
        bad.write_text("damage,load\n0,0\n")
        assert run("predict", "--model-file", bad, "--test-di", 0.0) == 1
        assert "schema" in capsys.readouterr().err.lower()

    def test_test_di_file_emits_json_array(self, pipeline, tmp_path):
        di = read_di_csv(pipeline["di_csv"])
        subset_rows = [0, 6, 12]
        lines = ["damage,load,di"] + [
            f"{di.inputs[r, 0]:.17g},{di.inputs[r, 1]:.17g},{di.targets[r]:.17g}"
            for r in subset_rows
        ]
        di_file = tmp_path / "batch.csv"
        di_file.write_text("\n".join(lines) + "\n")
        out = tmp_path / "batch.json"
        assert (
            run(
                "predict", "--model-file", pipeline["model_file"],
                "--test-di-file", di_file, "--known-load", 0, "--out", out,
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert isinstance(payload, list) and len(payload) == 3
        assert all("argmax" in p for p in payload)

    def test_one_row_test_di_file_emits_one_table(self, pipeline, tmp_path, capsys):
        di_file = _write(tmp_path, "one.csv", "damage,di\n0,0.5\n")
        assert (
            run(
                "predict", "--model-file", pipeline["model_file"],
                "--test-di-file", di_file, "--known-load", 0,
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, dict) and payload["test_di"] == 0.5

    def test_vhgpr_model_through_cli(self, pipeline, tmp_path, capsys):
        model_file = tmp_path / "vhgpr.json"
        assert (
            run(
                "train", "--config", pipeline["config"], "--di-file", pipeline["di_csv"],
                "--model", "vhgpr", "--model-file", model_file,
            )
            == 0
        )
        assert (
            run("evaluate", "--model-file", model_file,
                "--di-file", str(model_file) + ".heldout.csv")
            == 0
        )
        out = capsys.readouterr().out
        nmse = float(out.rsplit("nmse=")[-1].split()[0])
        assert nmse < 0.05

    def test_crosstalk_blanking_via_config(self, tmp_path):
        config = tmp_path / "cfg"
        config.write_text(BASE_CONFIG + "simulation.crosstalk_blank_samples = 8\n")
        workdir = tmp_path / "out"
        assert run("simulate", "--config", config, "--workdir", workdir) == 0
        from gwquant.signals import read_signals_csv

        signals = read_signals_csv(workdir / "signals_d0_L0.csv")
        assert all(np.all(s.samples[:8] == 0.0) for s in signals)


class TestReport:
    def test_box_and_error_csvs(self, pipeline, tmp_path):
        di = read_di_csv(pipeline["di_csv"])
        preds = []
        truth_lines = ["damage"]
        for row in range(0, di.n, 3):
            out = tmp_path / f"p{row}.json"
            assert (
                run(
                    "predict", "--model-file", pipeline["model_file"],
                    "--test-di", di.targets[row], "--known-load", di.inputs[row, 1],
                    "--out", out,
                )
                == 0
            )
            preds.append(json.loads(out.read_text()))
            truth_lines.append(f"{di.inputs[row, 0]:.17g}")
        pred_file = tmp_path / "preds.json"
        pred_file.write_text(json.dumps(preds))
        true_file = tmp_path / "truth.csv"
        true_file.write_text("\n".join(truth_lines) + "\n")

        box_out = tmp_path / "box.csv"
        err_out = tmp_path / "errors.csv"
        assert (
            run(
                "report", "--pred-file", pred_file, "--true-file", true_file,
                "--box-out", box_out, "--errors-out", err_out,
            )
            == 0
        )
        box_lines = box_out.read_text().strip().splitlines()
        assert box_lines[0] == "state,median,q25,q75,lo_whisk,hi_whisk,outliers"
        assert len(box_lines) == 1 + 5  # one box per damage state
        err_lines = err_out.read_text().strip().splitlines()
        assert err_lines[0] == "true_damage,true_load,pred_damage,pred_load,err_damage,err_load"
        assert len(err_lines) == 1 + len(preds)
        # mostly correct on well-separated synthetic data
        errors = [float(ln.split(",")[4]) for ln in err_lines[1:]]
        assert np.mean(np.abs(errors) < 0.5) >= 0.8


class TestTwoStateCli:
    def test_two_state_prediction_flow(self, tmp_path):
        config = tmp_path / "cfg"
        config.write_text(
            BASE_CONFIG.replace("noise_floor_std = 0.003", "noise_floor_std = 0")
            .replace("n_replicates = 6", "n_replicates = 2")
            .replace("di.kind = rmsd", "di.kind = rmsd")
        )
        workdir = tmp_path / "out"
        assert run("simulate", "--config", config, "--workdir", workdir) == 0
        di_csv = tmp_path / "both.csv"
        assert (
            run("di", "--config", config, "--workdir", workdir,
                "--policy", "both", "--out", di_csv)
            == 0
        )
        model_file = tmp_path / "model.json"
        assert (
            run("train", "--config", config, "--di-file", di_csv,
                "--model-file", model_file, "--train-fraction", "0.5")
            == 0
        )
        # fabricate the two-state test DI file for the (damage=2, load=5) truth
        dataset = read_di_csv(di_csv)
        class1 = dataset.inputs[:, 2] == 1.0
        class2 = dataset.inputs[:, 2] == 2.0
        lines = ["class,ref_load,ref_damage,di"]
        mask = class1 & (dataset.inputs[:, 0] == 2.0) & (dataset.inputs[:, 1] == 5.0)
        di_val = dataset.targets[mask][0]
        for ref_load in (0.0, 5.0):
            lines.append(f"1,{ref_load},0,{di_val:.17g}")
        for damage in (0.0, 1.0, 2.0, 3.0, 4.0):
            m2 = class2 & (dataset.inputs[:, 0] == damage) & (dataset.inputs[:, 1] == 5.0)
            lines.append(f"2,0,{damage},{dataset.targets[m2][0]:.17g}")
        di_file = tmp_path / "twostate.csv"
        di_file.write_text("\n".join(lines) + "\n")

        out = tmp_path / "pred.json"
        assert (
            run("predict", "--model-file", model_file, "--two-state",
                "--test-di-file", di_file, "--out", out)
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["argmax"]["damage"] == 2.0
        assert payload["argmax"]["load"] == 5.0


def _train_argv(pipeline, tmp_path, *extra):
    return [
        "train", "--config", pipeline["config"], "--di-file", pipeline["di_csv"],
        "--model-file", tmp_path / "model.json", *extra,
    ]


def _edited_model(model_file, tmp_path, drop=None, **values):
    """predict argv on a copy of model_file without key drop and with values set."""
    with open(model_file) as fh:
        payload = json.load(fh)
    payload.pop(drop, None)
    payload.update(values)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    return ["predict", "--model-file", path, "--test-di", 0.0]


def _vhgpr_model_file(tmp_path):
    x = np.repeat(np.arange(3.0), 2).reshape(-1, 1)
    y = 0.1 * x.ravel()
    kernel = KernelParams(0.0, [0.0])
    state = VhgprState(kernel, kernel, -3.0, np.full(x.shape[0], 0.5))
    path = tmp_path / "vhgpr.json"
    save_model(path, VhgprModel.from_state(state, x, y))
    return path


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _config_with(tmp_path, line):
    return _write(tmp_path, "extra.cfg", BASE_CONFIG + line + "\n")


# line number of the line _config_with appends
EXTRA_LINE = len(BASE_CONFIG.splitlines()) + 1


def _di_argv_with(pipeline, tmp_path, line):
    return [
        "di", "--config", _config_with(tmp_path, line), "--workdir", pipeline["workdir"],
        "--out", tmp_path / "di.csv",
    ]


def _cell_di_argv(tmp_path, samples, *flags):
    """di argv on a one-cell workdir: one healthy signal per samples text."""
    workdir = tmp_path / "cell"
    workdir.mkdir()
    _write(workdir, "manifest.csv", f"damage,load,n_signals,file\n0,0,{len(samples)},cell.csv\n")
    sections = [
        f"# signal damage=0 load=0 replicate={rep} role=test sample_rate=1e6\n{text}"
        for rep, text in enumerate(samples)
    ]
    _write(workdir, "cell.csv", "\n".join(sections))
    return ["di", "--workdir", workdir, "--out", tmp_path / "di.csv", *flags]


def _report_argv(tmp_path, preds, truth):
    return [
        "report", "--pred-file", _write(tmp_path, "preds.json", preds),
        "--true-file", _write(tmp_path, "truth.csv", truth),
        "--box-out", tmp_path / "box.csv", "--errors-out", tmp_path / "errors.csv",
    ]


# case -> (argv builder, fragment the single error line must contain)
BAD_INPUTS = {
    "restarts-0": (
        lambda p, t: _train_argv(p, t, "--restarts", 0), "n_restarts must be >= 1"
    ),
    "train-fraction-0": (
        lambda p, t: _train_argv(p, t, "--train-fraction", 0), "train_fraction"
    ),
    "n-use-0": (
        lambda p, t: [
            "di", "--config", p["config"], "--workdir", p["workdir"],
            "--n-use", 0, "--out", t / "di.csv",
        ],
        "n_use must be >= 1",
    ),
    "two-state-class-3": (
        lambda p, t: [
            "predict", "--model-file", p["model_file"], "--two-state", "--test-di-file",
            _write(t, "two.csv", "class,ref_load,ref_damage,di\n1,0,0,0.1\n3,0,1,0.2\n"),
        ],
        "class must be 1 or 2",
    ),
    "non-numeric-grid": (
        lambda p, t: [
            "simulate", "--workdir", t / "out", "--config",
            _write(t, "cfg", BASE_CONFIG.replace("damage_grid = 0 1 2", "damage_grid = 0 1 two")),
        ],
        "simulation.damage_grid must be space-separated numbers",
    ),
    "sgpr-model-lacks-kernel": (
        lambda p, t: _edited_model(p["model_file"], t, drop="kernel"), "lacks key 'kernel'"
    ),
    "vhgpr-model-lacks-mu0": (
        lambda p, t: _edited_model(_vhgpr_model_file(t), t, drop="mu0"), "lacks key 'mu0'"
    ),
    "empty-truth-file": (
        lambda p, t: _report_argv(t, "[]", "# no rows\n"), "expected header"
    ),
    "config-unknown-policy": (
        lambda p, t: _di_argv_with(p, t, "di.policy = bogus"),
        f"config line {EXTRA_LINE}: di.policy must be one of class1, class2, both, fixed",
    ),
    "config-n-use-0": (
        lambda p, t: _di_argv_with(p, t, "di.n_use = 0"),
        f"config line {EXTRA_LINE}: n_use must be >= 1",
    ),
    "config-train-fraction-1": (
        lambda p, t: [
            "train", "--config", _config_with(t, "train.train_fraction = 1"),
            "--di-file", p["di_csv"], "--model-file", t / "model.json",
        ],
        f"config line {EXTRA_LINE}: train_fraction must be in (0, 1)",
    ),
    "config-n-samples-0": (
        lambda p, t: [
            "simulate", "--config", _config_with(t, "simulation.n_samples = 0"),
            "--workdir", t / "out",
        ],
        f"config line {EXTRA_LINE}: n_samples must be >= 1",
    ),
    "config-unknown-key": (
        lambda p, t: _di_argv_with(p, t, "simulation.bogus = 1"),
        f"config line {EXTRA_LINE}: section 'simulation' has unknown keys ['bogus']",
    ),
    "config-unknown-section": (
        lambda p, t: _di_argv_with(p, t, "nosuch.key = 3"),
        f"config line {EXTRA_LINE}: unknown sections ['nosuch']",
    ),
    "as-written-zero-baseline-sample": (
        lambda p, t: _cell_di_argv(
            t, ["0\n1\n2\n", "0\n2\n1\n"], "--kind", "normalized", "--mode", "as-written"
        ),
        "DegenerateSignalError: as_written mode divides by the baseline per index",
    ),
    "signal-file-nan-sample": (
        lambda p, t: _cell_di_argv(t, ["1\n2\n", "1\nnan\n"]),
        "cell.csv: line 5: signal section (damage=0, load=0, replicate=1): samples must be finite",
    ),
    "config-n-use-not-integer": (
        lambda p, t: _di_argv_with(p, t, "di.n_use = abc"),
        "di.n_use must be an integer",
    ),
    "config-restarts-not-integer": (
        lambda p, t: [
            "train", "--config", _config_with(t, "train.restarts = 2.5"),
            "--di-file", p["di_csv"], "--model-file", t / "model.json",
        ],
        "train.restarts must be an integer",
    ),
    "config-grid-refine-not-integer": (
        lambda p, t: [
            "predict", "--config", _config_with(t, "quantify.grid_refine = x"),
            "--model-file", p["model_file"], "--test-di", 0.0,
        ],
        "quantify.grid_refine must be an integer",
    ),
    "seed-env-not-integer": (
        lambda p, t: _train_argv(p, t), "GWQUANT_SEED must be an integer"
    ),
    "header-only-di-file": (
        lambda p, t: [
            "evaluate", "--model-file", p["model_file"],
            "--di-file", _write(t, "di.csv", "damage,di\n"),
        ],
        "at least 2 rows",
    ),
    "one-row-di-file": (
        lambda p, t: [
            "train", "--di-file", _write(t, "one.csv", "damage,di\n0,0.5\n"),
            "--model-file", t / "model.json",
        ],
        "one.csv: a DI dataset needs at least 2 rows",
    ),
    "header-only-test-di-file": (
        lambda p, t: [
            "predict", "--model-file", p["model_file"], "--known-load", 0,
            "--test-di-file", _write(t, "test.csv", "damage,load,di\n"),
        ],
        "test.csv: no test DI rows",
    ),
    "truth-row-too-long": (
        lambda p, t: _report_argv(
            t, json.dumps([{"argmax": {"damage": 1.0, "load": 2.0}}]), "damage,load\n1,2,3\n"
        ),
        "cells",
    ),
    "prediction-without-argmax": (
        lambda p, t: _report_argv(t, json.dumps([{"test_di": 0.1}]), "damage\n1\n"),
        "prediction 0 has no numeric argmax",
    ),
    "two-state-on-1d-model": (
        lambda p, t: [
            "predict", "--model-file", _vhgpr_model_file(t), "--two-state", "--test-di-file",
            _write(t, "two.csv", "class,ref_load,ref_damage,di\n1,0,0,0.1\n2,0,1,0.2\n"),
        ],
        "(damage, load, switch)",
    ),
    "model-schema-is-list": (
        lambda p, t: _edited_model(p["model_file"], t, schema=[1]), "unsupported model schema"
    ),
    "model-kernel-is-number": (
        lambda p, t: _edited_model(p["model_file"], t, kernel=3), "malformed 'kernel'"
    ),
    "model-train-inputs-is-text": (
        lambda p, t: _edited_model(p["model_file"], t, train_inputs="abc"),
        "malformed 'train_inputs'",
    ),
    "model-targets-fewer-than-inputs": (
        lambda p, t: _edited_model(p["model_file"], t, train_targets=[0.1]), "but 1 targets"
    ),
}

# case -> environment variables set while the case runs
BAD_ENV = {"seed-env-not-integer": {"GWQUANT_SEED": "abc"}}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_one_with_one_error_line(case, pipeline, tmp_path, capsys, monkeypatch):
    build_argv, fragment = BAD_INPUTS[case]
    argv = build_argv(pipeline, tmp_path)
    for name, value in BAD_ENV.get(case, {}).items():
        monkeypatch.setenv(name, value)
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and fragment in err[0]
