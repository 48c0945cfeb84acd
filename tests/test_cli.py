"""End-to-end CLI pipeline tests: simulate -> di -> train -> predict -> report."""

import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gwquant import cli, persist
from gwquant.cli import build_parser, main, parse_config, split_dataset
from gwquant.damage_index import DiDataset, read_di_csv
from gwquant.errors import InvalidArgumentError
from gwquant.kernels import KernelParams
from gwquant.persist import load_model, save_model
from gwquant.quantify import StateGrid
from gwquant.sgpr import SgprModel
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


def test_readme_walkthrough_matches_config_keys_and_flags():
    # a README that names a key or flag the program no longer has fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    walkthrough = readme.split("\n## Pipeline walkthrough\n", 1)[1].split("\n## ", 1)[0]
    blocks = dict(re.findall(r"```(\w*)\n(.*?)```", walkthrough, re.S))
    parse_config(blocks[""])
    lines = blocks["sh"].replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.strip()]
    assert [argv[:2] for argv in commands] == [
        ["gwquant", name] for name in ("simulate", "di", "train", "predict", "evaluate", "report")
    ]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


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


class TestSettingsFlags:
    """Every key of a command's sections has a flag, which sets it as the key would."""

    def test_simulation_flags_write_what_their_keys_write(self, tmp_path):
        by_flag, by_key = tmp_path / "flag", tmp_path / "key"
        base = "simulation.sample_rate = 1e6\nsimulation.n_replicates = 2\n"  # a 20-sample burst
        (tmp_path / "base.cfg").write_text(base)
        flags = ["--n-samples", "40", "--noise-floor-std", "0.01"]
        assert run("simulate", "--config", tmp_path / "base.cfg", "--workdir", by_flag, *flags) == 0
        keys = "simulation.n_samples = 40\nsimulation.noise_floor_std = 0.01\n"
        (tmp_path / "keys.cfg").write_text(base + keys)
        assert run("simulate", "--config", tmp_path / "keys.cfg", "--workdir", by_key) == 0
        assert read_bytes_tree(by_flag) == read_bytes_tree(by_key)
        from gwquant.signals import read_signals_csv

        assert {len(s) for s in read_signals_csv(by_flag / "signals_d1_L5.csv")} == {40}

    @pytest.mark.parametrize("command", sorted(cli._COMMAND_SECTIONS))
    def test_help_names_every_key_of_the_command(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        keys = [
            f"{section}.{f.name}"
            for section in cli._COMMAND_SECTIONS[command]
            for f in fields(cli._SECTIONS[section])
        ]
        assert [key for key in keys if key not in out.split()] == []


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

    def test_mode_flag_takes_both_spellings(self, pipeline, tmp_path):
        outputs = []
        for mode in ("as-written", "as_written"):
            out = tmp_path / f"{mode}.csv"
            argv = ["di", "--workdir", pipeline["workdir"], "--kind", "normalized", "--out", out]
            assert run(*argv, "--config", pipeline["config"], "--mode", mode) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

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

    @staticmethod
    def _payloads(monkeypatch):
        """The _table_to_json payloads of the next predict, as an indented file held them."""
        payloads, to_json = [], cli._table_to_json

        def recorded(table):
            payloads.append(to_json(table))
            return payloads[-1]

        monkeypatch.setattr(cli, "_table_to_json", recorded)
        return lambda: [json.loads(json.dumps(p, indent=1, sort_keys=True)) for p in payloads]

    def test_single_di_prints_one_compact_line_with_sorted_keys(
        self, pipeline, capsys, monkeypatch
    ):
        payloads = self._payloads(monkeypatch)
        argv = ("--model-file", pipeline["model_file"], "--test-di", 0.02, "--known-load", 0)
        assert run("predict", *argv) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        assert [json.loads(out)] == payloads()
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"

    def test_batch_file_is_one_compact_line_with_sorted_keys(
        self, pipeline, tmp_path, capsys, monkeypatch
    ):
        dis = tmp_path / "dis.csv"
        dis.write_text("damage,di\n0,0.01\n2,0.04\n4,0.09\n")
        out = tmp_path / "batch.json"
        payloads = self._payloads(monkeypatch)
        code = run(
            "predict", "--model-file", pipeline["model_file"], "--test-di-file", dis,
            "--known-load", 5, "--out", out,
        )
        assert code == 0 and capsys.readouterr().out == ""
        text = out.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.loads(text) == payloads() and len(payloads()) == 3
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

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

    def test_center_targets_flag_alone_means_true(self):
        argv = ["train", "--di-file", "d.csv", "--model-file", "m.json", "--center-targets"]
        assert build_parser().parse_args(argv).center_targets == "true"

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


class TestOneParserPerProcess:
    """main builds its parser once; no call may see a flag of an earlier call."""

    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_a_command_replaced_after_the_first_call_is_the_one_run(self, tmp_path, monkeypatch):
        argv = ["evaluate", "--model-file", str(tmp_path / "none.json"), "--di-file", "x.csv"]
        assert main(argv) == 1  # the parser is built by now, with the real command
        ran = []
        monkeypatch.setattr(cli, "cmd_evaluate", lambda args: ran.append(args.model_file) or 0)
        assert main(argv) == 0
        assert ran == [str(tmp_path / "none.json")]

    def test_successive_calls_keep_no_flags(self, pipeline, tmp_path, monkeypatch, capsys):
        seen = []
        config = cli._config

        def spy(args):
            seen.append(dict(vars(args)))
            return config(args)

        monkeypatch.setattr(cli, "_config", spy)
        centered, plain = tmp_path / "centered.json", tmp_path / "plain.json"
        for model_file, flags in ((centered, ["--center-targets"]), (plain, [])):
            argv = [
                "train", "--config", pipeline["config"], "--di-file", pipeline["di_csv"],
                "--model-file", model_file, *flags,
            ]
            assert run(*argv) == 0
        assert [a["center_targets"] for a in seen] == ["true", None]
        assert load_model(centered).target_offset != 0.0
        assert load_model(plain).target_offset == 0.0

        # a two-state request on a (damage, load, switch) model, then a single DI
        x = np.array([[d, w, s] for d in (0.0, 1.0, 2.0) for w in (0.0, 5.0) for s in (1.0, 2.0)])
        y = 0.1 * x[:, 0] + 0.01 * x[:, 1] + 0.05 * x[:, 2]
        state = VhgprState(
            KernelParams(0.0, [0.0, 1.5, 0.0]), KernelParams(0.0, [0.0] * 3), -5.0,
            np.full(y.size, 0.5),
        )
        switch_model = tmp_path / "switch.json"
        save_model(switch_model, VhgprModel.from_state(state, x, y))
        two = _write(
            tmp_path, "two.csv",
            "class,ref_load,ref_damage,di\n1,0,0,0.15\n1,5,0,0.2\n2,0,0,0.3\n2,0,1,0.2\n",
        )
        capsys.readouterr()
        two_state = ["--two-state", "--test-di-file", two]
        assert run("predict", "--model-file", switch_model, *two_state) == 0
        assert "step1_reference_load" in json.loads(capsys.readouterr().out)
        single = ["--test-di", 0.05, "--known-load", 0]
        assert run("predict", "--model-file", pipeline["model_file"], *single) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"test_di", "argmax", "low_confidence", "probabilities"}
        assert [a["two_state"] for a in seen[2:]] == [True, False]


class TestModelMemo:
    """main builds each distinct model text once per process, and is none the worse."""

    @pytest.fixture(autouse=True)
    def cold_memo(self, monkeypatch):
        monkeypatch.setattr(persist, "_model_memo", {})

    @pytest.mark.parametrize("kind", ["sgpr", "vhgpr"])
    def test_predict_writes_the_same_bytes_on_a_cold_and_a_warm_memo(
        self, kind, pipeline, tmp_path
    ):
        if kind == "sgpr":
            model, known = pipeline["model_file"], ["--known-load", 5]
        else:
            model, known = _vhgpr_model_file(tmp_path), []
        batch = _write(tmp_path, "batch.csv", "damage,di\n0,0.01\n2,0.04\n4,0.09\n")
        requests = {"single": ["--test-di", 0.05], "batch": ["--test-di-file", batch]}
        outputs = {}
        for memo in ("cold", "warm"):
            for request, flags in requests.items():
                out = tmp_path / f"{memo}-{request}.json"
                assert run("predict", "--model-file", model, *flags, *known, "--out", out) == 0
                outputs[memo, request] = out.read_bytes()
        assert len(persist._model_memo) == 1
        for request in requests:
            assert outputs["cold", request] == outputs["warm", request]

    def test_a_request_leaves_the_kept_grid_unchanged(self, pipeline, capsys):
        model = load_model(pipeline["model_file"])
        kept = model._damage_grid
        states = list(kept.states)
        built = StateGrid.from_training_inputs(model.train_inputs, include_load=False)
        assert states == built.states
        argv = ("predict", "--model-file", pipeline["model_file"], "--test-di", 0.05)
        outputs = []
        for refine in (0, 3, 0):
            assert run(*argv, "--known-load", 5, "--grid-refine", refine) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert load_model(pipeline["model_file"])._damage_grid is kept
        assert kept.states == states
        assert outputs[0] == outputs[2]
        assert [len(out["probabilities"]) for out in outputs] == [5, 17, 5]

    def test_a_model_with_no_input_column_keeps_no_grid(self, pipeline, tmp_path, capsys):
        kernel = {"log_output_variance": 0.0, "log_length_scales": []}
        path = _edited_model(
            pipeline["model_file"], tmp_path, kernel=kernel, train_inputs=[[]],
            train_targets=[0.1],
        )[2]
        assert load_model(path)._damage_grid is None
        assert run("predict", "--model-file", path, "--test-di", 0.05) == 1
        assert "states must all be 1- or 2-tuples" in capsys.readouterr().err

    def test_a_rewritten_model_file_is_read_afresh(self, pipeline, tmp_path, capsys):
        path = tmp_path / "model.json"
        text = Path(pipeline["model_file"]).read_text()
        payload = json.loads(text)
        payload["log_noise_variance"] = 0.0  # noise that spreads the probabilities
        argv = ("predict", "--model-file", path, "--test-di", 0.05, "--known-load", 0)
        outputs = []
        for written in (text, json.dumps(payload), text):
            path.write_text(written)
            assert run(*argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1] and outputs[0] == outputs[2]

    def test_a_model_that_overflows_exits_one_after_a_library_load(
        self, pipeline, tmp_path, capsys
    ):
        argv = _length_scale_model(pipeline, tmp_path)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="overflow"):
            load_model(argv[2])
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: FloatingPointError: overflow")


@pytest.fixture(scope="module")
def pipeline_vhgpr(pipeline):
    """A VHGPR model trained on the pipeline's DI dataset."""
    model_file = pipeline["root"] / "vhgpr.json"
    argv = ["--config", pipeline["config"], "--di-file", pipeline["di_csv"]]
    assert run("train", *argv, "--model", "vhgpr", "--model-file", model_file) == 0
    return model_file


@pytest.mark.parametrize("kind", ["sgpr", "vhgpr"])
def test_a_batch_scores_each_di_as_a_single_request_does(
    kind, pipeline, pipeline_vhgpr, tmp_path, capsys, monkeypatch
):
    model = pipeline["model_file"] if kind == "sgpr" else pipeline_vhgpr
    # every training DI and every held-out one: many distinct nearest rows
    dis = [
        float(di)
        for path in (pipeline["di_csv"], pipeline["model_file"] + ".heldout.csv")
        for di in read_di_csv(path).targets
    ]
    batch = _write(tmp_path, "batch.csv", "damage,di\n" + "".join(f"0,{d!r}\n" for d in dis))
    for load in (0.0, 5.0):
        monkeypatch.setattr(persist, "_model_memo", {})  # no answer kept from elsewhere
        out = tmp_path / "batch.json"
        argv = ("predict", "--model-file", model, "--known-load", repr(load))
        assert run(*argv, "--test-di-file", batch, "--out", out) == 0
        tables = json.loads(out.read_text())
        assert len(tables) == len(dis)
        monkeypatch.setattr(persist, "_model_memo", {})  # the singles predict afresh
        capsys.readouterr()
        for di, table in zip(dis, tables):
            assert run(*argv, "--test-di", repr(di)) == 0
            assert json.loads(capsys.readouterr().out) == table


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


def _write(tmp_path, name, content):
    """tmp_path / name holding content, a str or the exact bytes."""
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
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


def _workdir_di_argv(tmp_path, files, *flags):
    """di argv on a workdir holding files, a dict of name -> text with manifest.csv."""
    workdir = tmp_path / "cell"
    workdir.mkdir()
    for name, text in files.items():
        _write(workdir, name, text)
    return ["di", "--workdir", workdir, "--out", tmp_path / "di.csv", *flags]


def _cell_di_argv(tmp_path, samples, *flags, manifest=None):
    """di argv on a one-cell workdir: one healthy signal per samples text.

    manifest, when given, replaces the manifest, which lists cell.csv once.
    """
    if manifest is None:
        manifest = f"damage,load,n_signals,file\n0,0,{len(samples)},cell.csv\n"
    sections = [
        f"# signal damage=0 load=0 replicate={rep} role=test sample_rate=1e6\n{text}"
        for rep, text in enumerate(samples)
    ]
    files = {"manifest.csv": manifest, "cell.csv": "\n".join(sections)}
    return _workdir_di_argv(tmp_path, files, *flags)


# a section at state (0, 0), with extra text at the end of its header
def _section(replicate=0, extra=""):
    return (
        f"# signal damage=0 load=0 replicate={replicate} role=test sample_rate=1e6{extra}\n"
        f"1\n{2 + replicate}\n"
    )


def _report_argv(tmp_path, preds, truth):
    return [
        "report", "--pred-file", _write(tmp_path, "preds.json", preds),
        "--true-file", _write(tmp_path, "truth.csv", truth),
        "--box-out", tmp_path / "box.csv", "--errors-out", tmp_path / "errors.csv",
    ]


# JSON nested deeper than the decoder's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000

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
    "di-file-not-ascii": (
        lambda p, t: [
            "evaluate", "--model-file", p["model_file"],
            "--di-file", _write(t, "di.csv", b"damage,load,di\n0,0,0.1\n1,0,\xc3\xa9\n"),
        ],
        "di.csv: line 3: not ASCII text",
    ),
    "two-state-file-not-ascii": (
        lambda p, t: [
            "predict", "--model-file", p["model_file"], "--two-state", "--test-di-file",
            _write(t, "two.csv", b"class,ref_load,ref_damage,di\n1,0,0,0.1 # \xe9\n"),
        ],
        "two.csv: line 2: not ASCII text",
    ),
    "truth-file-not-ascii": (
        lambda p, t: _report_argv(t, "[]", b"# \xc3\xa9\ndamage\n"),
        "truth.csv: line 1: not ASCII text",
    ),
    "config-comment-not-ascii": (
        lambda p, t: [
            "di", "--workdir", p["workdir"], "--out", t / "di.csv", "--config",
            _write(t, "extra.cfg", (BASE_CONFIG + "di.kind = rmsd # ").encode() + b"\xc3\xa9\n"),
        ],
        f"extra.cfg: line {EXTRA_LINE}: not ASCII text",
    ),
    "model-not-ascii": (
        lambda p, t: [
            "predict", "--test-di", 0.0, "--model-file",
            _write(t, "model.json", b'{\n "schema":\n  "\xc3\xa9"\n}\n'),
        ],
        "model.json: line 3: not ASCII text",
    ),
    "prediction-not-ascii": (
        lambda p, t: _report_argv(t, b'[\n {"argmax": "\xc3\xa9"}\n]\n', "damage\n1\n"),
        "preds.json: line 2: not ASCII text",
    ),
    "manifest-not-ascii": (
        lambda p, t: _cell_di_argv(
            t, ["1\n", "2\n"], manifest=b"# \xc3\xa9\ndamage,load,n_signals,file\n0,0,2,cell.csv\n"
        ),
        "manifest.csv: line 1: not ASCII text",
    ),
    "model-nested-too-deeply": (
        lambda p, t: ["predict", "--test-di", 0.0, "--model-file", _write(t, "m.json", DEEP_JSON)],
        "m.json: not a model file",
    ),
    "prediction-nested-too-deeply": (
        lambda p, t: _report_argv(t, DEEP_JSON, "damage\n1\n"),
        "preds.json: not a predictions file",
    ),
    "manifest-lists-a-file-twice": (
        lambda p, t: _cell_di_argv(
            t, ["1\n", "2\n"],
            manifest="damage,load,n_signals,file\n0,0,2,cell.csv\n0,0,2,cell.csv\n",
        ),
        "manifest.csv: line 3: cell.csv is listed again (first on line 2)",
    ),
    "manifest-count-differs-from-file": (
        lambda p, t: _cell_di_argv(
            t, ["1\n", "2\n"], manifest="damage,load,n_signals,file\n0,0,3,cell.csv\n"
        ),
        "manifest.csv: line 2: cell.csv holds 2 signals, the row lists 3",
    ),
    "manifest-state-differs-from-file": (
        lambda p, t: _cell_di_argv(
            t, ["1\n", "2\n"], manifest="damage,load,n_signals,file\n1,0,2,cell.csv\n"
        ),
        "manifest.csv: line 2: cell.csv holds a signal at (damage=0.0, load=0.0)",
    ),
    "model-number-too-large-for-a-double": (
        lambda p, t: _edited_model(p["model_file"], t, log_noise_variance=10**400),
        "malformed 'log_noise_variance'",
    ),
    "prediction-number-too-large-for-a-double": (
        lambda p, t: _report_argv(t, '[{"argmax": {"damage": 1%s}}]' % ("0" * 400), "damage\n1\n"),
        "prediction 0 has no numeric argmax damage",
    ),
    "signal-header-repeats-key": (
        lambda p, t: _workdir_di_argv(
            t, {"manifest.csv": "damage,load,n_signals,file\n0,0,2,cell.csv\n",
                "cell.csv": _section(0, " replicate=7") + "\n" + _section(1)},
        ),
        "cell.csv: line 1: header repeats key 'replicate'",
    ),
    "signal-header-unknown-key": (
        lambda p, t: _workdir_di_argv(
            t, {"manifest.csv": "damage,load,n_signals,file\n0,0,2,cell.csv\n",
                "cell.csv": _section(0, " bogus=1") + "\n" + _section(1)},
        ),
        "cell.csv: line 1: header has unknown key 'bogus'",
    ),
    "signal-header-negative-damage": (
        lambda p, t: _workdir_di_argv(
            t, {"manifest.csv": "damage,load,n_signals,file\n0,0,1,cell.csv\n",
                "cell.csv": _section().replace("damage=0", "damage=-1")},
        ),
        "cell.csv: line 1: header key 'damage': damage_size must be finite and >= 0",
    ),
    "signal-header-negative-load": (
        lambda p, t: _workdir_di_argv(
            t, {"manifest.csv": "damage,load,n_signals,file\n0,0,1,cell.csv\n",
                "cell.csv": _section().replace("load=0", "load=-5")},
        ),
        "cell.csv: line 1: header key 'load': load must be finite and >= 0",
    ),
    "workdir-repeats-a-signal": (
        lambda p, t: _workdir_di_argv(
            t, {"manifest.csv": "damage,load,n_signals,file\n0,0,2,cell.csv\n",
                "cell.csv": _section() + "\n" + _section()},
        ),
        "manifest.csv: line 2: cell.csv holds the signal (damage=0.0, load=0.0, replicate=0, "
        "role=test) again (first in cell.csv)",
    ),
    "workdir-repeats-a-signal-across-rows": (
        lambda p, t: _workdir_di_argv(
            t, {"manifest.csv": "damage,load,n_signals,file\n0,0,1,a.csv\n0,0,1,b.csv\n",
                "a.csv": _section(), "b.csv": _section()},
        ),
        "manifest.csv: line 3: b.csv holds the signal (damage=0.0, load=0.0, replicate=0, "
        "role=test) again (first in a.csv)",
    ),
    "as-written-subnormal-baseline-sample": (
        lambda p, t: _cell_di_argv(
            t, ["1e-320\n1\n2\n", "1\n2\n1\n"], "--kind", "normalized", "--mode", "as-written"
        ),
        "DI value must be finite",
    ),
}


def _predict_argv(p, *flags, model=None):
    return ["predict", "--model-file", model or p["model_file"], *flags]


def _simulate_argv(t, line):
    return ["simulate", "--config", _config_with(t, line), "--workdir", t / "out"]


def _two_state_argv(p, t, rows):
    path = _write(t, "two.csv", "class,ref_load,ref_damage,di\n" + rows)
    return _predict_argv(p, "--two-state", "--test-di-file", path)


def _switch_two_state_argv(t, *flags, extra_rows=""):
    """A --two-state argv on a small (damage, load, switch) model, then flags.

    Without extra_rows, rows appended to the two-state file, the argv is valid.
    """
    x = np.array([(d, w, c) for c in (1, 2) for d in (0, 1) for w in (0, 5)], dtype=float)
    y = np.linspace(0.1, 0.4, x.shape[0])
    model = t / "switch.json"
    save_model(model, SgprModel.from_hyperparams(KernelParams(0.0, np.zeros(3)), -4.0, x, y))
    rows = "1,0,0,0.1\n1,5,0,0.2\n2,0,0,0.1\n2,0,1,0.3\n" + extra_rows
    return [*_two_state_argv({"model_file": model}, t, rows), *flags]


def _length_scale_model(p, t):
    """predict argv on a copy of the model whose first log length scale is 1e300."""
    with open(p["model_file"]) as fh:
        kernel = json.load(fh)["kernel"]
    kernel["log_length_scales"][0] = 1e300
    return _edited_model(p["model_file"], t, kernel=kernel)


# each value from outside must be a finite number of the right type and pass
# its setting's checks, whether written as a flag, a config key or
# GWQUANT_SEED; and numpy's floating-point errors end in one line
BAD_INPUTS.update({
    "known-load-nan": (
        lambda p, t: _predict_argv(p, "--test-di", 0.1, "--known-load", "nan"),
        "--known-load must be a finite number, got 'nan'",
    ),
    "known-load-1e400": (
        lambda p, t: _predict_argv(p, "--test-di", 0.1, "--known-load", "1e400"),
        "--known-load must be a finite number, got '1e400'",
    ),
    "config-damage-grid-nan": (
        lambda p, t: _simulate_argv(t, "simulation.damage_grid = 0 nan"),
        f"config line {EXTRA_LINE}: simulation.damage_grid must be space-separated numbers",
    ),
    "config-damage-grid-1e400": (
        lambda p, t: _simulate_argv(t, "simulation.damage_grid = 0 1e400"),
        f"config line {EXTRA_LINE}: simulation.damage_grid must be space-separated numbers",
    ),
    "config-low-confidence-threshold-nan": (
        lambda p, t: [
            "predict", "--config", _config_with(t, "quantify.low_confidence_threshold = nan"),
            "--model-file", p["model_file"], "--test-di", 0.0,
        ],
        "quantify.low_confidence_threshold must be a finite number",
    ),
    "config-low-confidence-threshold-inf": (
        lambda p, t: [
            "predict", "--config", _config_with(t, "quantify.low_confidence_threshold = inf"),
            "--model-file", p["model_file"], "--test-di", 0.0,
        ],
        "quantify.low_confidence_threshold must be a finite number",
    ),
    "config-low-confidence-threshold-above-1": (
        lambda p, t: [
            "predict", "--config", _config_with(t, "quantify.low_confidence_threshold = 2"),
            "--model-file", p["model_file"], "--test-di", 0.0,
        ],
        f"config line {EXTRA_LINE}: low_confidence_threshold must be in [0, 1]",
    ),
    "config-grid-refine-negative": (
        lambda p, t: [
            "predict", "--config", _config_with(t, "quantify.grid_refine = -3"),
            "--model-file", p["model_file"], "--test-di", 0.0,
        ],
        f"config line {EXTRA_LINE}: grid_refine must be >= 0",
    ),
    "two-state-nan-ref-load": (
        lambda p, t: _two_state_argv(p, t, "1,nan,0,0.1\n2,0,0,0.2\n"),
        "two.csv: line 2: bad value in row '1,nan,0,0.1'",
    ),
    "prediction-argmax-is-text": (
        lambda p, t: _report_argv(t, json.dumps([{"argmax": {"damage": "1.5"}}]), "damage\n1\n"),
        "prediction 0 has no numeric argmax damage",
    ),
    "prediction-argmax-1e400": (
        lambda p, t: _report_argv(t, '[{"argmax": {"damage": 1e400}}]', "damage\n1\n"),
        "prediction 0 has no numeric argmax damage",
    ),
    "prediction-load-is-true": (
        lambda p, t: _report_argv(
            t, json.dumps([{"argmax": {"damage": 1, "load": True}}]), "damage,load\n1,0\n"
        ),
        "prediction 0 has no numeric argmax damage",
    ),
    "truth-nan-cell": (
        lambda p, t: _report_argv(
            t, json.dumps([{"argmax": {"damage": 1.0}}]), "damage\nnan\n"
        ),
        "truth.csv: line 2: bad value in row 'nan'",
    ),
    "model-noise-is-text": (
        lambda p, t: _edited_model(p["model_file"], t, log_noise_variance="-3.2"),
        "malformed 'log_noise_variance'",
    ),
    "model-target-offset-is-false": (
        lambda p, t: _edited_model(p["model_file"], t, target_offset=False),
        "malformed 'target_offset'",
    ),
    "flag-kind-bogus": (
        lambda p, t: ["di", "--workdir", p["workdir"], "--out", t / "di.csv", "--kind", "bogus"],
        "--kind: di.kind must be one of rmsd, normalized; got 'bogus'",
    ),
    "flag-fixed-damage-nan": (
        lambda p, t: [
            "di", "--workdir", p["workdir"], "--out", t / "di.csv", "--policy", "fixed",
            "--fixed-damage", "nan",
        ],
        "--fixed-damage must be a finite number, got 'nan'",
    ),
    "flag-n-use-not-integer": (
        lambda p, t: ["di", "--workdir", p["workdir"], "--out", t / "di.csv", "--n-use", "abc"],
        "--n-use must be an integer, got 'abc'",
    ),
    "flag-seed-negative": (
        lambda p, t: ["simulate", "--workdir", t / "out", "--seed=-1"],
        "--seed: rng_seed must be >= 0",
    ),
    "seed-env-nan": (lambda p, t: _train_argv(p, t), "GWQUANT_SEED must be an integer, got 'nan'"),
    "config-path-delay-overflows": (
        lambda p, t: _simulate_argv(t, "simulation.path_delay = 1e308"),
        "propagation delay 1e+308 overflows in samples",
    ),
    "config-workdir-nul": (
        lambda p, t: [
            "simulate", "--config", _write(t, "nul.cfg", "paths.workdir = a\0b\n"),
        ],
        "config line 1: workdir must not hold a NUL byte",
    ),
    "model-length-scale-1e300": (
        _length_scale_model, "FloatingPointError: overflow encountered in exp"
    ),
    "test-di-1e308": (
        lambda p, t: _predict_argv(p, "--test-di", "1e308", "--known-load", 0),
        "FloatingPointError: overflow",
    ),
    "evaluate-di-1e308": (
        lambda p, t: [
            "evaluate", "--model-file", p["model_file"],
            "--di-file", _write(t, "di.csv", "damage,load,di\n0,0,1e308\n1,0,0.1\n"),
        ],
        "FloatingPointError: overflow",
    ),
    "report-prediction-lacks-load": (
        lambda p, t: _report_argv(t, '[{"argmax": {"damage": 1}}]', "damage,load\n1,0\n"),
        "prediction 0 has 1 values, its true state 2",
    ),
    "report-truth-lacks-load": (
        lambda p, t: _report_argv(t, '[{"argmax": {"damage": 1, "load": 5}}]', "damage\n1\n"),
        "prediction 0 has 2 values, its true state 1",
    ),
    # predict reads each test-DI input it is given, or exits 1 naming the one it would drop
    "predict-test-di-and-file": (
        lambda p, t: _predict_argv(
            p, "--test-di", 0.1, "--test-di-file", p["di_csv"], "--known-load", 0
        ),
        "give --test-di or --test-di-file, not both",
    ),
    "two-state-with-test-di": (
        lambda p, t: _switch_two_state_argv(t, "--test-di", 0.1), "--two-state takes no --test-di"
    ),
    "two-state-with-known-load": (
        lambda p, t: _switch_two_state_argv(t, "--known-load", 99),
        "--two-state takes no --known-load",
    ),
    "two-state-with-grid-refine": (
        lambda p, t: _switch_two_state_argv(t, "--grid-refine", 5),
        "--two-state takes no quantify.grid_refine (--grid-refine), got 5",
    ),
    "two-state-with-config-grid-refine": (
        lambda p, t: _switch_two_state_argv(
            t, "--config", _config_with(t, "quantify.grid_refine = 2")
        ),
        "--two-state takes no quantify.grid_refine (--grid-refine), got 2",
    ),
    "two-state-repeated-class2-damage": (
        lambda p, t: _switch_two_state_argv(t, extra_rows="2,0,1,0.25\n"),
        "two.csv: repeated class-2 ref_damage 1",
    ),
    "two-state-repeated-class1-load": (
        lambda p, t: _switch_two_state_argv(t, extra_rows="1,5,0,0.3\n"),
        "two.csv: repeated class-1 ref_load 5",
    ),
    "evaluate-di-lacks-load": (
        lambda p, t: [
            "evaluate", "--model-file", p["model_file"],
            "--di-file", _write(t, "di.csv", "damage,di\n0,0.1\n1,0.2\n"),
        ],
        "di.csv: holds input columns damage; the model takes 2",
    ),
    "train-constant-targets": (
        lambda p, t: [
            "train", "--di-file", _write(t, "di.csv", "damage,di\n0,0.1\n0,0.1\n1,0.1\n1,0.1\n"),
            "--model-file", t / "model.json",
        ],
        "UserWarning: training targets are constant",
    ),
})

# case -> environment variables set while the case runs
BAD_ENV = {
    "seed-env-not-integer": {"GWQUANT_SEED": "abc"},
    "seed-env-nan": {"GWQUANT_SEED": "nan"},
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_one_with_one_error_line(case, pipeline, tmp_path, capsys, monkeypatch):
    build_argv, fragment = BAD_INPUTS[case]
    argv = build_argv(pipeline, tmp_path)
    for name, value in BAD_ENV.get(case, {}).items():
        monkeypatch.setenv(name, value)
    capsys.readouterr()
    # a warning would print lines of its own before the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and fragment in err[0]


# simulate writes, and di reads, its signal files on forked workers; the
# tests set the CPU count those see, so the workers run on a 1-CPU machine too


@pytest.fixture
def cpus(monkeypatch):
    """Sets the number of usable CPUs the fan-out sees; no worker may outlive a test."""
    yield lambda n: monkeypatch.setattr(cli, "_usable_cpus", lambda: n)
    assert multiprocessing.active_children() == []


def _in_workers(monkeypatch, name, act, after=0):
    """Replace cli.<name> by a function that, in a worker, calls act() after
    after items, and otherwise calls the original."""
    original, parent, done = getattr(cli, name), os.getpid(), []

    def replaced(*args):
        if os.getpid() != parent:
            if len(done) >= after:
                act()
            done.append(args)
        return original(*args)

    monkeypatch.setattr(cli, name, replaced)


def _log_pids(monkeypatch, name, log):
    """Replace cli.<name> by a function that appends its process id to log, then
    calls the original."""
    original = getattr(cli, name)

    def logged(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(*args)

    monkeypatch.setattr(cli, name, logged)


def _front_outputs(config, root):
    """The simulate workdir and both DI files of config under root, as bytes by name."""
    workdir = root / "out"
    assert run("simulate", "--config", config, "--workdir", workdir) == 0
    for policy in ("class1", "both"):
        out = root / f"di_{policy}.csv"
        argv = ("di", "--config", config, "--workdir", workdir, "--policy", policy, "--out", out)
        assert run(*argv) == 0
    tree = read_bytes_tree(workdir)
    tree.update((f"di_{policy}.csv", (root / f"di_{policy}.csv").read_bytes())
                for policy in ("class1", "both"))
    return tree


def _raise_in_worker():
    raise RuntimeError("a worker's own error")


def _exit_worker():
    os._exit(0)


class TestFanOut:
    def test_items_run_on_as_many_workers_as_cpus(self, cpus):
        cpus(3)
        pids = list(cli._fan_out(lambda _: os.getpid(), list(range(7))))
        assert len(set(pids)) == 3 and os.getpid() not in pids
        assert pids[:3] == pids[3:6] and pids[6] == pids[0]  # worker w takes w, w + 3, ...

    def test_fewer_than_two_workers_run_in_process(self, cpus):
        cpus(1)
        assert set(cli._fan_out(lambda _: os.getpid(), list(range(4)))) == {os.getpid()}
        cpus(8)
        assert list(cli._fan_out(lambda _: os.getpid(), [0])) == [os.getpid()]

    def test_outputs_are_the_same_bytes_on_any_number_of_workers(
        self, tmp_path, config_file, cpus, monkeypatch
    ):
        outputs = []
        for n in (1, 2, 3):
            cpus(n)
            log = tmp_path / f"pids-{n}.txt"
            for name in ("_write_signal_file", "read_signals_csv"):
                _log_pids(monkeypatch, name, log)
            outputs.append(_front_outputs(config_file, tmp_path / str(n)))
            monkeypatch.undo()
            pids = set(map(int, log.read_text().split()))
            if n == 1:
                assert pids == {os.getpid()}
            else:
                assert os.getpid() not in pids and len(pids) >= n
        assert len(outputs[0]) == 13  # 10 cell files, the manifest and two DI files
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("after", [0, 1])
    @pytest.mark.parametrize("act", [_raise_in_worker, _exit_worker])
    def test_a_worker_that_fails_gives_the_in_process_result(
        self, act, after, tmp_path, config_file, cpus, monkeypatch
    ):
        cpus(1)
        alone = _front_outputs(config_file, tmp_path / "alone")
        cpus(3)
        _in_workers(monkeypatch, "_write_signal_file", act, after)
        _in_workers(monkeypatch, "read_signals_csv", act, after)
        assert _front_outputs(config_file, tmp_path / "workers") == alone

    # manifest rows after the header, and the error line the first bad one gives
    ERROR_ORDER = {
        "bad-file-last": (
            "0,0,1,a.csv\n0,0,1,b.csv\n", "b.csv: line 3: bad amplitude 'x'"
        ),
        "row-check-before-bad-file": (
            "0,0,2,a.csv\n0,0,1,b.csv\n", "line 2: a.csv holds 1 signals, the row lists 2"
        ),
        "bad-file-before-bad-row": (
            "0,0,1,b.csv\n0,0,1,a.csv\nx,0,1,c.csv\n", "b.csv: line 3: bad amplitude 'x'"
        ),
    }

    @pytest.mark.parametrize("order", sorted(ERROR_ORDER))
    @pytest.mark.parametrize("act", [None, _raise_in_worker, _exit_worker])
    def test_a_bad_workdir_gives_the_in_process_error_in_row_order(
        self, order, act, tmp_path, cpus, monkeypatch, capfd
    ):
        rows, fragment = self.ERROR_ORDER[order]
        files = {
            "manifest.csv": "damage,load,n_signals,file\n" + rows,
            "a.csv": _section(0), "b.csv": _section(1).replace("\n3\n", "\nx\n"),
        }
        argv = _workdir_di_argv(tmp_path, files)
        errors = []
        for n in (1, 3):
            cpus(n)
            if n == 3 and act is not None:
                _in_workers(monkeypatch, "read_signals_csv", act)
            assert run(*argv) == 1
            errors.append(capfd.readouterr().err)
        assert errors[0] == errors[1]
        assert len(errors[0].splitlines()) == 1 and fragment in errors[0]

    @pytest.mark.parametrize(
        "case",
        sorted(
            c for c in BAD_INPUTS
            if c.startswith(("signal-", "manifest-", "workdir-", "as-written-"))
        ),
    )
    @pytest.mark.parametrize("extra_row", [False, True])
    def test_a_bad_workdir_gives_the_same_error_on_workers(
        self, case, extra_row, pipeline, tmp_path, cpus, capfd
    ):
        """Each case's single error line, alone and on workers; with extra_row a
        good file is listed last, so that the case's own files share the workers."""
        build_argv, fragment = BAD_INPUTS[case]
        argv = build_argv(pipeline, tmp_path)
        assert argv[0] == "di"
        if extra_row:
            workdir = Path(argv[argv.index("--workdir") + 1])
            with open(workdir / "manifest.csv", "a") as fh:
                fh.write("9,0,1,extra.csv\n")
            _write(workdir, "extra.csv", _section().replace("damage=0", "damage=9") + "3\n")
        errors = []
        for n in (1, 2, 3):
            cpus(n)
            assert run(*argv) == 1
            errors.append(capfd.readouterr().err)
        assert errors[0] == errors[1] == errors[2]
        assert len(errors[0].splitlines()) == 1 and fragment in errors[0]

    def test_output_buffered_on_a_pipe_is_printed_once(self, tmp_path, config_file):
        # a forked worker flushes the stdout buffer it inherits when it exits
        code = (
            "import sys\n"
            "from gwquant import cli\n"
            "cli._usable_cpus = lambda: 3\n"
            "for workdir in sys.argv[2:]:\n"
            "    argv = ['simulate', '--config', sys.argv[1], '--workdir', workdir]\n"
            "    assert cli.main(argv) == 0\n"
        )
        workdirs = [str(tmp_path / "a"), str(tmp_path / "b")]
        done = subprocess.run(
            [sys.executable, "-c", code, config_file, *workdirs], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [f"wrote 60 signals to {w}" for w in workdirs]

    def test_importing_the_cli_does_not_load_multiprocessing(self):
        code = (
            "import sys, gwquant.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert done.stdout == "[]\n"
