"""End-to-end CLI pipeline tests: simulate -> di -> train -> predict -> report."""

import argparse
import io
import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwquant import cli, persist
from gwquant.cli import build_parser, main, parse_config, split_dataset
from gwquant.damage_index import DiDataset, read_di_csv
from gwquant.errors import InvalidArgumentError, SchemaMismatchError
from gwquant.kernels import KernelParams
from gwquant.persist import load_model, save_model
from gwquant.quantify import (
    Scores,
    StateGrid,
    predict_single_state,
    predict_two_states,
    score_test_dis,
    single_state_scores,
    state_probabilities,
)
from gwquant.sgpr import PredictiveMoments, SgprModel
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


def _table_payload(table) -> dict:
    """The dict of one table that predict once handed to json.dumps."""
    argmax = table.argmax_state
    return {
        "test_di": table.test_di,
        "argmax": {
            "damage": argmax[0],
            "load": argmax[1] if len(argmax) > 1 else None,
        },
        "low_confidence": table.low_confidence,
        "probabilities": [
            {
                "damage": state[0],
                "load": state[1] if len(state) > 1 else None,
                "p": p,
            }
            for state, p in table.entries
        ],
    }


def _tables_oracle(tables) -> str:
    """json.dumps of the tables' payloads, sorted: one object for one table."""
    payloads = [_table_payload(t) for t in tables]
    return json.dumps(payloads[0] if len(payloads) == 1 else payloads, sort_keys=True)


def _two_state_oracle(prediction) -> str:
    """json.dumps of the step-2 payload with the step-1 DI, reference load and flag."""
    payload = _table_payload(prediction.step2_table)
    payload["low_confidence"] = (
        prediction.step1_table.low_confidence or prediction.step2_table.low_confidence
    )
    payload["step1_reference_load"] = prediction.step1_reference_load
    payload["test_di"] = prediction.step1_table.test_di
    return json.dumps(payload, sort_keys=True)


def _single_state_oracle(model_file, dis, known_load, refine=0, threshold=None) -> str:
    """The oracle text of a predict of dis on model_file's training damages."""
    model = load_model(model_file)
    grid = StateGrid.from_training_inputs(model.train_inputs, include_load=False).refine(refine)
    more = {} if threshold is None else {"low_confidence_threshold": threshold}
    return _tables_oracle(predict_single_state(model, grid, dis, known_load=known_load, **more))


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

    def test_single_di_prints_one_compact_line_with_sorted_keys(self, pipeline, capsys):
        argv = ("--model-file", pipeline["model_file"], "--test-di", 0.02, "--known-load", 0)
        assert run("predict", *argv) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        assert out == _single_state_oracle(pipeline["model_file"], [0.02], 0.0) + "\n"
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"

    def test_batch_file_is_one_compact_line_with_sorted_keys(self, pipeline, tmp_path, capsys):
        dis = tmp_path / "dis.csv"
        dis.write_text("damage,di\n0,0.01\n2,0.04\n4,0.09\n")
        out = tmp_path / "batch.json"
        code = run(
            "predict", "--model-file", pipeline["model_file"], "--test-di-file", dis,
            "--known-load", 5, "--out", out,
        )
        assert code == 0 and capsys.readouterr().out == ""
        text = out.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        oracle = _single_state_oracle(pipeline["model_file"], [0.01, 0.04, 0.09], 5.0)
        assert text == oracle + "\n" and len(json.loads(text)) == 3
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    def test_grid_refine_adds_candidates(self, pipeline, capsys):
        code = run(
            "predict", "--model-file", pipeline["model_file"],
            "--test-di", 0.01, "--known-load", 0, "--grid-refine", 3,
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["probabilities"]) == 5 + 4 * 3

    def test_grid_refine_keeps_each_training_damages_probabilities(self, pipeline, capsys):
        # a training damage's moments are the model's own in every grid, so
        # refining the grid adds candidates and changes no training damage's p
        dis = [0.0, 0.01, 0.04, 0.09]
        model = load_model(pipeline["model_file"])
        grid = model.damage_grid
        plain = single_state_scores(model, grid, np.array(dis), 5.0, 0.05)
        refined_grid = grid.refine(3)
        refined = single_state_scores(model, refined_grid, np.array(dis), 5.0, 0.05)
        columns = [refined_grid.states.index(s) for s in grid.states]
        assert refined.probabilities[:, columns].tobytes() == plain.probabilities.tobytes()

        argv = ("predict", "--model-file", pipeline["model_file"], "--known-load", "5")
        texts = []
        for refine in ("0", "3"):
            for di in dis:
                assert run(*argv, "--test-di", repr(di), "--grid-refine", refine) == 0
                texts.append(capsys.readouterr().out)
        for text, refined_text in zip(texts[: len(dis)], texts[len(dis) :]):
            entries = json.loads(text)["probabilities"]
            refined_entries = json.loads(refined_text)["probabilities"]
            assert len(refined_entries) == len(entries) + 3 * (len(entries) - 1)
            assert [e for e in refined_entries if (e["damage"],) in grid.states] == entries
            # each training damage's entry is the same text in both outputs
            for entry in entries:
                assert json.dumps(entry, sort_keys=True) in refined_text

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

    @pytest.mark.parametrize("kind", ["sgpr", "vhgpr"])
    def test_train_and_evaluate_print_nlpd_and_coverage_after_nmse(
        self, kind, pipeline, tmp_path, capsys
    ):
        # a model rebuilt from its file prints the held-out metrics training printed
        model_file = tmp_path / "model.json"
        argv = ("--config", pipeline["config"], "--di-file", pipeline["di_csv"], "--model", kind)
        assert run("train", *argv, "--model-file", model_file) == 0
        trained = capsys.readouterr().out.split(": ", 1)[1]
        heldout = str(model_file) + ".heldout.csv"
        assert run("evaluate", "--model-file", model_file, "--di-file", heldout) == 0
        evaluated = capsys.readouterr().out
        assert evaluated == trained
        names = [field.split("=")[0] for field in evaluated.split()]
        assert names == ["nmse", "rss_sss_percent", "nlpd", "coverage_2sd"]
        values = {k: float(v) for k, v in (f.split("=") for f in evaluated.split())}
        assert values["nlpd"] < 0.0 and 0.5 <= values["coverage_2sd"] <= 1.0

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


class TestPredictText:
    """predict writes the text json.dumps wrote of the tables' dicts, byte for byte."""

    CASES = {
        "single": (["--test-di", "0.02", "--known-load", "0"], [0.02], 0.0, {}),
        "batch": ([], [0.01, 0.04, -0.0, 0.09], 5.0, {}),
        "batch-of-one": ([], [0.04], 5.0, {}),
        "grid-refine": (
            ["--test-di", "0.01", "--known-load", "0", "--grid-refine", "3"],
            [0.01], 0.0, {"refine": 3},
        ),
        "all-flagged": (
            ["--test-di", "0.05", "--known-load", "5", "--low-confidence-threshold", "1"],
            [0.05], 5.0, {"threshold": 1.0},
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_predict_prints_the_oracle_text(self, case, pipeline, tmp_path, capsys):
        flags, dis, load, more = self.CASES[case]
        if not flags:
            rows = "".join(f"0,{d!r}\n" for d in dis)
            batch = _write(tmp_path, "batch.csv", "damage,di\n" + rows)
            flags = ["--test-di-file", batch, "--known-load", repr(load)]
        assert run("predict", "--model-file", pipeline["model_file"], *flags) == 0
        out = capsys.readouterr().out
        assert out == _single_state_oracle(pipeline["model_file"], dis, load, **more) + "\n"

    def test_two_state_prints_the_oracle_text(self, tmp_path, capsys):
        argv = _switch_two_state_argv(tmp_path)
        assert run(*argv) == 0
        out = capsys.readouterr().out
        model = load_model(argv[argv.index("--model-file") + 1])
        class1, class2 = cli._read_two_state_dis(argv[argv.index("--test-di-file") + 1])
        prediction = predict_two_states(model, class1, lambda d: class2[d])
        assert out == _two_state_oracle(prediction) + "\n"
        assert json.loads(out)["step1_reference_load"] == prediction.step1_reference_load


class _HashedModel:
    """A duck-typed model whose moments at a query row are picked by the row's
    hash: equal rows share them, and different rows often do, giving ties.
    state_moments holds the picks at its training rows."""

    def __init__(self, rows, ndim, moments):
        self.train_inputs = np.array([r[:ndim] for r in rows], dtype=float)
        self.train_targets = np.array([r[-1] for r in rows], dtype=float)
        self.ndim = ndim
        self.moments = moments
        rows = map(tuple, self.train_inputs.tolist())
        self.state_moments = {row: self._pick(row) for row in rows}
        self.row_variance = self.predict(self.train_inputs).variance

    def _pick(self, row):
        return self.moments[hash(row) % len(self.moments)]

    def predict(self, xq):
        picked = [self._pick(tuple(row)) for row in xq.tolist()]
        mean, variance = (np.array(v, dtype=float) for v in zip(*picked))
        return PredictiveMoments(mean, variance, xq)


_EDGE = [0.0, -0.0, 5e-324, 1e308, 0.5]
_DAMAGES = st.one_of(st.sampled_from(_EDGE), st.floats(-5.0, 5.0))
_DIS = st.one_of(st.sampled_from([*_EDGE, -1e308, -5e-324]), st.floats(-3.0, 3.0))
_ROWS = st.lists(
    st.tuples(_DAMAGES, st.sampled_from([0.0, 5.0, -0.0]), st.floats(-2.0, 2.0)),
    min_size=2, max_size=6,
)
_MOMENTS = st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.01, 4.0)), min_size=1, max_size=3)


def _threshold(scores, pick):
    """A threshold equal to one row's best probability, so rows fall on either side."""
    tops = scores.probabilities[np.arange(scores.best.size), scores.best]
    return float(np.sort(tops)[pick % tops.size])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    rows=_ROWS,
    moments=_MOMENTS,
    damages=st.lists(_DAMAGES, min_size=1, max_size=5),
    refine=st.integers(0, 2),
    dis=st.lists(_DIS, min_size=1, max_size=12),
    known_load=st.sampled_from([None, 0.0, 5.0]),
    pick=st.integers(0, 100),
)
def test_single_state_text_equals_the_json_oracle(
    rows, moments, damages, refine, dis, known_load, pick
):
    model = _HashedModel(rows, 1 if known_load is None else 2, moments)
    grid = StateGrid([(d,) for d in damages]).refine(refine)
    with np.errstate(over="ignore"):
        unflagged = single_state_scores(model, grid, np.array(dis), known_load, 0.0)
        threshold = _threshold(unflagged, pick)
        scores = single_state_scores(model, grid, np.array(dis), known_load, threshold)
        tables = predict_single_state(
            model, grid, dis, known_load=known_load, low_confidence_threshold=threshold
        )
    assert cli._predictions_json(scores) == _tables_oracle(tables)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    rows=_ROWS,
    moments=_MOMENTS,
    states=st.lists(st.tuples(_DAMAGES, _DAMAGES), min_size=1, max_size=6),
    dis=st.lists(_DIS, min_size=1, max_size=12),
    pick=st.integers(0, 100),
)
def test_two_column_grid_text_equals_the_json_oracle(rows, moments, states, dis, pick):
    model = _HashedModel(rows, 2, moments)
    grid = StateGrid(states)
    with np.errstate(over="ignore"):
        threshold = _threshold(score_test_dis(model, grid, np.array(dis), None, 0.0), pick)
        scores = score_test_dis(model, grid, np.array(dis), None, threshold)
        tables = state_probabilities(model, grid, dis, None, threshold)
    assert cli._predictions_json(scores) == _tables_oracle(tables)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    rows=_ROWS,
    moments=_MOMENTS,
    class1=st.lists(st.tuples(_DIS, _DIS), min_size=1, max_size=4),
    class2_di=_DIS,
    threshold=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
)
def test_two_state_text_equals_the_json_oracle(rows, moments, class1, class2_di, threshold):
    # the first row is class 1 and the others class 2, so both switches have rows
    switched = [(d, w, 1.0 if i == 0 else 2.0, y) for i, (d, w, y) in enumerate(rows)]
    model = _HashedModel(switched, 3, moments)
    class2 = dict.fromkeys((d for d, *_ in rows), class2_di)
    with np.errstate(over="ignore"):
        text = cli._two_state_json(model, class1, class2, threshold)
        prediction = predict_two_states(
            model, class1, lambda d: class2[d], low_confidence_threshold=threshold
        )
    assert text == _two_state_oracle(prediction)


_PROBABILITIES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0, 0.25]), st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    states=st.lists(_DAMAGES, min_size=1, max_size=5, unique=True).flatmap(
        lambda d: st.sampled_from([[(v,) for v in d], [(v, 1e308) for v in d]])
    ),
    data=st.data(),
    reference=st.one_of(st.none(), _DIS),
)
def test_any_scores_text_equals_the_json_oracle(states, data, reference):
    """The renderer on scores as drawn: tied, subnormal and negative-zero
    probabilities, any argmax column and either flag."""
    n = 1 if reference is not None else data.draw(st.integers(1, 6))
    m = len(states)
    row = st.lists(_PROBABILITIES, min_size=m, max_size=m)
    probabilities = data.draw(st.lists(row, min_size=n, max_size=n))
    scores = Scores(
        states,
        np.array(data.draw(st.lists(_DIS, min_size=n, max_size=n))),
        np.zeros(n),
        np.ones(n),
        np.array(probabilities, dtype=float),
        np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))),
        np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))),
    )
    if reference is None:
        assert cli._predictions_json(scores) == _tables_oracle(scores.tables())
    else:
        payload = _table_payload(scores.tables()[0])
        payload["step1_reference_load"] = reference
        oracle = json.dumps(payload, sort_keys=True)
        assert cli._predictions_json(scores, step1_reference_load=reference) == oracle


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


# argvs main must parse as the top-level parser does: per command a valid
# one or two, then usage errors and help
_PARSE_CASES = [
    ["simulate"],
    ["simulate", "--workdir", "w", "--seed", "3", "--n-samples=300"],
    ["di", "--out", "d.csv", "--policy", "both"],
    ["di", "--out=--"],
    ["di", "--out", "d.csv", "--", "x"],
    ["train", "--di-file", "d.csv", "--model-file", "m.json", "--center-targets"],
    ["train", "--di-file=d.csv", "--model-file", "m.json", "--center-targets", "--restarts", "2"],
    ["train", "--di-f", "d.csv", "--model-file", "m.json", "--model", "vhgpr"],
    ["predict", "--model-file", "m.json", "--test-di", "-0.5", "--known-load", "5"],
    ["predict", "--model-f", "m.json", "--two-state", "--test-di-file", "t.csv"],
    ["predict", "--test-di=-0.5", "--model-file=m.json", "--out", "o.json"],
    ["evaluate", "--model-file", "m.json", "--di-file", "d.csv"],
    ["report", "--pred-file", "p", "--true-file", "t", "--box-out", "b", "--errors-out", "e"],
    # usage errors, exit 2
    ["predict", "--model-file", "m.json", "--bogus"],
    ["predict", "--model-file", "m.json", "extra", "-x"],
    ["evaluate", "--model-file", "m.json", "--di-file", "d.csv", "--", "--x"],
    ["train", "--di-file", "d.csv"],
    ["train", "--mod", "x", "--di-file", "d.csv"],
    ["predict", "--model-file"],
    ["predict", "--model-file", "m.json", "--two-state=yes"],
    ["bogus", "--model-file", "m.json"],
    ["Predict"],
    ["--model-file", "m.json", "predict"],
    [],
    # help, exit 0
    ["-h"],
    ["--help", "predict"],
    ["predict", "-h"],
    ["train", "--model-file", "m.json", "--he"],
]

_COMMAND_WORDS = ["simulate", "di", "train", "predict", "evaluate", "report", "bogus"]
_FLAG_WORDS = sorted(
    {flag.name for _, flags in cli._COMMAND_FLAGS.values() for flag in flags} | {"-h", "--help"}
)
_VALUE_WORDS = ["m.json", "-0.5", "5", "--", "true", "-x", "--bogus", "--model", "--out=--"]


def _parse_outcome(parse, argv):
    """(namespace dict or exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestEveryArgvParsedAsTheTopLevelParse:
    """main reads every argv into the namespace, exit code and text of the
    top-level parser's parse_args."""

    @pytest.mark.parametrize("argv", _PARSE_CASES, ids=" ".join)
    def test_the_parse_equals_the_top_level_parse(self, argv):
        expected = _parse_outcome(build_parser().parse_args, argv)
        assert _parse_outcome(cli._parse_args, argv) == expected

    def test_the_cases_cover_each_command_and_each_outcome(self):
        outcomes = [_parse_outcome(cli._parse_args, argv)[0] for argv in _PARSE_CASES]
        parsed = {r["command"] for r in outcomes if isinstance(r, dict)}
        assert parsed == set(_COMMAND_WORDS) - {"bogus"}
        assert {r for r in outcomes if not isinstance(r, dict)} == {0, 2}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(_COMMAND_WORDS),
        words=st.lists(st.sampled_from(_FLAG_WORDS + _VALUE_WORDS), max_size=8),
    )
    def test_any_argv_parses_as_the_top_level_parse(self, command, words):
        argv = [command, *words]
        expected = _parse_outcome(build_parser().parse_args, argv)
        assert _parse_outcome(cli._parse_args, argv) == expected

    def test_main_runs_the_command_on_that_parse(self, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "cmd_predict", lambda args: ran.append(vars(args)) or 0)
        argv = ["predict", "--model-file", "m.json", "--test-di", "-0.5", "--out=--"]
        assert main(argv) == 0
        expected = vars(build_parser().parse_args(argv))
        assert ran == [{**expected, "out": "--"}]


# words for a flag's value: plain ones, then ones that make an argv not plain
_PLAIN_VALUES = ["m.json", "0.5", "5", "true", "a=b", "a b", "predict", "1e-05"]
_ODD_VALUES = ["", "-0.5", "--", "-x", "--out", "--bogus", "--out=--", "--model-f"]


@st.composite
def _table_argvs(draw):
    """(argv, plain): a command, then flags drawn from its own table with values.

    A plain argv holds plain values, switches alone, no bool setting flag and
    every required flag; any other mixes in odd values, a switch given a
    value, bool settings alone or with a value and missing required flags.
    """
    command = draw(st.sampled_from(sorted(cli._COMMAND_FLAGS)))
    flags = cli._COMMAND_FLAGS[command][1]
    plain = draw(st.booleans())
    pool = [f for f in flags if f.kind != "bool"] if plain else flags
    chosen = draw(st.lists(st.sampled_from(pool), max_size=6))
    if plain:
        chosen += [f for f in flags if f.required]
        chosen = draw(st.permutations(chosen))
    values = st.sampled_from(_PLAIN_VALUES if plain else _PLAIN_VALUES + _ODD_VALUES)
    argv = [command]
    for flag in chosen:
        argv.append(flag.name)
        if flag.kind == "value" or (not plain and draw(st.booleans())):
            argv.append(draw(values))
    return argv, plain


class TestPlainArgvsReadFromTheFlagTable:
    """_parse_args reads a plain argv from cli._COMMAND_FLAGS, without argparse,
    into parse_args's namespace; every other argv it leaves to argparse."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_table_argvs())
    def test_a_table_argv_parses_as_the_top_level_parse(self, case):
        argv, plain = case
        expected = _parse_outcome(build_parser().parse_args, argv)
        assert _parse_outcome(cli._parse_args, argv) == expected
        if plain:
            assert cli._plain_args(argv) is not None

    @pytest.mark.parametrize(
        "argv, plain",
        [
            (["predict", "--model-file", "m.json", "--test-di", "0.5"], True),
            (["predict", "--test-di", "0.5", "--model-file", "a=b", "--two-state"], True),
            (["predict", "--model-file", "m", "--model-file", "n", "--two-state", "--two-state"],
             True),
            (["report", "--pred-file", "p", "--true-file", "t", "--box-out", "b",
              "--errors-out", "e"], True),
            (["simulate"], True),
            (["predict", "--model-file", "m.json", "--test-di", "-0.5"], False),
            (["predict", "--model-file", "m.json", "--out", "--"], False),
            (["predict", "--model-file", "m.json", "--out", "--test-di", "0.5"], False),
            (["predict", "--model-file", ""], False),
            (["predict", "--model-file"], False),
            (["predict", "--test-di", "0.5"], False),
            (["report", "--pred-file", "p", "--true-file", "t", "--box-out", "b"], False),
            (["predict", "--model-file", "m.json", "--two-state", "yes"], False),
            (["predict", "--model-file=m.json"], False),
            (["predict", "--model-f", "m.json"], False),
            (["predict", "--model-file", "m.json", "-h"], False),
            (["train", "--di-file", "d", "--model-file", "m", "--center-targets"], False),
            (["train", "--di-file", "d", "--model-file", "m", "--center-targets", "true"], False),
            (["Predict", "--model-file", "m.json"], False),
            ([], False),
        ],
    )
    def test_only_a_plain_argv_is_read_from_the_table(self, argv, plain):
        namespace = cli._plain_args(argv)
        assert (namespace is not None) == plain
        expected = _parse_outcome(build_parser().parse_args, argv)
        if plain:
            assert vars(namespace) == expected[0]
        assert _parse_outcome(cli._parse_args, argv) == expected

    def test_the_benchmark_argvs_never_reach_argparse(self, monkeypatch):
        argvs = [
            ["predict", "--model-file", "m.json", "--test-di", "0.0123", "--known-load", "5.0"],
            ["predict", "--model-file", "m.json", "--test-di-file", "b.csv", "--known-load",
             "5.0", "--out", "o.json"],
            ["predict", "--model-file", "m.json", "--two-state", "--test-di-file", "t.csv"],
            ["simulate", "--config", "c.cfg", "--workdir", "w", "--seed", "1"],
            ["di", "--config", "c.cfg", "--workdir", "w", "--policy", "both", "--out", "d.csv"],
            ["train", "--config", "c.cfg", "--di-file", "d.csv", "--model", "vhgpr",
             "--restarts", "1", "--seed", "1", "--model-file", "m.json"],
            ["evaluate", "--model-file", "m.json", "--di-file", "m.json.heldout.csv"],
            ["report", "--pred-file", "p.json", "--true-file", "t.csv", "--box-out", "b.csv",
             "--errors-out", "e.csv"],
        ]
        expected = [vars(build_parser().parse_args(argv)) for argv in argvs]
        parsed = []
        real = argparse.ArgumentParser.parse_known_args

        def spy(parser, *args, **kwargs):
            parsed.append(parser.prog)
            return real(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        assert [vars(cli._parse_args(argv)) for argv in argvs] == expected
        assert {a[0] for a in argvs} == set(cli._COMMAND_FLAGS)
        assert parsed == []
        cli._parse_args(["predict", "--model-file", "m.json", "--test-di", "-0.5"])
        # the spy sees argparse when it runs: the top-level parser, then the subparser
        assert parsed == ["gwquant", "gwquant predict"]


class TestConfigOfACommand:
    """_config builds only what the command reads; a config file is still checked whole."""

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["predict", "--model-file", "m.json"], {"quantify"}),
            (["train", "--di-file", "d", "--model-file", "m"], {"train"}),
            (["di", "--out", "d.csv"], {"di", "paths"}),
            (["simulate"], {"simulation", "paths", "damage_grid", "load_grid"}),
        ],
    )
    def test_only_the_sections_read_are_built(self, argv, names, tmp_path):
        defaults = cli.PipelineConfig()
        for config in (None, _write(tmp_path, "c.cfg", "di.kind = normalized\n")):
            args = cli._parse_args(argv + ([] if config is None else ["--config", str(config)]))
            built = vars(cli._config(args))
            assert set(built) == names
            if config is None:
                assert built == {name: getattr(defaults, name) for name in names}

    def test_a_config_file_is_checked_whole(self, tmp_path, capsys):
        config = _write(tmp_path, "c.cfg", "simulation.n_samples = abc\n")
        argv = ["predict", "--model-file", "m.json", "--test-di", "0.1", "--config", config]
        assert run(*argv) == 1
        assert "config line 1: simulation.n_samples must be an integer" in capsys.readouterr().err


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
        kept = model.damage_grid
        states = list(kept.states)
        built = StateGrid.from_training_inputs(model.train_inputs, include_load=False)
        assert states == built.states
        argv = ("predict", "--model-file", pipeline["model_file"], "--test-di", 0.05)
        outputs = []
        for refine in (0, 3, 0):
            assert run(*argv, "--known-load", 5, "--grid-refine", refine) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert load_model(pipeline["model_file"]).damage_grid is kept
        assert kept.states == states
        assert outputs[0] == outputs[2]
        assert [len(out["probabilities"]) for out in outputs] == [5, 17, 5]

    def test_a_model_file_with_no_input_column_is_refused(self, pipeline, tmp_path, capsys):
        kernel = {"log_output_variance": 0.0, "log_length_scales": []}
        path = _edited_model(
            pipeline["model_file"], tmp_path, kernel=kernel, train_inputs=[[]],
            train_targets=[0.1],
        )[2]
        with pytest.raises(SchemaMismatchError, match="lacks the input column 'damage'"):
            load_model(path)
        assert run("predict", "--model-file", path, "--test-di", 0.05) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: SchemaMismatchError: ")
        assert "lacks the input column 'damage'" in err[0]
        assert persist._model_memo == {}

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
    "vhgpr-model-lambda-too-short": (
        lambda p, t: _edited_model(_vhgpr_model_file(t), t, variational_lambda=[0.5] * 5),
        "variational_lambda has 5 entries for n=6 rows",
    ),
    "vhgpr-model-negative-lambda": (
        lambda p, t: _edited_model(
            _vhgpr_model_file(t), t, variational_lambda=[0.5] * 5 + [-0.5]
        ),
        "variational_lambda entries must be >= 0",
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


def _switch_model(t):
    """The path of a small saved (damage, load, switch) model."""
    x = np.array([(d, w, c) for c in (1, 2) for d in (0, 1) for w in (0, 5)], dtype=float)
    y = np.linspace(0.1, 0.4, x.shape[0])
    model = t / "switch.json"
    save_model(model, SgprModel.from_hyperparams(KernelParams(0.0, np.zeros(3)), -4.0, x, y))
    return model


def _switch_two_state_argv(t, *flags, extra_rows=""):
    """A --two-state argv on a small (damage, load, switch) model, then flags.

    Without extra_rows, rows appended to the two-state file, the argv is valid.
    """
    rows = "1,0,0,0.1\n1,5,0,0.2\n2,0,0,0.1\n2,0,1,0.3\n" + extra_rows
    return [*_two_state_argv({"model_file": _switch_model(t)}, t, rows), *flags]


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
    # step 2 reads the class-2 row of a training damage only
    "two-state-class2-damage-off-grid": (
        lambda p, t: _switch_two_state_argv(t, extra_rows="2,0,0.5,0.25\n"),
        "two.csv: class-2 ref_damage 0.5 is none of the model's training damages 0.0, 1.0",
    ),
    # the flag that sets the load is named, not the covariate
    "predict-2d-model-without-known-load": (
        lambda p, t: _predict_argv(p, "--test-di", 0.1),
        "the model takes (damage, load): give the load with --known-load",
    ),
    "predict-switch-model-without-two-state": (
        lambda p, t: _predict_argv(p, "--test-di", 0.2, "--known-load", 5, model=_switch_model(t)),
        "the model takes (damage, load, switch): it answers --two-state requests",
    ),
    "predict-1d-model-with-known-load": (
        lambda p, t: _predict_argv(
            p, "--test-di", 0.1, "--known-load", 5, model=_vhgpr_model_file(t)
        ),
        "the model takes damage alone: it uses no --known-load, got 5.0",
    ),
    "evaluate-di-lacks-load": (
        lambda p, t: [
            "evaluate", "--model-file", p["model_file"],
            "--di-file", _write(t, "di.csv", "damage,di\n0,0.1\n1,0.2\n"),
        ],
        "di.csv: holds input columns damage; the model takes 2",
    ),
    # numpy refuses a 7.11 PiB array at once: nothing is allocated
    "predict-grid-refine-1e15": (
        lambda p, t: _predict_argv(
            p, "--test-di", 0.1, "--known-load", 5, "--grid-refine", 10**15
        ),
        "MemoryError: Unable to allocate",
    ),
    "simulate-n-samples-1e15": (
        lambda p, t: ["simulate", "--workdir", t / "out", "--n-samples", 10**15],
        "MemoryError: Unable to allocate",
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

    @pytest.mark.parametrize("k", [0, 4])
    @pytest.mark.parametrize("fail", ["rename", "write"])
    def test_a_failed_cell_leaves_the_serial_workdir(
        self, fail, k, tmp_path, config_file, cpus, monkeypatch, capfd
    ):
        """Cell k's file cannot be written: cells before it are left, none after,
        no temporary file and no manifest, on any number of workers."""
        cells = [(d, w) for d in (0.0, 1.0, 2.0, 3.0, 4.0) for w in (0.0, 5.0)]
        name = cli._signal_file_name(*cells[k])
        if fail == "write":
            write = cli._write_signal_file

            def failing(cell):
                state = cell[1][0].state
                if (state.damage_size, state.load) == cells[k]:
                    raise OSError(f"no room for {name}")
                return write(cell)

            monkeypatch.setattr(cli, "_write_signal_file", failing)
        trees, errors = [], []
        for n in (1, 2, 3):
            cpus(n)
            workdir = tmp_path / str(n)
            workdir.mkdir()
            if fail == "rename":
                (workdir / name).mkdir()  # a directory where cell k's file goes
            assert run("simulate", "--config", config_file, "--workdir", workdir) == 1
            trees.append({p.name: p.is_dir() or p.read_bytes() for p in workdir.iterdir()})
            err = capfd.readouterr().err.replace(str(workdir), "WORKDIR")
            errors.append(re.sub(r"tmp\w+\.tmp", "TMP", err))
        cells_before = {cli._signal_file_name(*c) for c in cells[:k]}
        assert set(trees[0]) == cells_before | ({name} if fail == "rename" else set())
        assert trees[0] == trees[1] == trees[2]
        assert errors[0] == errors[1] == errors[2] and len(errors[0].splitlines()) == 1

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
