"""The gwquant benchmark workloads.

Every workload drives the program through ``gwquant.cli.main(argv)`` with
argv as a user would type it: one process, one closed-loop client that sends
its next command only after the previous one returned. Inputs are generated
from the workload seed; the program receives only generated files.

A workload has three steps:

* ``setup`` generates the inputs (and, for ``quantify-serve``, trains the
  served models). It runs several times per run so its time has a median. It
  returns the files to digest and the wall seconds its ``gwquant train``
  calls took, which ``setup_s`` leaves out.
* ``run_pass`` is one timed pass. It returns ``run_s``, the wall time of the
  pass's fixed-work commands, plus the workload's own metrics.
* ``verify`` checks the files the pass left behind and returns their SHA-256
  digests, which must be identical across passes and across runs of a seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

# The README's simulator settings: 50 kHz burst sampled at 1 MHz, damage
# attenuates and delays, load delays, noise grows with damage.
SIMULATION = (
    ("center_frequency", "50e3"),
    ("sample_rate", "1e6"),
    ("path_delay", "20e-6"),
    ("damage_attenuation_coeff", "0.12"),
    ("damage_delay_coeff", "2e-6"),
    ("load_delay_coeff", "1e-6"),
    ("noise_floor_std", "0.003"),
    ("heteroscedastic_noise_slope", "0.002"),
)
DAMAGES = (0.0, 1.0, 2.0, 3.0, 4.0)
LOADS = (0.0, 5.0, 10.0, 15.0)

# Offset between the seed of the training signals and that of the held-out
# signals a served model is asked about.
HELDOUT_SEED_OFFSET = 7919


class Client:
    """Closed-loop caller of ``gwquant.cli.main`` that counts operations.

    An operation is one CLI call or one run-level check. A call fails when it
    raises or exits non-zero, or when its output fails a check.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.busy = 0.0
        self.tracer = None

    def call(self, *argv: str) -> tuple[bool, str, float]:
        """Run one command; returns (exited 0, stdout, wall seconds)."""
        import gwquant.cli

        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request = self.attempted
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = gwquant.cli.main(list(argv))
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        self.busy += wall
        if code != 0:
            self.reject(f"gwquant {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
        return code == 0, out.getvalue(), wall

    def reject(self, message: str) -> None:
        """Count an attempted operation as failed."""
        self.failed += 1
        self.errors.append(message)

    def check(self, ok: bool, message: str) -> bool:
        """A run-level check, counted as one operation."""
        self.attempted += 1
        if not ok:
            self.reject(message)
        return ok


def write_config(path, damages, loads, replicates: int, samples: int) -> None:
    lines = [f"simulation.{key} = {value}" for key, value in SIMULATION]
    lines += [
        f"simulation.n_samples = {samples}",
        f"simulation.n_replicates = {replicates}",
        "simulation.damage_grid = " + " ".join(repr(float(d)) for d in damages),
        "simulation.load_grid = " + " ".join(repr(float(w)) for w in loads),
        "di.kind = rmsd",
        f"di.n_use = {samples}",
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(paths, root) -> dict[str, str]:
    return {os.path.relpath(p, root): sha256(p) for p in sorted(paths)}


def read_di(path) -> tuple[list[str], np.ndarray]:
    """Header and rows of a DI CSV, read independently of gwquant."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


def read_signals(path) -> list[tuple[float, float, np.ndarray]]:
    """(damage, load, samples) per section of a signal CSV."""
    sections = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("# signal "):
                fields = dict(tok.split("=", 1) for tok in line[9:].split())
                sections.append((float(fields["damage"]), float(fields["load"]), []))
            elif line.strip() and not line.startswith("#"):
                sections[-1][2].append(float(line))
    return [(d, w, np.array(v)) for d, w, v in sections]


def read_workdir_signals(workdir) -> list[tuple[float, float, np.ndarray]]:
    with open(os.path.join(workdir, "manifest.csv"), "r", encoding="ascii") as fh:
        names = [ln.strip().split(",")[-1] for ln in fh if ln[0].isdigit()]
    return [s for name in names for s in read_signals(os.path.join(workdir, name))]


def percentile_ms(samples: list[float], q: float) -> float:
    """Latency percentile in ms, taken as the next sample at or above it.

    A failed request counts as infinitely slow.
    """
    if not samples:
        return math.nan
    return float(np.percentile(np.array(samples) * 1e3, q, method="higher"))


def report(passes: list[dict]) -> dict:
    """A workload's own metrics: medians over passes, pooled percentiles."""
    units = {
        "simulate_s": "s", "di_s": "s", "train_s": "s", "heldout_nmse": "ratio",
        "batch_di_per_s": "1/s", "argmax_accuracy": "ratio", "two_state_accuracy": "ratio",
    }
    out = {k: (statistics.median(p[k] for p in passes), u) for k, u in units.items() if k in passes[0]}
    for key in ("predict_ms", "two_state_ms"):
        if key in passes[0]:
            pooled = [wall for p in passes for wall in p[key]]
            out[f"{key}_p50"] = (percentile_ms(pooled, 50), "ms")
            out[f"{key}_p99"] = (percentile_ms(pooled, 99), "ms")
            out[f"{key}_n"] = (len(pooled), "count")
    return out


def nmse_of(text: str) -> float:
    match = re.search(r"nmse=(\S+)", text)
    return float(match.group(1)) if match else math.nan


class FrontPaper:
    """Paper-scale front half: simulate, then class-1 and both-class DIs."""

    name = "front-paper"
    replicates, samples = 50, 2500

    def setup(self, client: Client, workdir: str, seed: int) -> tuple[list[str], float]:
        self.dir, self.seed = workdir, seed
        self.config = os.path.join(workdir, "front.cfg")
        write_config(self.config, DAMAGES, LOADS, self.replicates, self.samples)
        return [self.config], 0.0

    def run_pass(self, client: Client) -> dict:
        sig = os.path.join(self.dir, "signals")
        _, _, simulate = client.call(
            "simulate", "--config", self.config, "--workdir", sig, "--seed", str(self.seed)
        )
        di_walls = []
        for policy in ("class1", "both"):
            _, _, wall = client.call(
                "di", "--config", self.config, "--workdir", sig,
                "--policy", policy, "--out", os.path.join(self.dir, f"di_{policy}.csv"),
            )
            di_walls.append(wall)
        di = sum(di_walls)
        return {"run_s": simulate + di, "simulate_s": simulate, "di_s": di}

    def verify(self, client: Client) -> dict[str, str]:
        sig = os.path.join(self.dir, "signals")
        cells = len(DAMAGES) * len(LOADS)
        n = cells * self.replicates
        files = [os.path.join(sig, f) for f in os.listdir(sig)]
        client.check(len(files) == cells + 1, f"expected {cells} signal files and a manifest")
        class1 = read_di(os.path.join(self.dir, "di_class1.csv"))
        both = read_di(os.path.join(self.dir, "di_both.csv"))
        class1_ok = client.check(
            class1[0] == ["damage", "load", "di"] and class1[1].shape == (n, 3),
            f"class1 DI file is not {n} rows of damage,load,di",
        )
        both_ok = client.check(
            both[0] == ["damage", "load", "switch", "di"] and both[1].shape == (2 * n, 4),
            f"both-class DI file is not {2 * n} rows of damage,load,switch,di",
        )
        if class1_ok and both_ok:
            di = both[1][:, -1]
            client.check(
                bool(np.all(np.isfinite(di)) and np.all(di >= 0)),
                "DI values must be finite and >= 0",
            )
            client.check(
                np.array_equal(both[1][:n, [0, 1, 3]], class1[1])
                and np.all(both[1][:n, 2] == 1) and np.all(both[1][n:, 2] == 2),
                "both-class rows must be the class-1 rows (switch 1) then class-2 rows",
            )
        files += [os.path.join(self.dir, f"di_{p}.csv") for p in ("class1", "both")]
        return digests(files, self.dir)


class Train:
    """``gwquant train --model vhgpr`` on a generated DI set, then evaluate.

    Training wall time depends on the optimizer's trajectory, which differs
    from seed to seed (restarts stop after 30 or after 500 L-BFGS-B
    iterations), so it is reported as ``train_s`` and left out of ``run_s``.
    ``run_s`` is the fixed work after training: ``evaluations`` calls of
    ``gwquant evaluate`` on the held-out rows.
    """

    evaluations = 40
    nmse_limit = 0.1

    def __init__(self, name, damages, loads, replicates, policy, samples=300):
        self.name, self.damages, self.loads = name, damages, loads
        self.replicates, self.policy, self.samples = replicates, policy, samples

    def setup(self, client: Client, workdir: str, seed: int) -> tuple[list[str], float]:
        self.dir, self.seed = workdir, seed
        self.config = os.path.join(workdir, "train.cfg")
        write_config(self.config, self.damages, self.loads, self.replicates, self.samples)
        sig = os.path.join(workdir, "signals")
        self.di_file = os.path.join(workdir, "di.csv")
        client.call("simulate", "--config", self.config, "--workdir", sig, "--seed", str(seed))
        client.call(
            "di", "--config", self.config, "--workdir", sig,
            "--policy", self.policy, "--out", self.di_file,
        )
        return [self.di_file], 0.0

    def run_pass(self, client: Client) -> dict:
        model = os.path.join(self.dir, "model.json")
        ok, out, train = client.call(
            "train", "--config", self.config, "--di-file", self.di_file,
            "--model", "vhgpr", "--restarts", "2", "--seed", str(self.seed),
            "--model-file", model,
        )
        trained_nmse = nmse_of(out) if ok else math.nan
        walls, nmse = [], math.nan
        for _ in range(self.evaluations):
            ok, out, wall = client.call(
                "evaluate", "--model-file", model, "--di-file", model + ".heldout.csv"
            )
            walls.append(wall)
            if ok:
                nmse = nmse_of(out)
                if not (nmse == trained_nmse and nmse < self.nmse_limit):
                    client.reject(
                        f"evaluate nmse {nmse} differs from train's {trained_nmse} "
                        f"or exceeds {self.nmse_limit}"
                    )
        return {"run_s": sum(walls), "train_s": train, "heldout_nmse": nmse}

    def verify(self, client: Client) -> dict[str, str]:
        model = os.path.join(self.dir, "model.json")
        return digests([self.di_file, model, model + ".heldout.csv"], self.dir)


class QuantifyServe:
    """Serve state probabilities from two trained VHGPR models.

    Setup trains a class-1 (damage, load) model and a both-class (damage,
    load, switch) model on seed-derived signals, and derives requests from
    held-out signals of a second seed. A pass sends every single-DI request,
    one batch file, every two-state request, then ``gwquant report``.

    ``run_s`` leaves the two-state requests out. Their cost depends on the
    both-class model: the switch column's length scale is trained down to
    where the kernel between the two classes underflows, and for some seeds
    it lands among subnormal doubles (exp(-716) ~ 1e-311), which slows the
    model's arithmetic about 2.5-fold. They are reported as
    ``two_state_ms_p50`` and ``two_state_ms_p99`` instead.
    """

    name = "quantify-serve"
    train_replicates, heldout_replicates, samples = 4, 50, 300
    batch_size, batch_load = 10_000, 5.0
    two_state_requests = 400
    accuracy_floor = 0.5

    def setup(self, client: Client, workdir: str, seed: int) -> tuple[list[str], float]:
        self.dir = workdir
        rng = np.random.default_rng(seed)
        config = os.path.join(workdir, "serve.cfg")
        heldout_config = os.path.join(workdir, "heldout.cfg")
        write_config(config, DAMAGES, LOADS, self.train_replicates, self.samples)
        write_config(heldout_config, DAMAGES, LOADS, self.heldout_replicates, self.samples)
        sig, heldout_sig = (os.path.join(workdir, d) for d in ("signals", "heldout"))
        client.call("simulate", "--config", config, "--workdir", sig, "--seed", str(seed))
        self.models, train_s = {}, 0.0
        for policy in ("class1", "both"):
            di_file = os.path.join(workdir, f"di_{policy}.csv")
            self.models[policy] = os.path.join(workdir, f"model_{policy}.json")
            client.call(
                "di", "--config", config, "--workdir", sig, "--policy", policy, "--out", di_file
            )
            _, _, wall = client.call(
                "train", "--config", config, "--di-file", di_file, "--model", "vhgpr",
                "--restarts", "1", "--seed", str(seed), "--model-file", self.models[policy],
            )
            train_s += wall
        client.call(
            "simulate", "--config", heldout_config, "--workdir", heldout_sig,
            "--seed", str(seed + HELDOUT_SEED_OFFSET),
        )
        heldout_di = os.path.join(workdir, "heldout_class1.csv")
        client.call(
            "di", "--config", heldout_config, "--workdir", heldout_sig,
            "--policy", "class1", "--out", heldout_di,
        )

        # Single requests: every held-out class-1 DI with its known load.
        _, rows = read_di(heldout_di)
        self.singles = [(repr(float(di)), repr(float(w)), float(d)) for d, w, di in rows]

        # Batch: held-out DIs at one load, resampled with their state's scatter.
        at_load = rows[rows[:, 1] == self.batch_load]
        pick = rng.integers(0, len(at_load), self.batch_size)
        scatter = np.array([at_load[at_load[:, 0] == d, 2].std() for d in at_load[pick, 0]])
        batch = np.abs(at_load[pick, 2] + rng.normal(0.0, 1.0, self.batch_size) * scatter)
        self.batch_file = os.path.join(workdir, "batch.csv")
        with open(self.batch_file, "w", encoding="ascii") as fh:
            fh.write("damage,di\n")
            fh.writelines(f"{d!r},{v!r}\n" for d, v in zip(at_load[pick, 0].tolist(), batch.tolist()))

        # Two-state requests: held-out signals against the training signals'
        # class-1 (healthy, per load) and class-2 (unloaded, per damage) means.
        refs: dict[tuple, list] = {}
        for d, w, samples in read_workdir_signals(sig):
            refs.setdefault((d, w), []).append(samples)
        mean = {state: np.mean(s, axis=0) for state, s in refs.items()}
        heldout = read_workdir_signals(heldout_sig)
        chosen = rng.choice(len(heldout), self.two_state_requests, replace=False)
        self.two_state = []
        for k, i in enumerate(sorted(chosen)):
            d, w, samples = heldout[i]
            path = os.path.join(workdir, f"two_state_{k:04d}.csv")
            lines = ["class,ref_load,ref_damage,di"]
            lines += [f"1,{lw!r},0.0,{rmsd(mean[(0.0, lw)], samples)!r}" for lw in LOADS]
            lines += [f"2,0.0,{ld!r},{rmsd(mean[(ld, 0.0)], samples)!r}" for ld in DAMAGES]
            with open(path, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines) + "\n")
            self.two_state.append((path, (float(d), float(w))))
        return [*self.models.values(), heldout_di, self.batch_file], train_s

    def run_pass(self, client: Client) -> dict:
        single_walls, single_latency, hits, predictions, truths = [], [], 0, [], []
        for di, load, damage in self.singles:
            ok, out, wall = client.call(
                "predict", "--model-file", self.models["class1"],
                "--test-di", di, "--known-load", load,
            )
            table = self._table(client, ok, out)
            single_walls.append(wall)
            single_latency.append(wall if table else math.inf)
            if table:
                predictions.append(table)
                truths.append(damage)
                hits += table["argmax"]["damage"] == damage

        batch_out = os.path.join(self.dir, "batch_predictions.json")
        ok, _, batch_wall = client.call(
            "predict", "--model-file", self.models["class1"], "--test-di-file",
            self.batch_file, "--known-load", repr(self.batch_load), "--out", batch_out,
        )
        if ok:
            try:
                with open(batch_out, "r", encoding="ascii") as fh:
                    tables = json.load(fh)
            except ValueError:
                tables = None
            if not (
                isinstance(tables, list)
                and len(tables) == self.batch_size
                and all(map(_probabilities_ok, tables))
            ):
                client.reject(f"batch output is not {self.batch_size} valid tables")

        two_state_latency, two_state_hits = [], 0
        for path, truth in self.two_state:
            ok, out, wall = client.call(
                "predict", "--model-file", self.models["both"], "--two-state",
                "--test-di-file", path,
            )
            table = self._table(client, ok, out)
            two_state_latency.append(wall if table else math.inf)
            if table:
                two_state_hits += (table["argmax"]["damage"], table["argmax"]["load"]) == truth

        pred_file = os.path.join(self.dir, "predictions.json")
        true_file = os.path.join(self.dir, "truth.csv")
        with open(pred_file, "w", encoding="ascii") as fh:
            json.dump(predictions, fh)
        with open(true_file, "w", encoding="ascii") as fh:
            fh.write("damage\n" + "".join(f"{d!r}\n" for d in truths))
        box, errors = (os.path.join(self.dir, f) for f in ("box.csv", "errors.csv"))
        ok, _, report_wall = client.call(
            "report", "--pred-file", pred_file, "--true-file", true_file,
            "--box-out", box, "--errors-out", errors,
        )
        if ok:
            self._check_report(client, box, errors, len(predictions))
        accuracy = hits / len(self.singles)
        two_state_accuracy = two_state_hits / len(self.two_state)
        client.check(
            min(accuracy, two_state_accuracy) >= self.accuracy_floor,
            f"accuracies {accuracy}, {two_state_accuracy} below {self.accuracy_floor}",
        )
        return {
            "run_s": sum(single_walls) + batch_wall + report_wall,
            "predict_ms": single_latency,
            "two_state_ms": two_state_latency,
            "batch_di_per_s": self.batch_size / batch_wall,
            "argmax_accuracy": accuracy,
            "two_state_accuracy": two_state_accuracy,
        }

    @staticmethod
    def _table(client: Client, ok: bool, out: str):
        if not ok:
            return None
        try:
            table = json.loads(out)
        except ValueError:
            client.reject(f"prediction output is not JSON: {out[:200]}")
            return None
        if not _probabilities_ok(table):
            client.reject(f"prediction probabilities outside [0, 1]: {out[:200]}")
            return None
        return table

    @staticmethod
    def _check_report(client: Client, box: str, errors: str, n: int) -> None:
        with open(errors, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        if not lines[0].startswith("true_damage,true_load,pred_damage") or len(lines) != 1 + n:
            client.reject(f"report errors file is not {n} rows")
        with open(box, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        if not lines[0].startswith("state,median,") or len(lines) != 1 + len(DAMAGES):
            client.reject("report box file does not hold one row per damage state")

    def verify(self, client: Client) -> dict[str, str]:
        names = ("batch_predictions.json", "predictions.json", "box.csv", "errors.csv")
        return digests([os.path.join(self.dir, n) for n in names], self.dir)


def _probabilities_ok(table: dict) -> bool:
    probs = [entry["p"] for entry in table["probabilities"]]
    return bool(probs) and all(0.0 <= p <= 1.0 for p in probs)


def rmsd(reference: np.ndarray, samples: np.ndarray) -> float:
    """The RMSD damage index, sqrt(mean((reference - samples)^2))."""
    return float(np.sqrt(np.mean((reference - samples) ** 2)))


WORKLOADS = {
    w.name: w
    for w in (
        FrontPaper(),
        # 40 unique (damage, load, switch) states, 5 training rows each.
        Train("train-replicated", DAMAGES, LOADS, replicates=10, policy="both"),
        # 200 distinct damage sizes, one training row each.
        Train("train-unique", tuple(np.linspace(0.0, 4.0, 200)), (0.0,), 2, "class1"),
        QuantifyServe(),
    )
}
