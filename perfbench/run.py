"""gwquant benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``. The run
sets up the workload three times (``setup_s`` is the median), then repeats
timed passes until ``--seconds`` have elapsed. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced and
traced, and it prints the per-layer metrics of the traced passes plus the
tracing overhead. Every line before the last is human-readable; the last line
is one JSON object ``{correct, attempted, failed, metrics}``.

Outputs of a run go to ``.perfbench_out/`` at the repository root. Digests of
the program's output files, and the exact counts of a traced run, are kept
there per workload, seed and program digest (SHA-256 of ``src/gwquant/*.py``),
and a later run of the same seed and the same program must reproduce them.
"""

import os

# Pin BLAS to one thread before numpy loads: the matrices are small, and a
# thread pool costs more than it saves (as in tests/conftest.py).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUPS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import gwquant from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "gwquant", "__init__.py")):
        sys.exit(f"error: no gwquant package under {SRC}")
    sys.path.insert(0, SRC)
    import gwquant.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(gwquant.__file__))) != SRC:
        sys.exit(f"error: imported gwquant from {gwquant.__file__}, not {SRC}")
    return gwquant


def program_digest() -> str:
    """SHA-256 over the program's sources, so records compare one program only."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "gwquant", "*.py"))):
        digest.update(os.path.basename(path).encode("utf-8") + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def machine_context(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "program": program_digest()[:16],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def import_in_fresh_interpreter() -> None:
    """Import the CLI in a new interpreter: the start-up every command pays."""
    subprocess.run(
        [sys.executable, "-c", "import gwquant.cli"],
        env={**os.environ, "PYTHONPATH": SRC},
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=60,
    )


def load_record(path) -> dict:
    if os.path.exists(path):
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh)
    return {}


def compare(client, kind: str, expected: dict, actual: dict) -> None:
    differing = sorted(k for k in expected.keys() & actual.keys() if expected[k] != actual[k])
    client.check(not differing, f"{kind} differ from an earlier run of this seed: {differing}")


def run_traced(tracer, client, traced: bool, fn, *args):
    """Call fn, with every gwquant public function wrapped when traced."""
    if not traced:
        return fn(*args)
    client.tracer = tracer
    tracer.install()
    try:
        return fn(*args)
    finally:
        tracer.uninstall()
        client.tracer = None


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    context = machine_context(args)
    print("context", json.dumps(context, sort_keys=True))

    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    record_path = os.path.join(
        OUT, "records", f"{args.workload}-seed{args.seed}-{context['program']}.json"
    )
    os.makedirs(os.path.dirname(record_path), exist_ok=True)
    record = load_record(record_path)
    client = workloads.Client()

    tracer = tracing.Tracer()
    setup_spans, traced_passes = [], []
    setup_times, train_times, setup_digests = [], [], None
    # A traced run first sets up once more, traced and not timed, so that
    # work done in set-up (quantify-serve trains its models there) is traced.
    # Training of served models is timed apart from set-up: its cost follows
    # the optimizer's path, which changes with the seed's data.
    for rep in range(SETUPS + args.trace):
        traced = rep < args.trace
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        start = time.perf_counter()
        import_in_fresh_interpreter()
        files, train_s = run_traced(
            tracer, client, traced, workload.setup, client, run_dir, args.seed
        )
        if traced:
            setup_spans = tracer.take()
        else:
            setup_times.append(time.perf_counter() - start - train_s)
            train_times.append(train_s)
        digests = workloads.digests(files, run_dir)
        if setup_digests is None:
            setup_digests = digests
        client.check(digests == setup_digests, "set-up outputs differ between set-ups")

    passes = []
    pass_digests = dict(setup_digests)
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        busy = client.busy
        result = run_traced(tracer, client, traced, workload.run_pass, client)
        result["calls_s"] = client.busy - busy
        result["traced"] = traced
        passes.append(result)
        if traced:
            traced_passes.append((len(passes) - 1, tracer.take()))
        try:
            digests = workload.verify(client)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            client.reject(f"pass outputs unreadable: {type(exc).__name__}: {exc}")
            digests = {}
        compare(client, "pass output digests", pass_digests, digests)
        pass_digests.update(digests)
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or traced_passes):
            break

    compare(client, "output digests", record.get("digests", {}), pass_digests)
    record["context"] = context
    for key, digest in pass_digests.items():
        record.setdefault("digests", {}).setdefault(key, digest)

    untraced = [p for p in passes if not p["traced"]]
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(p["run_s"] for p in untraced), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = workloads.report(untraced)
    if any(train_times):
        report["setup_train_s"] = (statistics.median(train_times), "s")
    report["failed_ratio"] = (client.failed / max(client.attempted, 1), "ratio")
    report["passes"] = (len(untraced), "count")

    if args.trace:
        per_pass = [tracing.layer_metrics(spans) for _, spans in traced_passes]
        unequal = [k for k in tracing.EXACT if any(p[k] != per_pass[0][k] for p in per_pass)]
        client.check(not unequal, f"exact counts differ between traced passes: {unequal}")
        # Set-up and the first traced pass; set-up trains quantify-serve's models.
        layers = tracing.layer_metrics(tracing.concat(setup_spans, traced_passes[0][1]))
        counts = {k: layers[k] for k in tracing.EXACT}
        compare(client, "exact counts", record.get("counts", {}), counts)
        record.setdefault("counts", counts)
        traced_calls = statistics.median(p["calls_s"] for p in passes if p["traced"])
        untraced_calls = statistics.median(p["calls_s"] for p in untraced)
        layers["trace.overhead_s"] = traced_calls - untraced_calls
        print(f"trace overhead {layers['trace.overhead_s']:.4f} s on "
              f"{untraced_calls:.4f} s of untraced CLI time per pass")
        trace_path = os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        fields = ("pass", "name", "start", "end", "parent", "request", "info")
        segments = [(-1, setup_spans), *traced_passes]
        with open(trace_path, "w", encoding="ascii") as fh:
            for index, spans in segments:
                fh.writelines(json.dumps(dict(zip(fields, [index, *s]))) + "\n" for s in spans)
        print(f"wrote {sum(len(s) for _, s in segments)} spans to "
              f"{os.path.relpath(trace_path, ROOT)}")
        metrics = {k: (v, tracing.unit_of(k)) for k, v in layers.items()}
    else:
        metrics = end_to_end

    with open(record_path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    shutil.rmtree(run_dir, ignore_errors=True)

    for name, (value, unit) in {**end_to_end, **report, **metrics}.items():
        print(f"metric {name} {value!r} {unit}")
    for message in client.errors:
        print(f"FAILED {message}")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
