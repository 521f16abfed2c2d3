"""cardioclr benchmark runner.

    python3 perfbench/run.py --workload pretrain|sweep|ingest|all --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from `src/`.
One workload runs in this process. Its inputs are made from `--seed` in a
child process. Set-up is timed several times, one untimed repetition warms
caches, then the workload's operation repeats for `--seconds`, and every
repetition's outputs are checked.

The last line of stdout is one JSON object. With `--trace 0` it carries the
`end_to_end` metrics of BENCHMARK.json: throughput is all items over all busy
time of the timed repetitions, set-up time the median over set-ups, and peak
RSS the process's. With `--trace 1` traced and untraced repetitions alternate and it
carries the `per_layer` metrics; their times and counts are per traced
set-up plus per traced operation. Lines before it give the environment, each
repetition, and every metric by name and unit. `--workload all` runs each
workload in a fresh process and fails if any of them fails.

Work directories, the span dump of the last traced run of each workload and
the digests that runs of the same code must reproduce live in `.perfbench/`."""

import os

# BLAS and OpenMP are pinned to one thread before numpy loads (here and in
# every child process, which inherits the environment): default threading
# makes timings spread far more than the code under test does.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_REPS = 3

# Units of the per-workload figures printed as `metric` lines next to the
# JSON metrics; failed_share is `failed / attempted`.
REPORT_UNITS = {
    "pretrain_views_per_s": "views/s", "pretrain_val_loss": "nt-xent",
    "sweep_rows_per_min": "rows/min", "sweep_ood_micro_f1": "f1",
    "ingest_audio_s_per_s": "audio_s/s", "failed_share": "failed/attempted",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def source_digest() -> str:
    """Identity of the code under test and of the benchmark itself."""
    h = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_digest": source_digest(),
    }


def median_import_s(modules: str) -> float:
    """Median time a fresh interpreter takes to import the workload's modules."""
    probe = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", probe], env=child_env(), check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(done.stdout))
    return statistics.median(times)


def check_digests(workload: str, seed: int, code: str, digests: dict) -> None:
    """Runs of the same code on the same seed must write the same bytes."""
    from workloads import CheckFailed

    path = STATE / "digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    key = f"{code}:{workload}:{seed}"
    if key in known and known[key] != digests:
        raise CheckFailed(f"digests differ from an earlier run of this code: {known[key]} vs {digests}")
    known[key] = digests
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1), encoding="utf-8")
    os.replace(tmp, path)


def measure(wl, seconds: float, tracer, reps: list) -> tuple[list, list]:
    """After one checked, untimed warm-up repetition, repeat the workload's
    operation for `seconds`, appending each checked repetition to `reps`.
    Returns the op wall times (untraced, traced); with a
    tracer, traced and untraced repetitions alternate, so that drift in the
    machine's speed shows up less as tracing overhead."""
    wl.prepare()
    wl.check(wl.run(lambda name: nullcontext()))
    walls = {False: [], True: []}
    begin = perf_counter()
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        least = min(len(walls[False]), len(walls[True])) if tracer else len(walls[False])
        if perf_counter() - begin >= seconds and least >= (2 if tracer else MIN_REPS):
            break
        wl.prepare()
        if traced:
            tracer.active = True
        start = perf_counter()
        rep = wl.run(tracer.span if tracer else lambda name: nullcontext())
        walls[traced].append(perf_counter() - start)
        if traced:
            tracer.active = False
        wl.check(rep)
        rep.extra = None  # outputs kept for the checks must not count in peak RSS
        reps.append(rep)
        print(f"rep {len(reps)} traced={int(traced)} wall_s={walls[traced][-1]:.4f} "
              f"rate={rep.items / rep.busy_s:.4f}")
    return walls[False], walls[True]


def emit(metric_specs, values: dict, correct: bool, attempted: int, failed: int) -> None:
    metrics = {}
    for spec in metric_specs:
        metrics[spec["name"]] = {"value": float(values[spec["name"]]), "unit": spec["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = STATE / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        subprocess.run([sys.executable, str(BENCH / "inputs.py"), args.workload, str(args.seed),
                        str(work)], env=child_env(), check=True, timeout=150)

        import workloads
        import cardioclr

        if Path(cardioclr.__file__).resolve().parent != SRC / "cardioclr":
            print(f"imported cardioclr from {cardioclr.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        env = environment()
        print("env " + json.dumps(env, sort_keys=True))

        wl = workloads.WORKLOADS[args.workload](work, args.seed)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            tracer.phase, tracer.active = "setup", True
        import_s = median_import_s(wl.imports)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            wl.setup()
            setups.append(perf_counter() - start)
        if tracer:
            tracer.phase, tracer.active = "op", False

        reps = []
        try:
            walls, traced_walls = measure(wl, args.seconds, tracer, reps)
            ok_reps = [r for r in reps if r.items > 0]
            workloads.require(bool(ok_reps), "every repetition failed")
            digests = ok_reps[0].digests
            for rep in ok_reps:
                workloads.require(rep.digests == digests,
                                  f"repetitions wrote different bytes: {rep.digests} vs {digests}")
            check_digests(args.workload, args.seed, env["source_digest"], digests)
        except workloads.CheckFailed as exc:
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
            emit([], {}, False, sum(r.attempted for r in reps) or 1, sum(r.failed for r in reps))
            return 1
        attempted = sum(r.attempted for r in reps)
        failed = sum(r.failed for r in reps)

        # Total items over total busy time, not a median of per-repetition
        # rates: when neighbours on a shared core come and go, those rates
        # fall in two clusters, and their median jumps between them from
        # run to run while the total moves with the share of each.
        throughput = sum(r.items for r in ok_reps) / sum(r.busy_s for r in ok_reps)
        report = {name: statistics.median(r.report[name] for r in ok_reps) for name in ok_reps[0].report}
        rate_name, scale = wl.rate
        report[rate_name] = scale * throughput
        report["failed_share"] = failed / attempted
        for name, value in report.items():
            print(f"metric {args.workload} {name} {value!r} {REPORT_UNITS[name]}")

        if tracer:
            tracer.uninstall()
            tracer.write(STATE / f"trace_{args.workload}.jsonl")
            values = tracing.layer_metrics(tracer.spans, {"setup": SETUP_REPEATS, "op": len(traced_walls)})
            untraced = statistics.median(walls)
            values["trace.overhead_s"] = statistics.median(traced_walls) - untraced
            values["trace.overhead_share"] = values["trace.overhead_s"] / untraced
            specs = contract["per_layer"]
        else:
            values = {
                "setup_s": import_s + statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "throughput": throughput,
            }
            specs = contract["end_to_end"]
        for spec in specs:
            print(f"metric {args.workload} {spec['name']} {values[spec['name']]!r} {spec['unit']}")
        emit(specs, values, True, attempted, failed)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in ("pretrain", "sweep", "ingest"):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    if status == 0:
        print(json.dumps(merged))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pretrain", "sweep", "ingest", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cardioclr" / "__init__.py").is_file():
        print(f"cardioclr sources not found under {SRC}", file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
