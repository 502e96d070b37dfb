"""seriesmine benchmark: mine seeded inputs through ``cli.main``, check every
output against the oracle, and print each metric by name with its unit.

    python3 perfbench/run.py --workload motifs-planted --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                    # every workload, default seeds

Run from any directory of a checkout that holds ``src/seriesmine``. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). Results and span dumps go to
``perfbench/work/results``. See perfbench/README.md.
"""

import os

# Before numpy loads here or in any child: one BLAS/OpenMP thread, so a small
# machine measures the program and not the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, write_series  # noqa: E402

SETUP_RUNS = 5            # fresh interpreters timed per run for setup_s
REFERENCE_PROCS = 2       # oracle processes at once
CHILD_TIMEOUT_S = 170
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import seriesmine.cli; "
              "from seriesmine.io import read_series; read_series(sys.argv[2]); "
              "import time; print(repr(time.monotonic()))")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {"_s": "s", "calls": "count", "rows": "count", "rescans": "count",
                   "lengths": "count", "bytes": "bytes", "frac": "ratio",
                   "rerun": "ratio", "per_row": "s/row"}


def unit_of(name: str) -> str:
    for suffix, unit in sorted(PER_LAYER_UNITS.items(), key=lambda kv: -len(kv[0])):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name}")


def environment() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
    }


def git_commit():
    """HEAD of the checkout's own .git, or None when it is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "seriesmine").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def prepare_inputs(workload, seed: int) -> list[dict]:
    """Write the run's input files; build (or reuse) each oracle reference.

    A reference is cached under a key of the package source, the reference
    builder, the workload and the input, so a changed oracle or engine never
    reuses a stale one.
    """
    run_dir = WORK / workload.name / f"seed{seed}"
    ref_dir = WORK / "references"
    run_dir.mkdir(parents=True, exist_ok=True)
    ref_dir.mkdir(parents=True, exist_ok=True)
    digest = src_digest() + hashlib.sha256((HERE / "reference.py").read_bytes()).hexdigest()
    inputs = []
    for j in range(workload.inputs):
        path = run_dir / f"input{j}.txt"
        write_series(path, workload.series(seed, j))
        key = hashlib.sha256((digest + repr(workload)).encode() + path.read_bytes())
        inputs.append({"input": str(path), "output": str(run_dir / f"output{j}.json"),
                       "reference": str(ref_dir / f"{key.hexdigest()[:24]}.json")})
    todo = [item for item in inputs if not Path(item["reference"]).is_file()]
    procs = []
    for k in range(min(REFERENCE_PROCS, len(todo))):
        pairs = [p for item in todo[k::REFERENCE_PROCS] for p in (item["input"], item["reference"])]
        procs.append(subprocess.Popen([sys.executable, str(HERE / "reference.py"), str(SRC),
                                       workload.name, *pairs]))
    try:
        failed = [proc.wait(timeout=CHILD_TIMEOUT_S) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if any(failed):
        raise RuntimeError(f"oracle reference build failed for {workload.name}")
    return inputs


def measure_setup(input_path: str) -> list[float]:
    """Seconds for fresh interpreters to import seriesmine.cli and read the input."""
    times = []
    for _ in range(SETUP_RUNS):
        # The child reads the system-wide monotonic clock when done, so the
        # parent's wait granularity does not enter the figure.
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), input_path],
                              check=True, timeout=CHILD_TIMEOUT_S,
                              capture_output=True, text=True).stdout
        times.append(float(done) - t0)
    return times


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    inputs = prepare_inputs(workload, seed)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    spec = {"src": str(SRC), "workload": name, "inputs": inputs, "seconds": seconds,
            "trace": trace, "result": str(results_dir / f"{stem}.worker.json"),
            "spans": str(results_dir / f"{stem}.spans.json.gz")}
    spec_path = results_dir / f"{stem}.spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))
    setup = [] if trace else measure_setup(inputs[0]["input"])
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                   check=True, timeout=CHILD_TIMEOUT_S)
    worker = json.loads(Path(spec["result"]).read_text())
    if trace:
        metrics = {}
        for k, v in worker["layers"].items():
            unit = unit_of(k)
            metrics[k] = {"value": int(v) if unit in ("count", "bytes") else v, "unit": unit}
    else:
        metrics = {"wall_s": worker["wall_s"], "setup_s": statistics.median(setup),
                   "peak_rss_mb": worker["peak_rss_mb"]}
        metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
    # Trace problems (a missing wrap target, a broken count identity) are
    # reported, not counted: the outputs themselves were checked.
    correct = worker["failed"] == 0
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "why": workload.why, "environment": environment(),
              "correct": correct, "attempted": worker["attempted"],
              "failed": worker["failed"], "fail_rate": worker["failed"] / worker["attempted"],
              "metrics": metrics, "setup_samples_s": setup, "worker": worker}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record: dict):
    w = record["worker"]
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])}: "
          f"{len(w['input_medians_s'])} inputs x {w['samples_per_input']} timed samples, "
          f"{record['attempted']} outputs checked")
    for name, m in record["metrics"].items():
        print(f"{record['workload']:>15} {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"{record['workload']:>15} {'fail_rate':<36} {record['fail_rate']:>14.6g} ratio")
    for problem in w["errors"][:10] + w.get("trace_problems", []):
        print(f"# problem: {problem}")
    if record["trace"]:
        top = list(w["self_s_by_span"].items())[:6]
        print("# largest self times: " + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    env = record["environment"]
    print(f"# env: {env['nproc']} CPUs ({env['cpu_model']}), Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, commit {env['git_commit']}, "
          f"src lines {env['src_lines']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: each workload's own)")
    parser.add_argument("--seconds", type=int, default=15, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "seriesmine" / "cli.py").is_file():
        print(f"benchmark: no seriesmine package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
        try:
            record = run_workload(name, seed, args.seconds, bool(args.trace))
        except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
            print(f"benchmark: {name} failed: {exc}", file=sys.stderr)
            return 1
        report(record)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
