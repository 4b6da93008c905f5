"""sadcluster benchmark.

    python3 sadbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. ``--workload all`` runs every workload in
its own process and prints a table. Each run generates its inputs from
``--seed`` (set-up, timed and repeated before every pass), then passes
them through the same ``sadcluster.cli.main`` subcommands a user runs,
in this process, until ``--seconds`` have passed. The first pass trains
(if the workload trains); the later ones repeat embed -> cluster -> eval
with that checkpoint, at least three of them. The first pass is the
warm-up for ``infer_s``, the median over the later passes. Every
subcommand's output is checked. With ``--trace 1`` every pass trains,
each untraced pass is followed by a traced one, and the per-layer
metrics are reported instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it is the full
record (environment, passes, errors), also written with the span trace
under ``.sadbench_out/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import SUBCOMMANDS, Tracer, layer_metric_names, root_name

# numpy, which workloads imports, is imported only once main() has made
# the BLAS thread settings.
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".sadbench_out"
# Set-up takes 0.1-0.6 s, so before every pass it is repeated until this
# long has passed; setup_s is the median over the whole run.
SETUP_SECONDS = 0.5
# Other load on the machine speeds and slows passes by up to a half, over
# seconds to minutes, so an untraced run makes at least three passes after
# the first and reports their median; a traced run needs one untraced and
# one traced pass.
MIN_PASSES = 4
MIN_TRACED_PASSES = 2
# One BLAS thread keeps the load to one core, so figures depend less on
# what else the machine runs; the setting is recorded with each result.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (
    ("pipeline_s", "s"), ("infer_s", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("acc", "ratio"), ("ami", "ratio"),
    ("silhouette", "ratio"), ("ok_frac", "ratio"),
)
INFER_COMMANDS = SUBCOMMANDS[1:]  # embed, cluster, eval
CHECK_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError)


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, inherited: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT / "src"),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "inherited_env": {var: inherited.get(var)
                          for var in BLAS_THREAD_VARS + ("SADCLUSTER_THREADS",)},
        "note": "SADCLUSTER_THREADS is validated by the CLI and changes nothing",
    }


def run_pass(cli, w, seed, files, ids, tracer=None, train=True) -> dict:
    """One pass through the workload's subcommands, each output checked;
    ``train=False`` reuses the checkpoint of an earlier pass."""
    from workloads import CheckFailed, check, commands

    files.clear_outputs(train)
    steps = commands(w, seed, files, train)
    record = {"seconds": {}, "facts": {}, "failed": 0, "errors": []}
    for i, argv in enumerate(steps):
        command = argv[0]
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(root_name(command)) if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exit_:
                code = exit_.code
            record["seconds"][command] = time.perf_counter() - start
        error = None
        if code != 0:
            error = f"{command} exited {code}: {err.getvalue().strip()}"
        else:
            try:
                record["facts"].update(check(w, command, ids, files))
            except (CheckFailed, *CHECK_ERRORS) as exc:
                error = f"{command} output check: {type(exc).__name__}: {exc}"
        if error:
            # the remaining subcommands need this one's output: they fail too
            record["failed"] = len(steps) - i
            record["errors"].append(error)
            break
    record["pipeline_s"] = sum(record["seconds"].values())
    record["infer_s"] = sum(record["seconds"].get(c, 0.0) for c in INFER_COMMANDS)
    record["attempted"] = len(steps)
    return record


def median_of(passes: list[dict], key: str) -> float | None:
    return statistics.median(p[key] for p in passes) if passes else None


def run_workload(args, inherited: dict) -> int:
    src = ROOT / "src"
    if not (src / "sadcluster" / "cli.py").is_file():
        print(f"sadbench: no sadcluster sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import sadcluster.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"sadbench: sadcluster imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Files, set_up

    w = WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{label}-{os.getpid()}"
    workdir.mkdir(parents=True)
    files = Files.under(workdir)
    tracer = Tracer()
    passes, traced, missing = [], [], []
    try:
        setup_times = []
        min_passes = MIN_TRACED_PASSES if args.trace else MIN_PASSES
        start = time.perf_counter()
        while True:
            # set-up rewrites the same files, so a pass reads what it would
            # have read without it
            set_up_start = time.perf_counter()
            while time.perf_counter() - set_up_start < SETUP_SECONDS:
                began = time.perf_counter()
                ids = set_up(w, args.seed, files)
                setup_times.append(time.perf_counter() - began)
            train = args.trace or not passes
            passes.append(run_pass(cli, w, args.seed, files, ids, train=train))
            if args.trace and not passes[-1]["failed"]:
                with tracer.installed() as missing:
                    traced.append(run_pass(cli, w, args.seed, files, ids, tracer))
            everything = passes + traced
            if any(p["failed"] for p in everything):
                break
            if len(everything) >= min_passes and time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    if args.trace:
        values = tracer.layer_metrics(passes=max(len(traced), 1))
        untraced_s = sum(p["pipeline_s"] for p in passes[:len(traced)])
        values["trace_overhead_frac"] = (
            sum(p["pipeline_s"] for p in traced) / untraced_s - 1.0 if traced else None)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layer_metric_names()}
    else:
        complete = [p for p in passes if not p["failed"]]
        facts = complete[-1]["facts"] if complete else {}
        # embed right after train runs in another heap and cache state
        # than in the later passes, so the first pass only warms up infer_s
        infer_s = median_of(complete[1:], "infer_s")
        train_s = complete[0]["seconds"].get("train", 0.0) if complete else None
        values = {
            "pipeline_s": train_s + infer_s if infer_s is not None else None,
            "infer_s": infer_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "acc": facts.get("acc"),
            "ami": facts.get("ami"),
            "silhouette": facts.get("silhouette"),
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed, inherited),
        "setup_s": setup_times,
        "passes": passes,
        "traced_passes": traced,
        "missing_functions": missing,
        "metrics": metrics,
    }
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"{label}-spans.jsonl")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


def run_all(args, inherited: dict) -> int:
    """Each workload in its own process; prints one table of results."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, env=inherited, check=False,
        )
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']!s:>24} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    inherited = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, inherited)
    return run_workload(args, inherited)


if __name__ == "__main__":
    sys.exit(main())
