"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper-s1 --seed 3 --seconds 5 --trace 0

Run from the root of a checkout: the program is imported from ./src. A run
makes its inputs from --seed, does whole rounds of the workload's timed work
until --seconds have passed (at least one round), checks the program's outputs
apart from the program, and prints
{"correct", "attempted", "failed", "metrics"} as its last line. With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, taken from spans recorded around the set-up and the first round, and the
spans are written to .perfbench/trace-<workload>-<seed>.json.

numpy and its BLAS run single-threaded: the thread variables are set here,
before numpy is imported.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("paper-s1", "binary-s2", "score-batch")
DOCS_TIMEOUT_S = 900


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def source_digest() -> str:
    """Digest of the program's source and of the workload definitions the documents are made from."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [HERE / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def require_program() -> None:
    if not (SRC / "autotab" / "__init__.py").is_file():
        raise SystemExit(f"error: no autotab package under {SRC}; run from the root of a checkout")


def import_program():
    require_program()
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import autotab

    if Path(autotab.__file__).resolve().parent != (SRC / "autotab").resolve():
        raise SystemExit(f"error: imported autotab from {autotab.__file__}, not from {SRC}")
    import workloads

    return workloads


def ensure_docs(digest: str) -> float:
    """Make the score-batch documents once per source digest, in a child process.

    Returns the seconds spent making them (0 when they were already there), so
    that set-up time can leave out this one-time fill.
    """
    final = OUT / f"docs-{digest}"
    if final.is_dir():
        return 0.0
    started = time.perf_counter()
    work = OUT / f"docs-{digest}.tmp{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--make-docs", str(work)],
            check=True,
            timeout=DOCS_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        try:
            work.rename(final)
        except OSError:
            if not final.is_dir():
                raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return time.perf_counter() - started


def run_rounds(seconds: float, one_round) -> None:
    start = time.perf_counter()
    k = 0
    while True:
        one_round(k)
        k += 1
        if time.perf_counter() - start >= seconds:
            return


def fit_workload(wl, cfg, seed: int, seconds: float, rec, run_dir: Path) -> dict:
    data_path = run_dir / "input.csv"
    wl.write_fit_input(cfg, seed, data_path)
    if rec is not None:
        rec.active = True
    n_rows = wl.load_and_clean(data_path)
    setup_s = process_age()

    state = {"times": [], "attempted": 0, "failed": 0, "errors": []}

    def one_round(k: int) -> None:
        out_dir = run_dir / f"round{k}"
        if rec is not None:
            rec.active = k == 0
        t = time.perf_counter()
        result = wl.run_fit(cfg, data_path, out_dir)
        state["times"].append(time.perf_counter() - t)
        if rec is not None:
            rec.active = False
        state["attempted"] += len(cfg.applicable())
        state["failed"] += len(wl.failed_presets(result))
        if k == 0:
            state["peak"] = peak_rss_mb()
            state["bytes"] = wl.model_bytes(out_dir)
            state["digests"] = wl.checks.file_digests(out_dir)
            try:
                wl.check_fit_outputs(cfg, data_path, out_dir, result)
            except wl.checks.CheckError as exc:
                state["errors"].append(str(exc))
        else:
            try:
                wl.checks.check_identical(state["digests"], wl.checks.file_digests(out_dir), "emitted files")
            except wl.checks.CheckError as exc:
                state["errors"].append(str(exc))
            shutil.rmtree(out_dir, ignore_errors=True)

    run_rounds(seconds, one_round)

    return {
        "setup_s": setup_s,
        "run_s": statistics.median(state["times"]),
        "first_round_s": state["times"][0],
        "score_rows_per_s": statistics.median(n_rows / t for t in state["times"]),
        "model_bytes": state["bytes"],
        "attempted": state["attempted"],
        "failed": state["failed"],
        "peak_rss_mb": state["peak"],
        "errors": state["errors"],
    }


def score_workload(wl, cfg, seed: int, seconds: float, rec, docs_dir: Path) -> dict:
    raw = wl.raw_batch(cfg.rows, seed)
    labels = raw.target()
    if rec is not None:
        rec.active = True
    dep = wl.load_deployment(docs_dir)
    if rec is not None:
        rec.active = False
    setup_s = process_age()

    state = {"times": [], "attempted": 0, "errors": []}

    def one_round(k: int) -> None:
        if rec is not None:
            rec.active = k == 0
        t = time.perf_counter()
        level1, ens = wl.score_round(dep, raw)
        state["times"].append(time.perf_counter() - t)
        if rec is not None:
            rec.active = False
        state["attempted"] += len(level1) + 1
        if k == 0:
            state["peak"] = peak_rss_mb()
        outputs = {pid: hashlib.sha256(p.tobytes()).hexdigest() for pid, p in level1.items()}
        outputs["ensemble"] = hashlib.sha256(ens.tobytes()).hexdigest()
        try:
            if k == 0:
                state["outputs"] = outputs
                wl.checks.check_scores(raw.row_count, level1, ens, dep.weights, labels, cfg.accuracy_floor)
            else:
                wl.checks.check_identical(state["outputs"], outputs, "probabilities")
        except wl.checks.CheckError as exc:
            state["errors"].append(str(exc))

    run_rounds(seconds, one_round)
    try:
        wl.check_docs(docs_dir, dep)
    except wl.checks.CheckError as exc:
        state["errors"].append(str(exc))
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(state["times"]),
        "first_round_s": state["times"][0],
        "score_rows_per_s": statistics.median(raw.row_count / t for t in state["times"]),
        "model_bytes": wl.model_bytes(docs_dir),
        "attempted": state["attempted"],
        "failed": 0,
        "peak_rss_mb": state["peak"],
        "errors": state["errors"],
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "score_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "model_bytes": "bytes",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-docs", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.make_docs is not None:
        wl = import_program()
        wl.make_docs(wl.SCORE_BATCH, args.make_docs)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    fill_s = 0.0
    if args.workload == "score-batch":
        require_program()
        digest = source_digest()
        fill_s = ensure_docs(digest)
    wl = import_program()

    rec = None
    ctx = contextlib.nullcontext()
    if args.trace:
        import spans

        rec = spans.Recorder()
        ctx = spans.installed(rec)

    run_dir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        with ctx:
            if args.workload == "score-batch":
                res = score_workload(wl, wl.SCORE_BATCH, args.seed, args.seconds, rec, OUT / f"docs-{digest}" / "run")
            else:
                cfg = wl.PAPER_S1 if args.workload == "paper-s1" else wl.BINARY_S2
                res = fit_workload(wl, cfg, args.seed, args.seconds, rec, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    res["setup_s"] -= fill_s  # the one-time making of the documents is not set-up

    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    if rec is not None:
        metrics = rec.metrics()
        rec.write(
            OUT / f"trace-{args.workload}-{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "traced_round_s": res["first_round_s"]},
        )
    else:
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(
        json.dumps(
            {
                "correct": not res["errors"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
