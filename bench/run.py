"""End-to-end and per-layer benchmark of platedamp.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run from a checkout's root; the program is imported from its ``src/``. Each
job runs in a fresh process (``bench/job.py``), one at a time, with the
machine's default BLAS threading. A run first starts one set-up-only probe
(which also fills the bytecode and file caches and records the numeric
libraries and BLAS threads), then repeats the workload's job until
``--seconds`` have passed and at least ``MIN_JOBS`` jobs ran.

``--trace 0`` reports the end-to-end metrics, as medians over the jobs:
``wall_s`` (the job after import and scenario parse), ``setup_s`` (process
start, import of ``platedamp.cli`` and scenario parse), ``cpu_s`` (user plus
system CPU of the job) and ``peak_rss_mb`` (peak resident memory of the job
process). ``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics of ``bench/layers.py`` as medians over the traced jobs,
plus ``trace.overhead_s``, the traced minus the untraced median wall time.

Every job's outputs are checked (``bench/checks.py``): all numbers finite,
the workload's invariants, byte-identical files across the run's jobs
(traced or not), for ``fine_frf`` byte-identity with a ``--threads 1`` job,
and for a matching scenario the committed reference values. A job that exits
non-zero or fails a check counts in ``failed``; ``fail_ratio`` is ``failed``
over ``attempted``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment. ``--workload all`` runs every workload and prints
a table instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
from workloads import DEFAULT_SEED, WORKLOADS, Workload, scenario

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
SRC = ROOT / "src"

MIN_JOBS = 3
JOB_TIMEOUT_S = 40.0
# No job starts later than this after the run began, so that a run whose
# jobs hang or crawl still ends within three minutes.
DEADLINE_AFTER_SECONDS_S = 75.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """The jobs of one workload run and the checks across them."""

    def __init__(self, workload: Workload, text: bytes, directory: Path,
                 reference: dict | None):
        self.workload = workload
        self.dir = directory
        self.text = text
        self.scenario_path = directory / "scenario.json"
        self.scenario_path.write_bytes(text)
        self.reference = reference
        self.jobs: list[dict] = []
        self.baseline: dict | None = None  # digests and problems of the first output

    def job(self, trace: bool = False, threads: int | None = None, probe: bool = False,
            timed: bool = True) -> dict:
        """Run one job in a fresh process, check it and record it.

        Only ``timed`` jobs give metric samples; the probe never does.
        """
        n = len(self.jobs)
        out_dir = self.dir / f"job{n}"
        out_dir.mkdir()
        report_path = self.dir / f"job{n}.json"
        cmd = [sys.executable, str(BENCH / "job.py"), "--report", str(report_path),
               "--config", str(self.scenario_path), "--out", str(out_dir),
               "--threads", str(self.workload.threads if threads is None else threads)]
        if probe:
            cmd.append("--probe")
        elif self.workload.command is None:
            cmd.append("--descent")
        else:
            cmd += ["--command", self.workload.command]
        if trace:
            cmd.append("--trace")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        job = {"trace": trace, "probe": probe, "timed": timed and not probe, "problems": []}
        t_spawn = _now()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            job["problems"].append(f"timed out after {JOB_TIMEOUT_S} s")
            return self._record(job)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            job["problems"].append(f"exit {proc.returncode}: {tail[0]}")
            return self._record(job)
        report = json.loads(report_path.read_text(encoding="utf-8"))
        if Path(report["platedamp"]) != (SRC / "platedamp").resolve():
            job["problems"].append(f"imported platedamp from {report['platedamp']}")
        job.update(report=report, setup_s=report["t_ready"] - t_spawn,
                   wall_s=report["t_done"] - report["t_ready"], cpu_s=report["cpu_s"],
                   peak_rss_mb=report["peak_rss_kb"] * 1024 / 1e6)
        if trace:
            missing = set(self.workload.layers) - set(report["layers_seen"])
            if missing:
                job["problems"].append(f"no spans from layers {sorted(missing)}")
        if not probe:
            job["digests"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                              for p in sorted(out_dir.iterdir())}
            job["problems"] += self._check_outputs(out_dir, job["digests"])
        if n > 0:
            shutil.rmtree(out_dir)  # the first output stays for inspection
        return self._record(job)

    def _check_outputs(self, out_dir: Path, digests: dict) -> list[str]:
        if self.baseline is None:
            problems, values = [], None
            try:
                values = checks.inspect_outputs(
                    self.workload.command, out_dir, json.loads(self.text))
                if self.reference is not None:
                    problems += checks.compare_reference(values, self.reference)
            except (checks.OutputError, OSError, KeyError, ValueError) as exc:
                problems.append(f"{type(exc).__name__}: {exc}")
            self.baseline = {"digests": digests, "problems": problems, "values": values}
            return problems
        if digests != self.baseline["digests"]:
            return ["output files differ from the run's first job"]
        return list(self.baseline["problems"])

    def _record(self, job: dict) -> dict:
        job["ok"] = not job["problems"]
        self.jobs.append(job)
        return job

    def measure(self, seconds: float, trace: bool, min_jobs: int = MIN_JOBS) -> None:
        """Probe, then jobs until ``seconds`` passed (alternating when tracing)."""
        deadline = _now() + seconds + DEADLINE_AFTER_SECONDS_S
        self.job(probe=True)
        start = _now()
        while _now() < deadline:
            timed = [j for j in self.jobs if j["timed"]]
            if len(timed) >= (2 * min_jobs if trace else min_jobs) and _now() - start >= seconds:
                break
            self.job(trace=trace and len(timed) % 2 == 1)
        if self.workload.threads > 1:
            if _now() < deadline:
                self.job(threads=1, timed=False)
            else:
                self._record({"trace": False, "probe": False, "timed": False,
                              "problems": ["--threads 1 check not run: run deadline passed"]})

    @property
    def failed(self) -> int:
        return sum(not j["ok"] for j in self.jobs)

    def samples(self, key: str, trace: bool) -> list[float]:
        return [j[key] for j in self.jobs if key in j and j["timed"] and j["trace"] == trace]

    def end_to_end(self) -> dict[str, float]:
        return {m: statistics.median(self.samples(m, False)) for m in END_TO_END_UNITS}

    def per_layer(self) -> dict[str, float]:
        traced = [j["report"]["layers"] for j in self.jobs
                  if j["timed"] and j["trace"] and "report" in j]
        out = {m: statistics.median(t[m] for t in traced) for m in layers.UNITS}
        out["trace.overhead_s"] = (statistics.median(self.samples("wall_s", True))
                                   - statistics.median(self.samples("wall_s", False)))
        return out


def environment(run: Run) -> dict:
    """Recorded, not gated: versions, BLAS threading, cores, code size."""
    probe = next((j["report"] for j in run.jobs if j["probe"] and "report" in j), {})
    sha = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": sha,
        "python": probe.get("python"),
        "numpy": probe.get("numpy"),
        "scipy": probe.get("scipy"),
        "blas": probe.get("blas"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "src_python_lines": src_lines,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, min_jobs: int = MIN_JOBS) -> Run:
    """Run one workload; the caller removes ``run.dir`` when done with it."""
    text = scenario(workload, seed, smoke)
    reference = None if smoke else checks.load_reference(
        workload.name, hashlib.sha256(text).hexdigest())
    directory = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    run = Run(workload, text, directory, reference)
    try:
        run.measure(seconds, trace, min_jobs)
    except BaseException:
        shutil.rmtree(directory, ignore_errors=True)
        raise
    return run


def _result(run: Run, trace: bool) -> dict:
    metrics = {}
    try:
        values = run.per_layer() if trace else run.end_to_end()
    except statistics.StatisticsError:  # no timed job of a kind completed
        values = {}
    units = dict(layers.UNITS, **{"trace.overhead_s": "s"}) if trace else END_TO_END_UNITS
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
    return {"correct": run.failed == 0 and len(metrics) == len(units),
            "attempted": len(run.jobs), "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "platedamp" / "cli.py").is_file():
        print(f"bench: no platedamp sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    env = None
    for name in names:
        run = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        try:
            env = env or environment(run)
            results[name] = _result(run, bool(args.trace))
            for job in run.jobs:
                for problem in job["problems"]:
                    print(f"bench: {name}: {problem}", file=sys.stderr)
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)

    print(json.dumps({"environment": env}))
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(f"{'workload':<14} {'wall_s':>9} {'setup_s':>9} {'cpu_s':>9} "
          f"{'peak_rss_mb':>12} {'fail_ratio':>11}")
    for name, res in results.items():
        m = {k: v["value"] for k, v in res["metrics"].items()}
        cells = [f"{m.get(k, float('nan')):>{w}.4f}" for k, w in
                 (("wall_s", 9), ("setup_s", 9), ("cpu_s", 9), ("peak_rss_mb", 12))]
        ratio = res["failed"] / res["attempted"]
        print(f"{name:<14} {' '.join(cells)} {ratio:>11.4f}")
    print("units: wall_s s, setup_s s, cpu_s s, peak_rss_mb MB (1e6 bytes), "
          "fail_ratio failed/attempted jobs")
    print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
