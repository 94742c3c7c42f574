"""Run one pwl-rotor benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload staircase --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The workload's inputs are drawn from ``--seed``; the program sees only the
generated inputs.  The run repeats whole rounds of the workload's jobs until
``--seconds`` have passed and reports the mean round, which averages over the
phases in which a shared host runs slower or faster.  Between rounds, spread
over the same window, fresh interpreters repeat set-up and the first answer.
With ``--trace 1`` every other round runs with spans around each layer and the
per-layer metrics are printed instead of the end-to-end ones.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported from
``src/`` of this checkout and nowhere else; without it the run exits 2.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
# Expected warnings (e.g. the residual's skipped symmetry strips) would
# otherwise print once per job and round.
os.environ["PWL_ROTOR_LOG"] = "error"

from perfbench import checks, tracing, workloads  # noqa: E402

OUT = ROOT / "perfbench" / "out"
#: Fresh processes that repeat set-up and the first answer, for their medians;
#: they run between rounds, spread evenly over the measured window.
PROBES = 10

END_TO_END_UNITS = {"setup_s": "s", "first_answer_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class MissingProgram(RuntimeError):
    """``src/pwlrotor`` of this checkout cannot be imported."""


def load_program():
    """Import ``pwlrotor`` (and its CLI) from this checkout's ``src/``."""
    try:
        import pwlrotor
        import pwlrotor.cli  # noqa: F401
    except ImportError as exc:
        raise MissingProgram("cannot import pwlrotor from %s: %s" % (ROOT / "src", exc))
    where = Path(pwlrotor.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise MissingProgram("pwlrotor was imported from %s, not from %s" % (where, ROOT / "src"))
    return pwlrotor


def timed_setup(workload, seed, workdir):
    """Generate the inputs, then time importing the program and building the jobs."""
    inputs = workloads.WORKLOADS[workload].generate(seed)
    t0 = time.perf_counter()
    pr = load_program()
    jobs = workloads.WORKLOADS[workload].build(pr, inputs, workdir)
    return pr, jobs, time.perf_counter() - t0


def first_answer(jobs):
    """Seconds from process start to the first job's checked answer.

    A failure is not counted here: the same job fails again, and is counted
    and reported, in every round.
    """
    try:
        jobs[0].check(jobs[0].run())
    except Exception:
        pass
    return time.perf_counter() - T_START


def probe(workload, seed, workdir):
    """``(setup_s, first_answer_s)`` of a fresh interpreter (``--probe``)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe", str(workdir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_round(jobs):
    """Run every job once; returns (seconds in ``run``, raised, wrong answers)."""
    wall = 0.0
    raised = wrong = 0
    for job in jobs:
        t0 = time.perf_counter()
        try:
            answer = job.run()
        except Exception:  # a failing job is counted, and the round goes on
            wall += time.perf_counter() - t0
            raised += 1
            print("job %s raised:\n%s" % (job.name, traceback.format_exc()), file=sys.stderr)
        else:
            wall += time.perf_counter() - t0
            try:
                job.check(answer)
            except checks.CheckFailed as exc:
                wrong += 1
                print("job %s: wrong answer: %s" % (job.name, exc), file=sys.stderr)
    return wall, raised, wrong


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def metadata(pr, args):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": pr.KERNEL_IMPLEMENTATION,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def run_workload(args):
    workdir = OUT / ("%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, os.getpid()))
    workdir.mkdir(parents=True)
    try:
        pr, jobs, setup_s = timed_setup(args.workload, args.seed, workdir)
        samples = [(setup_s, first_answer(jobs))]
        plain, traced, layer_rounds = [], [], []
        raised = wrong = rounds = 0
        probes = 0 if args.trace else PROBES
        t_rounds = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t_rounds
            while len(samples) <= probes and elapsed >= (len(samples) - 0.5) * args.seconds / probes:
                samples.append(probe(args.workload, args.seed,
                                     workdir / ("probe%d" % len(samples))))
            tracer = None
            if args.trace and rounds % 2 == 1:
                tracer = tracing.Tracer()
                restore = tracing.install(tracer)
            try:
                wall, r, w = run_round(jobs)
            finally:
                if tracer is not None:
                    restore()
            raised, wrong, rounds = raised + r, wrong + w, rounds + 1
            if tracer is None:
                plain.append(wall)
            else:
                traced.append(wall)
                layer_rounds.append(tracing.layer_metrics(tracer))
            if time.perf_counter() - t_rounds >= args.seconds and (traced or not args.trace):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples += [probe(args.workload, args.seed, workdir / ("probe%d" % i))
                    for i in range(len(samples), probes + 1)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {name: statistics.median(r[name] for r in layer_rounds)
                   for name in layer_rounds[0]}
        # Each traced round minus the untraced round just before it: neighbours
        # share the host's phase, which the overhead is smaller than.
        metrics["trace.overhead_s"] = statistics.median(t - u for u, t in zip(plain, traced))
    else:
        metrics = {
            "setup_s": statistics.median(s[0] for s in samples),
            "first_answer_s": statistics.median(s[1] for s in samples),
            "wall_s": statistics.mean(plain),
            "peak_rss_mb": peak_rss_mb,
        }
    result = {
        "correct": wrong == 0,
        "attempted": rounds * len(jobs),
        "failed": raised + wrong,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = {"meta": metadata(pr, args), "rounds": rounds, "jobs": len(jobs),
              "plain_round_s": plain, "traced_round_s": traced,
              "setup_and_first_answer_s": samples,
              "result": result}
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1))
    print("# meta " + json.dumps(record["meta"], sort_keys=True))
    for k, v in metrics.items():
        print("# %-44s %.6g %s" % (k, v, unit_of(k)))
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join("[%s] %s" % (name, line) for line in lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"]["%s.%s" % (name, k)] = v
    print(json.dumps(combined))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", metavar="WORKDIR", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "pwlrotor" / "__init__.py").is_file():
            raise MissingProgram("no pwlrotor package under %s" % (ROOT / "src"))
        if args.probe is not None:
            Path(args.probe).mkdir(parents=True)
            _, jobs, setup_s = timed_setup(args.workload, args.seed, args.probe)
            print(json.dumps([setup_s, first_answer(jobs)]))
            return 0
        if args.workload == "all":
            return run_all(args)
        run_workload(args)
    except MissingProgram as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
