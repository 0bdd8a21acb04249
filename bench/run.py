"""Run one benchmark workload in-process and print its metrics.

    python3 bench/run.py --workload dense --seed 3 --seconds 20 --trace 0

The library is imported from ``src`` of the checkout this file sits in.  A
run generates its inputs from ``--seed``, warms up on a tiny input, then
answers its inputs again and again until ``--seconds`` have passed, and
reports medians over the answers.  Each answer is checked; a failed check or
an exception counts as a failed attempt.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, as medians
over the answers of the run.
``--trace 1`` alternates untraced and traced answers, reports the per-layer
metrics from the traced ones and the tracing overhead against the untraced
ones, and checks that several worker processes reproduce one process's
output where the workload has such a check.

The last line of standard output is the JSON result; the line before it is
a readable summary.  ``bench/out/`` receives the full record of the run,
stamped with the environment, and the spans of a traced run.
"""

import os

# Pin native thread pools before numpy is first imported, so one run uses
# one core for numerics however many the machine has.
for _variable in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SOURCE))

import numpy  # noqa: E402

import concord  # noqa: E402

if Path(concord.__file__).resolve().parent != SOURCE / "concord":
    sys.exit(f"concord was imported from {concord.__file__}, not from {SOURCE}")

from layers import install, layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Answer, Workload  # noqa: E402


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def git_sha() -> str | None:
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    # Without this test git would report an enclosing repository's HEAD.
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "concord").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "threads": os.environ["OMP_NUM_THREADS"],
    }


# After an untraced answer whose set-up took under a tenth of it, the set-up
# step is timed alone, again and again, until the repeats have taken this
# share of the answer's time.  A short set-up (a 10 ms graph build in a
# 3 s tune) is then sampled many times per answer, since single samples of
# it spread by a quarter; a set-up that takes a large part of its answer is
# sampled by the answers alone.
SETUP_REPEAT_SHARE = 0.2


@dataclass
class Attempts:
    """Answers that passed their checks, with the index of their input."""

    attempted: int = 0
    failed: int = 0
    answers: list[tuple[int, Answer]] = field(default_factory=list)
    setup_repeats_s: list[float] = field(default_factory=list)

    def answer(self, workload: Workload, index: int, data) -> Answer | None:
        self.attempted += 1
        # Garbage left by the previous answer is collected before the clock
        # starts, so each answer begins from the same heap.
        gc.collect()
        try:
            answer = workload.solve(data)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        if answer.problems:
            print(f"input {index} failed its checks: {answer.problems}", file=sys.stderr)
            self.failed += 1
            return None
        self.answers.append((index, answer))
        return answer

    def drop_changed(self) -> None:
        """Fail answers whose quality or structure differs from the first to their input."""
        first: dict[int, Answer] = {}
        kept = []
        for index, answer in self.answers:
            reference = first.setdefault(index, answer)
            if answer.fingerprint == reference.fingerprint:
                kept.append((index, answer))
            else:
                print(
                    f"input {index}: quality or structure changed between answers: "
                    f"{reference.fingerprint} then {answer.fingerprint}",
                    file=sys.stderr,
                )
                self.failed += 1
        self.answers = kept

    def quality(self) -> dict:
        """Quality of the answer to each input, averaged over the inputs."""
        firsts: dict[int, Answer] = {}
        for index, answer in self.answers:
            firsts.setdefault(index, answer)
        audited = [a.global_violations for a in firsts.values() if a.global_violations is not None]
        return {
            "f1": statistics.fmean(a.f1 for a in firsts.values()),
            "balanced_accuracy": statistics.fmean(a.balanced_accuracy for a in firsts.values()),
            "consistent_share": statistics.fmean(a.consistent_share for a in firsts.values()),
            "prior_argmax_f1": statistics.fmean(a.prior_argmax_f1 for a in firsts.values()),
            "global_violations": sum(audited) if audited else None,
            "failed_share": self.failed / self.attempted,
        }


def warmed_inputs(workload: Workload, seed: int, tiny: bool) -> list:
    """The run's inputs, after one untimed answer to a tiny input.

    Lazy imports, allocator growth and first-call costs land in the tiny
    answer instead of the first timed one.
    """
    for data in workload.inputs(seed, tiny=True):
        workload.solve(data)
    return workload.inputs(seed, tiny=tiny)


def measure(name: str, seed: int, seconds: float, tiny: bool = False) -> tuple[Attempts, dict]:
    """End-to-end metrics: medians over the answers of one process, inputs in turn.

    An answer is started only while the run's time lasts, counting the last
    answer's time, so a run ends near ``seconds``; every input is answered
    at least once.  ``setup_s`` is the median over the set-up part of every
    answer and the set-up repeats; the quality metrics are means over the
    inputs, which every answer to one input must repeat exactly.
    """
    workload = WORKLOADS[name]
    inputs = warmed_inputs(workload, seed, tiny)
    attempts = Attempts()
    started = time.perf_counter()
    last_s = 0.0
    done = 0
    while done < len(inputs) or time.perf_counter() - started + last_s < seconds:
        index = done % len(inputs)
        done += 1
        answer = attempts.answer(workload, index, inputs[index])
        if answer is None:
            continue
        last_s = answer.wall_s
        if answer.setup_s >= answer.wall_s / 10:
            continue
        repeated_s = 0.0
        while repeated_s < SETUP_REPEAT_SHARE * answer.wall_s:
            gc.collect()
            setup_start = time.perf_counter()
            workload.setup(inputs[index])
            attempts.setup_repeats_s.append(time.perf_counter() - setup_start)
            repeated_s += attempts.setup_repeats_s[-1]
    attempts.drop_changed()
    if not attempts.answers:
        sys.exit("no answer passed its checks")
    answers = [answer for _, answer in attempts.answers]
    quality = attempts.quality()
    return attempts, {
        "wall_s": statistics.median(a.wall_s for a in answers),
        "setup_s": statistics.median([a.setup_s for a in answers] + attempts.setup_repeats_s),
        "pairs_per_s": statistics.median(a.pairs / a.wall_s for a in answers),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "balanced_accuracy": quality["balanced_accuracy"],
        "consistent_share": quality["consistent_share"],
    }


def measure_traced(name: str, seed: int, seconds: float, tiny: bool = False) -> tuple[Attempts, dict, list]:
    """Per-layer metrics from untraced and traced answers to the same input, in turn.

    Which of the two goes first alternates, so that an order effect (a warm
    cache, say) cancels out of the tracing overhead.
    """
    workload = WORKLOADS[name]
    inputs = warmed_inputs(workload, seed, tiny)
    attempts = Attempts()
    spans = []
    per_answer: list[dict] = []
    untraced_s = traced_s = 0.0
    started = time.perf_counter()
    done = 0
    while done < len(inputs) or time.perf_counter() - started < seconds:
        index = done % len(inputs)
        done += 1
        if done % 2:
            plain = attempts.answer(workload, index, inputs[index])
        with install(Tracer(run=done)) as tracer:
            traced = attempts.answer(workload, index, inputs[index])
        if not done % 2:
            plain = attempts.answer(workload, index, inputs[index])
        spans.extend(tracer.spans)
        if plain is None or traced is None:
            continue
        untraced_s += plain.wall_s
        traced_s += traced.wall_s
        metrics = layer_metrics(tracer.spans)
        metrics["evaluation.f1"] = traced.f1
        metrics["evaluation.prior_argmax_f1"] = traced.prior_argmax_f1
        per_answer.append(metrics)
    attempts.drop_changed()
    if workload.parallel_check is not None:
        attempts.attempted += 1
        try:
            problems = workload.parallel_check(inputs[0], nproc())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problems = ["the parallel run raised"]
        if problems:
            print(f"parallel check failed: {problems}", file=sys.stderr)
            attempts.failed += 1
    if not per_answer:
        sys.exit("no traced answer passed its checks")
    metrics = {key: statistics.median(m[key] for m in per_answer) for key in per_answer[0]}
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    return attempts, metrics, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment()

    spans = []
    if args.trace:
        attempts, measured, spans = measure_traced(args.workload, args.seed, args.seconds)
    else:
        attempts, measured = measure(args.workload, args.seed, args.seconds)
    quality = attempts.quality()
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        sys.exit(f"metrics missing from the run: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}

    OUT.mkdir(exist_ok=True)
    stem = f"{'TRACE' if args.trace else 'BENCH'}_{args.workload}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "attempted": attempts.attempted, "failed": attempts.failed,
        "answers": len(attempts.answers), "quality": quality, "metrics": metrics,
        "wall_s": [answer.wall_s for _, answer in attempts.answers],
        "setup_s": [answer.setup_s for _, answer in attempts.answers],
        "setup_repeats_s": attempts.setup_repeats_s,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans:
        with open(OUT / f"{stem}.spans.jsonl", "w") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_dict()) + "\n")

    shown = {name: entry["value"] for name, entry in metrics.items()}
    if not args.trace:
        shown.update(quality)
    print(
        f"{args.workload} seed={args.seed} answers={len(attempts.answers)} "
        f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"sha={env['git_sha']} "
        + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in shown.items()),
        flush=True,
    )
    print(json.dumps({
        "correct": attempts.failed == 0,
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
