"""Run one benchmark workload against the ordkit CLI and print its metrics.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The CLI is launched with this interpreter
and the checkout's own ``src`` on ``PYTHONPATH``, so nothing is installed.
One client, closed loop: a request starts only after the previous process
has exited.

``--trace 0`` measures the end-to-end metrics from ``ordkit`` processes.
``--trace 1`` runs the requests once as processes and then in this process,
untraced and traced in turn, and reports the per-layer metrics.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import Result, expectation_problem, output_digest, output_problems  # noqa: E402
from workloads import WORK_DIR, WORKLOADS, requests_for  # noqa: E402

REQUEST_TIMEOUT_S = 60.0
SETUP_EVERY_S = 2.0
SETUP_MIN_RUNS = 7
STARTUP_RUNS = 5
OUT_DIR = HERE / "out"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Runs one process at a time, with its stdout and stderr in files.

    A request process reports its own peak RSS (``VmHWM``) into a file as it
    exits.  The ``ru_maxrss`` that ``wait4`` returns cannot be used: Linux
    keeps the high-water mark of the image before ``exec``, a copy of this
    harness, so every request would read at least the harness's own size.
    """

    def __init__(self, work: Path):
        self.env = _child_env()
        self.out_path = work / "stdout"
        self.err_path = work / "stderr"
        self.hwm_path = work / "vmhwm"
        self.boot = (
            "try:\n"
            "    from ordkit.cli import entrypoint\n"
            "    entrypoint()\n"
            "finally:\n"
            f"    with open('/proc/self/status') as s, open({str(self.hwm_path)!r}, 'w') as f:\n"
            "        f.write(next(line for line in s if line.startswith('VmHWM:')))\n"
        )

    def run(self, argv: list[str], timeout: float = REQUEST_TIMEOUT_S) -> Result:
        self.hwm_path.unlink(missing_ok=True)
        with open(self.out_path, "w+b") as out, open(self.err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _pid, status = os.waitpid(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            code = None if killed.is_set() and proc.returncode < 0 else proc.returncode
            stdout, stderr = out.read(), err.read()
        hwm = int(self.hwm_path.read_text().split()[1]) if self.hwm_path.exists() else 0
        return Result(code, stdout, stderr, seconds, hwm)

    def request(self, argv) -> Result:
        return self.run(["-c", self.boot, *argv])


def process_pass(launcher: Launcher, requests) -> tuple[float, list[Result]]:
    start = time.perf_counter()
    results = [launcher.request(req.argv) for req in requests]
    return time.perf_counter() - start, results


def call_inprocess(cli, argv, tracer=None, request_id=0) -> tuple[float, bytes]:
    """Run one request through ``cli.main`` here; returns its call time and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                cli.main(list(argv))
            else:
                tracer.request(request_id, cli.main, list(argv))
        except Exception:  # an uncaught error is a traceback in a process; keep going
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return seconds, out.getvalue().encode("utf-8")


def paired_pass(cli, requests, tracer, flip: int):
    """Each request untraced and traced back to back, so both see the same host.

    Which of the two goes first alternates by request and by ``flip``; in
    the first round (``flip`` 0) an untimed call of each request goes before
    both, so neither pays for first-time allocation.  Returns the untraced
    and traced summed call times and stdouts.
    """
    seconds = {False: 0.0, True: 0.0}
    stdouts: dict[bool, list[bytes]] = {False: [], True: []}
    for i, req in enumerate(requests):
        if flip == 0:
            call_inprocess(cli, req.argv)
        for traced in ((False, True) if (i + flip) % 2 == 0 else (True, False)):
            with tracer.installed(cli) if traced else contextlib.nullcontext():
                took, out = call_inprocess(cli, req.argv, tracer if traced else None, i)
            seconds[traced] += took
            stdouts[traced].append(out)
    return (seconds[False], stdouts[False]), (seconds[True], stdouts[True])


def startup_seconds(launcher: Launcher) -> tuple[float, float]:
    """Median bare-interpreter time, and the median extra time of ``import ordkit.cli``."""
    launcher.run(["-c", "import ordkit.cli"])
    bare, imported = [], []
    for _ in range(STARTUP_RUNS):
        bare.append(launcher.run(["-c", "pass"]).seconds)
        imported.append(launcher.run(["-c", "import ordkit.cli"]).seconds)
    interp = statistics.median(bare)
    return interp, statistics.median(imported) - interp


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def print_note(line: str) -> None:
    print(f"  {line}")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Run:
    """One invocation: the requests, their results and what went wrong."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.requests = requests_for(workload, seed)
        self.work = ROOT / WORK_DIR
        self.launcher = Launcher(self.work)
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.reference: list[Result] | None = None

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for req in self.requests:
            for path, text in req.files:
                (ROOT / path).write_text(text)

    def record_pass(self, results: list[Result]) -> None:
        """Count failed requests; check outputs once and compare later passes byte for byte.

        A request that breaks the exit-code contract fails.  It also makes the
        run incorrect when the request was meant to succeed, as does any output
        that an independent check rejects.
        """
        problems = {}
        for i, (req, res) in enumerate(zip(self.requests, results)):
            problem = expectation_problem(req, res)
            if problem:
                problems[i] = problem
                if req.expect == 0:
                    self.wrong.append(f"request {i} was meant to succeed: {problem}")
        if self.reference is None:
            self.reference = results
            stdouts = [res.stdout if res.code == 0 else b"" for res in results]
            for i, problem in output_problems(self.requests, stdouts):
                self.wrong.append(f"request {i}: {problem}")
                problems.setdefault(i, problem)
        else:
            self.compare("process pass", [res.stdout for res in results])
        self.attempted += len(results)
        self.failures.extend(
            f"request {i} [{' '.join(self.requests[i].argv)[:70]}]: {problem}"
            for i, problem in sorted(problems.items())
        )

    def compare(self, label: str, stdouts: list[bytes]) -> None:
        for i, (ref, out) in enumerate(zip(self.reference, stdouts)):
            if ref.stdout != out:
                self.wrong.append(f"request {i}: {label} stdout differs from the first process pass")

    def end_to_end(self) -> dict:
        """Whole passes until the next would overrun ``seconds``, with ``--help`` probes in between.

        A request's latency is its median over the passes; ``wall_s`` sums
        them, so it estimates one pass.  Medians keep a pass that met a slow
        spell of the shared host from moving the figures.  The set-up probes
        are spread over the run so that their median sees the same host as
        the requests do.

        ``cli-small`` also prints the median and 90th percentile of the
        request latencies: with 100 requests, ten lie above the 90th.  The
        other workloads have under 20 requests of very unequal size, so no
        tail percentile of theirs has ten samples beyond it.
        """
        self.launcher.request(["--help"])  # fills the bytecode cache; not timed
        setup: list[float] = []
        samples: list[list[float]] = [[] for _ in self.requests]
        rss = []
        started = last_probe = time.perf_counter()
        passes = 0
        while True:
            results = []
            for i, req in enumerate(self.requests):
                if time.perf_counter() - last_probe >= SETUP_EVERY_S:
                    setup.append(self.launcher.request(["--help"]).seconds)
                    last_probe = time.perf_counter()
                res = self.launcher.request(req.argv)
                results.append(res)
                samples[i].append(res.seconds)
                rss.append(res.maxrss_kib)
            self.record_pass(results)
            passes += 1
            if time.perf_counter() - started + sum(r.seconds for r in results) > self.seconds:
                break
        while len(setup) < SETUP_MIN_RUNS:
            setup.append(self.launcher.request(["--help"]).seconds)
        latencies = [statistics.median(ts) for ts in samples]
        print_note(f"{passes} process passes of {len(self.requests)} requests; "
                  f"{len(setup)} set-up probes")
        if self.workload == "cli-small":
            for q in (50, 90):
                print_note(f"{f'p{q}_ms':24s} {1000 * percentile(latencies, q):.6g} ms "
                          f"(over {len(latencies)} request latencies)")
        return {
            "wall_s": metric(sum(latencies), "s"),
            "peak_rss_mb": metric(max(rss) / 1024, "MB"),
            "setup_s": metric(statistics.median(setup), "s"),
        }

    def per_layer(self) -> dict:
        from ordkit import cli
        from tracer import CORE_LAYERS, Tracer

        started = time.perf_counter()
        interp, imported = startup_seconds(self.launcher)
        process_wall, results = process_pass(self.launcher, self.requests)
        self.record_pass(results)
        plain, traced = [], []
        tracers: list[Tracer] = []
        while True:
            tracer = Tracer()
            (plain_s, plain_out), (traced_s, traced_out) = paired_pass(
                cli, self.requests, tracer, len(tracers))
            self.compare("untraced in-process", plain_out)
            self.compare("traced in-process", traced_out)
            plain.append(plain_s)
            traced.append(traced_s)
            tracers.append(tracer)
            if time.perf_counter() - started + plain_s + traced_s > self.seconds:
                break
        counts = [(t.calls, t.emitted, t.in_bytes, t.out_bytes) for t in tracers]
        if any(c != counts[0] for c in counts):
            self.wrong.append("per-layer counts differ between traced rounds")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{self.workload}.jsonl"
        tracers[-1].write(spans_path)
        print_note(f"{len(traced)} in-process rounds, each request untraced and traced; spans of the last "
                  f"in {spans_path.relative_to(ROOT)}")

        selfs = [t.self_times() for t in tracers]
        first = tracers[0]

        def self_s(layer):
            return statistics.median(s.get(layer, 0.0) for s in selfs)

        out = {
            "startup.interp_s": metric(interp, "s"),
            "startup.import_s": metric(imported, "s"),
            "cli.self_s": metric(self_s("cli"), "s"),
            "cli.requests": metric(first.calls["cli"], "count"),
            "textio.parse_s": metric(self_s("textio.parse"), "s"),
            "textio.parse_calls": metric(first.calls["textio.parse"], "count"),
            "textio.in_bytes": metric(first.in_bytes, "bytes"),
            "textio.render_s": metric(self_s("textio.render"), "s"),
            "textio.render_calls": metric(first.calls["textio.render"], "count"),
            "textio.out_bytes": metric(first.out_bytes, "bytes"),
        }
        for layer in CORE_LAYERS:
            out[f"{layer}.self_s"] = metric(self_s(layer), "s")
            out[f"{layer}.calls"] = metric(first.calls[layer], "count")
            out[f"{layer}.emitted"] = metric(first.emitted[layer], "count")
        out["trace.overhead_frac"] = metric(
            statistics.median(traced) / statistics.median(plain) - 1, "ratio")
        out["process.spawn_s"] = metric(process_wall - statistics.median(plain), "s")
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ordkit" / "cli.py").is_file():
        print(f"no ordkit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    run = Run(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.requests)} requests per pass")
    run.prepare()
    try:
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    for name, m in metrics.items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    failed = len(run.failures)
    print(f"  {'fail_frac':24s} {failed / run.attempted:.6g} ratio ({failed}/{run.attempted})")
    for line in run.failures:
        print(f"    failed: {line}")
    for line in run.wrong:
        print(f"    wrong: {line}")
    print(f"  {'output_sha256':24s} {output_digest(run.reference)}")
    print(json.dumps({"correct": not run.wrong, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
