"""The clanhess benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload hess-sweep --seed 1 --trace 0
    python3 perfbench/run.py --self-test

It loads clanhess from the checkout's own ``src/`` and runs every workload
body in a fresh child process, one at a time.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
the per-layer metrics, taken from a traced child next to an untraced one.
The exit status is non-zero when any op failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from refclock import REFERENCE_S, clock  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")  # spans and launcher reports

SETUP_SPAWNS = 5  # set-up-only children per run; setup_s is their median
MIN_REPS = 2  # bodies per run, even past --seconds: one body is too noisy
TIMING = re.compile(r" \[\d+\.\d+s\]$", re.M)  # verify's own timings
CRITERION = re.compile(r"^PASS criterion (\d+) .*\[(\d+\.\d+)s\]$", re.M)
WORKLOADS = ("hess-sweep", "wset-table", "monk-scan", "cli-oneshot")

# cli-oneshot: (metric key, full argv, tiny argv); each runs in a fresh
# launcher process (child.py cli) with cold caches
CLI_COMMANDS = (
    ("verify_all", ["verify", "all"], ["verify", "all", "--max-n", "4"]),
    (
        "poset_inclusion",
        ["poset", "inclusion", "--p", "3", "--q", "3", "--format", "json"],
        ["poset", "inclusion", "--p", "2", "--q", "2", "--format", "json"],
    ),
    (
        "hess_report",
        ["hess", "report", "--p", "4", "--q", "4", "5,7,7,8,8,8,8,8"],
        ["hess", "report", "--p", "2", "--q", "2", "1,3,4,4"],
    ),
    ("class", ["class", "--p", "6", "--q", "6", "123456"], ["class", "--p", "3", "--q", "3", "123"]),
    ("wset", ["wset", "--p", "5", "--q", "5", "12345"], ["wset", "--p", "3", "--q", "3", "123"]),
    (
        "poset_weak",
        ["poset", "weak", "--p", "4", "--q", "4", "--format", "json"],
        ["poset", "weak", "--p", "2", "--q", "2", "--format", "json"],
    ),
    ("monk", ["monk", "4", "1234", "--p", "4", "--q", "4"], ["monk", "3", "123", "--p", "3", "--q", "3"]),
    ("clans_stats", ["clans", "stats", "+1+-2+21"], ["clans", "stats", "+1+-2+21"]),
)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CLANHESS_THREADS", None)  # keeps verify's thread pool off
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"  # clan hashes include str signs
    return env


class Proc:
    """A finished child: its stdout, exit code, peak RSS and timestamps."""

    def __init__(self, argv: list[str]) -> None:
        # stdout goes to a regular file, not a pipe: a blocking pipe write
        # interrupted by the children's SIGALRM sampler lost output
        path = os.path.join(OUT_DIR, "stdout.txt")
        with open(path, "wb") as sink:
            self.start = clock()
            proc = subprocess.Popen(argv, stdout=sink, env=child_env(), cwd=ROOT)
            # wait4, not wait(): it hands back this child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
            self.end = clock()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        with open(path, "rb") as handle:
            self.out = handle.read()

    def json(self) -> dict | None:
        try:
            return json.loads(self.out.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            return None


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def tail_percentile(ops_per_rep: int) -> float:
    """Highest percentile with at least 10 samples beyond it in one rep;
    100 (the maximum) when even p50 has fewer."""
    best = 100.0
    for p in (50.0, 90.0, 99.0, 99.9, 99.99):
        if ops_per_rep * (1 - p / 100) >= 10:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Bench:
    def __init__(self, workload: str, seed: int, shape: str, expect: str | None) -> None:
        self.workload, self.seed, self.shape = workload, seed, shape
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
            recorded = json.load(handle)[shape].get(workload)
        self.expect = expect if expect is not None else recorded
        self.problems: list[str] = []
        self.digests: list[str] = []
        self.clanhess_file: str | None = None

    def note(self, message: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(message)

    def check_digest(self, digest: str) -> int:
        """The recorded-digest check, itself one op; returns failures."""
        self.digests.append(digest)
        if digest != self.expect:
            self.note(f"output digest {digest[:16]} != recorded {str(self.expect)[:16]}")
            return 1
        return 0

    # -- in-process workloads ----------------------------------------------

    def child(self, mode: str, *extra: str) -> tuple[Proc, dict | None]:
        proc = Proc(python(CHILD, mode, self.workload, str(self.seed), self.shape, *extra))
        got = proc.json() if proc.code == 0 else None
        if got is not None:
            self.clanhess_file = got["clanhess_file"]
            # interpreter start-up, before the child's sampler ran
            got["setup_s"] += (got["started"] - proc.start) * got["scales"][0]
        return proc, got

    def setup_once(self) -> float:
        proc, got = self.child("setup")
        if got is None:
            raise SystemExit(f"set-up child failed with exit code {proc.code}")
        return got["setup_s"]

    def rep(self, spans: str | None = None) -> dict:
        proc, got = self.child("body", *([spans] if spans else []))
        if got is None:
            self.note(f"body child exited with code {proc.code}")
            return {"failed": 1, "attempted": 1, "seconds": proc.end - proc.start}
        for message in got["problems"]:
            self.note(message)
        got["failed"] += self.check_digest(got["digest"])
        got["attempted"] += 1
        got.update(seconds=proc.end - proc.start, rss_mb=proc.rss_mb)
        return got

    # -- cli-oneshot ---------------------------------------------------------

    def cli(self, mode: str, key: str, *argv: str) -> tuple[Proc, float, dict | None]:
        """One launcher process; returns it, its normalized latency from
        spawn to exit, and what it wrote to its JSON file."""
        out = os.path.join(OUT_DIR, f"cli-{key}.json")
        if os.path.exists(out):
            os.remove(out)
        proc = Proc(python(CHILD, mode, out, *argv))
        try:
            with open(out, encoding="utf-8") as handle:
                got = json.load(handle)
        except (OSError, ValueError):
            return proc, proc.end - proc.start, None
        self.clanhess_file = got["clanhess_file"]
        first, last = got["scales"]
        seconds = (
            (got["started"] - proc.start) * first  # interpreter start-up
            + got["norm_s"]
            + (proc.end - got["ended"]) * last  # exit
        )
        return proc, seconds, got

    def cli_setup_once(self) -> float:
        proc, seconds, got = self.cli("import", "import")
        if proc.code != 0 or got is None:
            raise SystemExit(f"importing clanhess.cli failed with exit code {proc.code}")
        return seconds

    def cli_rep(self, traced: bool = False) -> dict:
        commands = [(key, full if self.shape == "full" else tiny) for key, full, tiny in CLI_COMMANDS]
        random.Random(self.seed).shuffle(commands)
        started = clock()
        rep = {"ops_ms": [], "failed": 0, "attempted": 0, "rss_mb": 0.0, "trace": {}}
        layer: dict[str, float] = {}
        lines = []
        output_bytes = 0
        raw = 0.0
        kernels = []
        for key, argv in commands:
            proc, seconds, got = self.cli("cli", key, "1" if traced else "0", *argv)
            raw += proc.end - proc.start
            rep["attempted"] += 1
            rep["ops_ms"].append(seconds * 1e3)
            rep["rss_mb"] = max(rep["rss_mb"], proc.rss_mb)
            layer[f"cli.{key}_s"] = seconds
            if got is not None:
                kernels.append(got)
            output_bytes += len(proc.out)
            text = proc.out.decode(errors="replace")
            bad = proc.code != 0 or got is None
            if bad:
                self.note(f"{' '.join(argv)}: exit code {proc.code}")
            if key == "verify_all":
                passes = CRITERION.findall(text)
                if len(passes) != 8:
                    bad = True
                    self.note(f"verify all printed {len(passes)} PASS lines, expected 8")
                for index, secs in passes:
                    layer[f"verify.criterion{index}_s"] = float(secs)
            rep["failed"] += bad
            lines.append(f"{key} {sha(TIMING.sub('', text).encode())}")
            for name, value in (got or {}).get("counts", {}).items():
                rep["trace"][name] = rep["trace"].get(name, 0) + value
        layer["cli.output_bytes"] = output_bytes
        rep["attempted"] += 1
        rep["failed"] += self.check_digest(sha("\n".join(sorted(lines)).encode()))
        rep.update(
            wall_s=sum(rep["ops_ms"]) / 1e3,
            raw_wall_s=raw,
            kernel_s=statistics.median(k["kernel_s"] for k in kernels) if kernels else 0.0,
            inplace_ratio=statistics.median(k["inplace_ratio"] for k in kernels) if kernels else 0.0,
            layer=layer,
            seconds=clock() - started,
        )
        return rep

    # -- runs ----------------------------------------------------------------

    def measure(self, seconds: float) -> tuple[dict, list[dict]]:
        """End-to-end metrics: set-up children, then fresh body children
        until the next one would end after ``seconds`` (at least MIN_REPS)."""
        cli = self.workload == "cli-oneshot"
        setups = [
            self.cli_setup_once() if cli else self.setup_once() for _ in range(SETUP_SPAWNS)
        ]
        reps = []
        started = clock()
        while True:
            rep = self.cli_rep() if cli else self.rep()
            reps.append(rep)
            if not cli and "setup_s" in rep:
                setups.append(rep["setup_s"])
            if len(reps) >= MIN_REPS and clock() - started + rep["seconds"] > seconds:
                break
        good = [r for r in reps if "ops_ms" in r]
        if not good:
            return {}, reps
        per_rep = len(good[0]["ops_ms"])
        tail = tail_percentile(per_rep)
        ops = [x for r in good for x in r["ops_ms"]]
        if tail < 100:
            # over the ops of every body, a burst in one body moves it less
            op_tail = percentile(ops, tail)
        else:  # a maximum pooled over bodies is the worst body's
            op_tail = statistics.median(max(r["ops_ms"]) for r in good)
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in good),
            "setup_s": statistics.median(setups),
            "op_p50_ms": statistics.median(percentile(r["ops_ms"], 50) for r in good),
            "op_tail_ms": op_tail,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in good),
        }
        print(f"# reps: {len(reps)}; op samples: {len(ops)} ({per_rep} per rep); "
              f"op_tail_ms is p{tail:g}; set-up samples: {len(setups)}")
        self.cross_check(good)
        return values, reps

    @staticmethod
    def cross_check(good: list[dict]) -> dict:
        """Print and return the figures to check wall_s against, medians
        over the bodies: the raw wall, the in-place reference time and its
        ratio to a warm rerun (refclock.py)."""
        raw = statistics.median(r["raw_wall_s"] for r in good)
        kernel_us = statistics.median(r["kernel_s"] for r in good) * 1e6
        ratio = statistics.median(r["inplace_ratio"] for r in good)
        print(f"# raw wall: {raw:.6g} s; reference kernel in place: {kernel_us:.4g} us "
              f"(REFERENCE_S {REFERENCE_S * 1e6:.4g} us), {ratio:.4g} x its warm rerun")
        return {
            "refclock.raw_wall_s": raw,
            "refclock.kernel_us": kernel_us,
            "refclock.inplace_ratio": ratio,
        }

    def trace(self) -> tuple[dict, list[dict]]:
        """Per-layer metrics: one untraced child, then one traced child."""
        if self.workload == "cli-oneshot":
            plain = self.cli_rep()
            traced = self.cli_rep(traced=True)
        else:
            plain = self.rep()
            traced = self.rep(os.path.join(OUT_DIR, f"spans-{self.workload}.json"))
        values = dict(traced.get("trace", {}))
        values.update(plain.get("layer", {}))
        if "wall_s" in plain:
            values.update(self.cross_check([plain]))
        if "wall_s" in plain and "wall_s" in traced:
            values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            print(f"# wall, untraced / traced: {plain['wall_s']:.6g} / {traced['wall_s']:.6g} s "
                  f"normalized, {plain['raw_wall_s']:.6g} / {traced['raw_wall_s']:.6g} s raw; "
                  "per-layer times are raw")
        print(f"# spans and aggregates written under {OUT_DIR}")
        return values, [plain, traced]


def environment(clanhess_file: str | None = None) -> dict:
    try:
        sha_ = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):  # no git, or not a repository
        sha_ = ""
    return {
        "python": sys.version.split()[0],
        "git_sha": sha_ or "unknown (not a git checkout)",
        "clanhess_file": clanhess_file,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "clanhess", "__init__.py")):
        print(f"no clanhess package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    shape = "tiny" if args.tiny else "full"
    os.makedirs(OUT_DIR, exist_ok=True)
    print("# env start " + json.dumps(environment()))
    bench = Bench(args.workload, args.seed, shape, args.expect_digest)
    if args.trace:
        values, reps = bench.trace()
        wanted = spec["per_layer"]
    else:
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        values, reps = bench.measure(seconds)
        wanted = spec["end_to_end"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print("# env end " + json.dumps(environment(bench.clanhess_file)))
    for message in bench.problems:
        print(f"# FAILED: {message}")
    print(f"# output digests: {sorted(set(bench.digests))}")
    print(f"# error_rate = {failed / max(attempted, 1):.6g} fraction ({failed} of {attempted} ops)")
    absent = [m["name"] for m in wanted if m["name"] not in values]
    if args.trace and absent:
        print(f"# not exercised by {args.workload}, reported as 0: {', '.join(absent)}")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0)
        if not args.trace and m["name"] not in values:
            failed += 1  # no successful rep produced the metric
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']} = {value:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def self_test() -> int:
    """Every workload at tiny shapes, both trace modes: each metric of
    BENCHMARK.json is emitted with its unit, every per-layer metric is
    produced by some workload, and a wrong expected digest fails the run."""
    spec = load_spec()
    script = os.path.abspath(__file__)
    errors = []
    produced: set[str] = set()

    def bench(*extra: str) -> tuple[int, dict | None, str]:
        proc = subprocess.run(
            python(script, "--seed", "1", "--seconds", "1", "--tiny", *extra),
            capture_output=True, text=True, cwd=ROOT, timeout=170,
        )
        lines = proc.stdout.strip().splitlines()
        try:
            return proc.returncode, json.loads(lines[-1]), proc.stdout
        except (ValueError, IndexError):
            return proc.returncode, None, proc.stdout + proc.stderr

    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result, text = bench("--workload", workload, "--trace", str(trace))
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                errors.append(f"{label}: exit {code}\n{text}")
                continue
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
            absent = re.search(r"^# not exercised by \S+, reported as 0: (.*)$", text, re.M)
            missing = set(absent.group(1).split(", ")) if absent else set()
            if trace:
                produced |= set(want) - missing
            print(f"self-test: {label} ok")
    unproduced = {m["name"] for m in spec["per_layer"]} - produced
    if unproduced:
        errors.append(f"per-layer metrics no workload produces: {sorted(unproduced)}")
    code, result, text = bench("--workload", "hess-sweep", "--trace", "0", "--expect-digest", "0" * 64)
    if code == 0 or result is None or result["failed"] < 1 or result["correct"]:
        errors.append(f"a wrong expected digest did not fail the run: exit {code}\n{text}")
    else:
        print("self-test: wrong digest -> failed op and exit status", code)
    for error in errors:
        print("self-test FAILED:", error)
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test shapes, for seconds-long runs")
    parser.add_argument("--expect-digest", help="override the recorded output digest")
    parser.add_argument("--self-test", action="store_true", help="run the harness self-test")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
