"""Benchmark of the takiff engine: one workload per run, answers checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ext-nondegenerate --seed 1 \
        --seconds 40 --trace 0

The run imports ``takiff`` from the checkout's ``src/`` (the package is not
installed), builds the workload's operation list from the seed and runs it
through ``takiff.cli.main(argv)`` in this one process, the way a ``takiff``
or ``paper-check`` user pays for it.  One pass is the whole fixed list,
run from cold caches and checked; passes repeat while another one fits in
``--seconds`` (there is always at least one).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``setup_s`` (median over fresh interpreters that
import takiff and build the CLI parser, half of them started before the
passes and half after), ``wall_s`` (median pass time),
``op_p50_ms`` (median ``cli.main`` latency) and ``peak_rss_mb``.  With
``--trace 1`` untraced and traced passes alternate, and the metrics are the
per-layer ones of ``tracer.py`` plus the tracing overhead; spans of the first
traced pass are written to ``bench/out/spans-<workload>.json`` (or
``--spans``).  Lines before the last one repeat every figure by name and
unit, with the op count, fail ratio, p90 latency (from 100 operations on),
host probe and the measured tree's commit and source hash.

Exit status is 0 when every answer checked out, 1 when any operation raised
or answered wrongly, and 2 when the checkout holds no takiff sources.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 8   # before the passes, and again after them
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import takiff.cli\n"
    "takiff.cli.build_parser()\n"
    "print(time.perf_counter() - t, takiff.__file__)\n")
CALIB_ITERS = 40000


def load_package():
    if not (SRC / "takiff" / "__init__.py").is_file():
        raise FileNotFoundError("no takiff sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    takiff = importlib.import_module("takiff")
    for sub in ("algebra", "linalg", "modules", "structure", "ext", "cli",
                "conformance"):
        importlib.import_module("takiff." + sub)
    origin = Path(takiff.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError("takiff imported from %s, not %s" % (origin, SRC))
    return takiff


def tree_identity():
    """(git commit or None, sha256 of the files under src/)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    commit = None
    # the ceiling keeps git from searching the checkout's parent directories
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              env=env)
        if head.returncode == 0:
            commit = head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return commit, digest.hexdigest()


def measure_setup():
    """Seconds each of several fresh interpreters takes to import takiff and
    build the CLI parser."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                             capture_output=True, text=True, timeout=120,
                             check=True).stdout.split()
        if SRC.resolve() not in Path(out[1]).resolve().parents:
            raise ImportError("setup probe imported takiff from %s" % out[1])
        times.append(float(out[0]))
    return times


def host_probe():
    """A fixed Fraction loop; tracks host CPU speed drift.  Reported only,
    never used to rescale a metric."""
    t = perf_counter()
    acc = Fraction(0)
    for i in range(1, CALIB_ITERS):
        acc += Fraction(i % 101, i % 103 + 1) * Fraction(i % 107, i % 109 + 1)
    return perf_counter() - t


def clear_caches(takiff):
    """Empty every lru_cache in the package, so that each pass starts from
    the state a fresh ``takiff`` process starts from."""
    for name in list(sys.modules):
        if name == "takiff" or name.startswith("takiff."):
            for obj in list(vars(sys.modules[name]).values()):
                if callable(getattr(obj, "cache_clear", None)) and \
                        callable(getattr(obj, "cache_info", None)):
                    obj.cache_clear()


def gen_times_word_info(takiff):
    fn = getattr(takiff.algebra, "_gen_times_word", None)
    info = getattr(fn, "cache_info", None)
    return info() if info else None


class Runner:
    def __init__(self, takiff, ops):
        self.takiff = takiff
        self.ops = ops
        self.latencies = []
        self.attempted = 0
        self.failures = []

    def run_pass(self, tracer=None):
        """One pass over the whole list from cold caches; returns its wall
        time including the answer checks.  Latencies are kept from untraced
        passes only."""
        tk = self.takiff
        clear_caches(tk)
        t0 = perf_counter()
        for op in self.ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op = self.attempted
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    t = perf_counter()
                    code = tk.cli.main(list(op.argv))
                    if tracer is None:
                        self.latencies.append(perf_counter() - t)
                if code != 0:
                    raise workloads.WrongAnswer("exit status %r" % (code,))
                op.check(out.getvalue(), tk)
            except (Exception, SystemExit) as exc:
                self.failures.append("%s: %s: %s %s" % (
                    " ".join(op.argv), type(exc).__name__, exc,
                    err.getvalue().strip()))
        return perf_counter() - t0


def run(args):
    takiff = load_package()
    commit, src_hash = tree_identity()
    ops = workloads.WORKLOADS[args.workload](args.seed, takiff)
    setup_times = [] if args.trace else measure_setup()
    calib = [host_probe()]
    runner = Runner(takiff, ops)
    deadline = perf_counter() + args.seconds
    walls, traced_walls, layer_passes = [], [], []
    spans_out = None
    while True:
        walls.append(runner.run_pass())
        cycle = walls[-1]
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                t0 = perf_counter()
                traced_walls.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
            # run_pass began with cache_clear(), which also zeroes the
            # cache's statistics, so these are the pass's deltas
            cache = gen_times_word_info(takiff)
            hits, misses = (cache.hits, cache.misses) if cache else (0, 0)
            layers = tracing.layer_metrics(tracer.spans)
            layers["algebra.gen_times_word.misses"] = misses
            layers["algebra.gen_times_word.hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0)
            layer_passes.append(layers)
            if spans_out is None:
                spans_out = {"spans": tracing.spans_to_json(tracer.spans, t0)}
            cycle += traced_walls[-1]
        if perf_counter() + cycle > deadline:
            break
    calib.append(host_probe())
    if not args.trace:
        setup_times += measure_setup()

    fail_ratio = len(runner.failures) / runner.attempted
    lat = sorted(runner.latencies)
    info = {"workload": args.workload, "seed": args.seed,
            "commit": commit, "src_sha256": src_hash,
            "passes": len(walls), "pass_walls_s": walls,
            "ops": runner.attempted,
            "ops_per_pass": len(ops), "fail_ratio": fail_ratio,
            "host.calib_before_s": calib[0], "host.calib_after_s": calib[1]}
    if len(lat) >= 100:
        info["op_p90_ms"] = statistics.quantiles(lat, n=10)[-1] * 1000
    if args.trace:
        metrics = tracing.median_metrics(layer_passes)
        for name in tracing.EXACT:
            vals = {p[name] for p in layer_passes}
            if len(vals) > 1:
                runner.failures.append("count %s differs between traced "
                                       "passes: %s" % (name, sorted(vals)))
        untraced = statistics.median(walls)
        traced = statistics.median(traced_walls)
        metrics["host.calib_s"] = statistics.median(calib)
        metrics["trace.wall_s"] = traced
        metrics["trace.overhead_s"] = traced - untraced
        metrics["trace.overhead_ratio"] = (traced - untraced) / untraced
        metrics = {name: metrics[name] for name, _ in tracing.PER_LAYER}
        units = dict(tracing.PER_LAYER)
        path = Path(args.spans) if args.spans else (
            HERE / "out" / ("spans-%s.json" % args.workload))
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(dict(info, **spans_out), fh)
        info["spans_file"] = str(path)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(lat) * 1000,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                 "peak_rss_mb": "MB"}
    for msg in runner.failures:
        print("FAILED %s" % msg, file=sys.stderr)
    for key, val in info.items():
        print("# %s: %s" % (key, val))
    for name, val in metrics.items():
        print("%-36s %14.6f %s" % (name, val, units[name]))
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures),
              "metrics": {name: {"value": val, "unit": units[name]}
                          for name, val in metrics.items()}}
    print(json.dumps(result))
    return 0 if not runner.failures else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None,
                   help="where a traced run writes its spans")
    args = p.parse_args(argv)
    try:
        return run(args)
    except (FileNotFoundError, ImportError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
