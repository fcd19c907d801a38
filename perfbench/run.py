"""End-to-end and per-layer benchmark of arbopack's condition checks and
packing pipelines.

    python3 perfbench/run.py --workload pack_yes --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one process each

Run from the repository root; the library is imported from ``src/``.

One op is what ``arbopack check|pack --output json`` does minus argparse and
file I/O: parse the instance document, call the library with a fresh
``Budget``, encode the answer as a JSON document.  Ops run as a closed loop:
one caller, one op at a time, no threads.  Each op gets a step cap and a
wall-clock alarm; either firing fails the op.  Outside the timed op every
answer is checked: a packing must pass ``verify`` for its species, a
refusal's witness must pass ``witness_violates`` for the condition the
pipeline reports, and the outcome must match the generator's planted label.

With ``--trace 0`` the run measures whole rounds of instances until
``--seconds`` of op time have passed and prints the end-to-end metrics.
Reported times are scaled to a nominal machine speed read by a probe loop
around every op (see PROBE_NOMINAL_S).
With ``--trace 1`` it runs a fixed number of rounds traced, so every count
repeats exactly for a seed, then the same rounds untraced for the tracing
overhead, and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

OP_CAP = 5_000_000       # Budget steps per op; the largest op uses about 60k
OP_WALL_S = 20           # per-op alarm; the slowest op takes about 1 s
MIN_OPS = 100            # p90 needs at least 10 samples beyond it
HARD_STOP_S = 75         # wall limit of one measured loop, whatever it has done
# Speed normalization.  On a shared host the CPU's speed for this process
# moves by up to 1.7x within seconds and between minutes, as neighbours load
# it.  A fixed pure-Python loop of frozenset and dict work, like the
# library's, timed right before and right after each op, reads the speed of
# that moment; every reported time is scaled by PROBE_NOMINAL_S / probe,
# i.e. expressed at the speed where the probe takes PROBE_NOMINAL_S (about an
# unloaded 2-core VM of the kind this was tuned on).
PROBE_ITERS = 150
PROBE_REPEATS = 3        # the fastest of three discards interrupt spikes
PROBE_NOMINAL_S = 100e-6
PROBE_BASE = frozenset(range(0, 12, 2))
SETUP_REPS = 9
RSS_ROUNDS = 3           # peak RSS is read after this many rounds, a fixed amount of work
# rounds run traced: about 10 s of untraced op time each on a 2-core VM
TRACE_ROUNDS = {"check_sweep": 2, "pack_yes": 6, "pack_no": 16}

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import arbopack, arbopack.cli\n"
    "print(time.perf_counter() - start)\n"
)


def load_library():
    """Import arbopack from this checkout's sources, never from elsewhere."""
    if not (SRC / "arbopack" / "__init__.py").is_file():
        raise SystemExit(f"error: no arbopack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import arbopack
    import arbopack.cli

    if Path(arbopack.__file__).resolve().parent != SRC / "arbopack":
        raise SystemExit(f"error: arbopack was imported from {arbopack.__file__}")
    return arbopack, arbopack.cli


api, cli = load_library()


# ---------------------------------------------------------------------------
# one op and its certificate check

PIPELINE_CALLS = {
    "mrb_mixed": lambda inst, b: api.mrb_mixed_pack(inst.graph, inst.roots, inst.matroid, b),
    "cor1": lambda inst, b: api.corollary1_pack(inst.graph, inst.roots, inst.bounds.k, b),
    "main": lambda inst, b: api.main_pack(inst.graph, inst.bounds, b),
}


def perform(case: workloads.Case, budget, tracer: Tracer | None):
    """The timed op.  Returns the parsed instance, its names, the library's
    answer and the JSON text a CLI user would read."""
    inst, names = api.parse_instance(case.doc)
    if case.kind == "check":
        result = api.evaluate(case.target, inst, budget)
    else:
        result = PIPELINE_CALLS[case.target](inst, budget)
    with tracer.span("instances.to_doc") if tracer else nullcontext():
        if isinstance(result, api.Packing):
            doc = api.packing_to_doc(result, names)
            doc["species"] = case.target
        elif case.kind == "check":
            doc = {"theorem": case.target, "holds": result.holds}
            if not result.holds:
                doc["witness"] = cli.witness_to_doc(result.witness, names)
        else:
            doc = {"feasible": False, "species": case.target,
                   "witness": cli.witness_to_doc(result.witness, names)}
        text = json.dumps(doc, sort_keys=True, indent=2)
    return inst, names, result, text


def _packing_spec(target: str, inst):
    if target == "mrb_mixed":
        return api.PackingSpec("matroid_reachability_based",
                               roots=inst.roots, matroid=inst.matroid)
    if target == "cor1":
        n, k = inst.graph.n, inst.bounds.k
        bounds = api.Bounds(f=(0,) * n, g=inst.roots.counts, k=k, l=0,
                            lprime=max(k * n, 1))
        return api.PackingSpec("bounded_regular_limited", bounds=bounds)
    return api.PackingSpec("bounded_regular_limited", bounds=inst.bounds)


def _refused_condition(target: str, inst):
    """The condition a pipeline's refusal witness violates, with the
    instance it is read against."""
    if target == "mrb_mixed":
        h = api.SetFunctionOracle.from_matroid_roots(inst.graph.n, inst.roots, inst.matroid)
        return "new_orient", api.Instance(graph=inst.graph, h=h)
    return target, inst


def certify(case: workloads.Case, inst, names, result, text: str) -> str | None:
    """Why the op's answer is wrong, or None when it is right."""
    doc = json.loads(text)
    if case.kind == "check":
        if doc["holds"] != case.label:
            return f"{case.target} verdict {doc['holds']} against planted {case.label}"
        if not result.holds and not api.witness_violates(case.target, inst, result.witness):
            return f"{case.target} witness does not violate the condition"
        return None
    found = "members" in doc
    if found != case.label:
        return f"{case.target} found={found} against planted {case.label}"
    if found:
        packing = api.parse_packing(doc, names)
        if not api.verify(inst.graph, packing, _packing_spec(case.target, inst)).holds:
            return f"{case.target} packing fails verify"
        return None
    cond, winst = _refused_condition(case.target, inst)
    if not api.witness_violates(cond, winst, result.witness):
        return f"{case.target} witness does not violate {cond}"
    return None


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_WALL_S} s")


# ---------------------------------------------------------------------------
# the closed loop

@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    scales: list = field(default_factory=list)   # machine speed over nominal at each op
    failures: list = field(default_factory=list)
    ops_by_target: Counter = field(default_factory=Counter)
    time_by_target: Counter = field(default_factory=Counter)
    outcomes: Counter = field(default_factory=Counter)
    steps: int = 0
    rounds: int = 0
    peak_rss_mb: float = 0.0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def normalized(self) -> list:
        """Op latencies at the nominal machine speed."""
        return [x * s for x, s in zip(self.latencies, self.scales)]

    def fingerprint(self) -> dict:
        """Counts that depend on the seed and the algorithms, never on time."""
        return {
            "ops": len(self.latencies),
            "yes": self.outcomes["yes"],
            "no": self.outcomes["no"],
            "ops_by_target": dict(sorted(self.ops_by_target.items())),
            "budget_steps": self.steps,
            "failed": len(self.failures),
        }


def probe() -> float:
    """Time a fixed pure-Python loop: the machine's speed right now."""
    best = math.inf
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        seen: dict = {}
        for i in range(PROBE_ITERS):
            x = frozenset((i & 7, (i >> 1) & 7, (i >> 2) & 15))
            seen[x | PROBE_BASE] = len(x & PROBE_BASE) + seen.get(x, 0)
        best = min(best, time.perf_counter() - start)
    return best


def run_case(case: workloads.Case, index: int, tally: Tally, tracer: Tracer | None) -> None:
    budget = api.Budget(OP_CAP)
    reason = None
    before = probe()
    if tracer:
        tracer.begin_op(index, budget, case.target)
    signal.alarm(OP_WALL_S)
    start = time.perf_counter()
    try:
        inst, names, result, text = perform(case, budget, tracer)
    except Exception as exc:  # the op boundary: every failure is counted, not raised
        reason = f"{case.target} n={case.n}: {type(exc).__name__}: {exc}"
    finally:
        latency = time.perf_counter() - start
        signal.alarm(0)
        scale = 2 * PROBE_NOMINAL_S / (before + probe())
        if tracer:
            tracer.end_op(scale)
    tally.scales.append(scale)
    if reason is None:
        try:
            reason = certify(case, inst, names, result, text)
        except Exception as exc:  # an answer the checks cannot even read is wrong
            reason = f"{case.target} n={case.n}: check raised {type(exc).__name__}: {exc}"
        tally.outcomes["yes" if isinstance(result, api.Packing) or result.holds is True
                       else "no"] += 1
    if reason is not None:
        tally.failures.append(reason)
    tally.latencies.append(latency)
    tally.ops_by_target[case.target] += 1
    tally.time_by_target[case.target] += latency
    tally.steps += OP_CAP - budget.remaining


def run_rounds(rounds, seconds: float | None, tracer: Tracer | None = None) -> Tally:
    """Run whole rounds until the op time reaches seconds (and MIN_OPS ops),
    or every given round when seconds is None."""
    signal.signal(signal.SIGALRM, _on_alarm)
    tally = Tally()
    started = time.perf_counter()
    for cases in rounds:
        for case in cases:
            run_case(case, len(tally.latencies), tally, tracer)
            if time.perf_counter() - started > HARD_STOP_S:
                return tally
        tally.rounds += 1
        if tally.rounds <= RSS_ROUNDS:
            tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if seconds is not None and tally.busy_s >= seconds and len(tally.latencies) >= MIN_OPS:
            break
    return tally


def fingerprint(workload: str, seed: int, rounds: int) -> dict:
    """Outcome, op and step counts of the first rounds of a seed."""
    return run_rounds(workloads.generate(workload, seed, rounds), None).fingerprint()


def round_stream(workload: str, seed: int, first: list):
    yield first
    index = 1
    while True:
        yield workloads.generate_round(workload, seed, index)
        index += 1


# ---------------------------------------------------------------------------
# metrics

def import_seconds() -> float:
    """Import time of the library in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(out.stdout.strip())


def measure_setup(workload: str, seed: int):
    """Median over SETUP_REPS of library import plus generation and
    encoding of the first round; returns it with that round."""
    samples = []
    first = None
    for _ in range(SETUP_REPS):
        before = probe()
        imported = import_seconds()
        start = time.perf_counter()
        first = workloads.generate_round(workload, seed, 0)
        elapsed = imported + time.perf_counter() - start
        samples.append(elapsed * PROBE_NOMINAL_S * 2 / (before + probe()))
    return statistics.median(samples), first


def percentile(ordered: list, q: float) -> float:
    return ordered[math.ceil(q * len(ordered)) - 1]


def e2e_metrics(tally: Tally, setup_s: float) -> dict:
    lat = sorted(tally.normalized())
    return {
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "p50_ms": {"value": percentile(lat, 0.5) * 1e3, "unit": "ms"},
        "p90_ms": {"value": percentile(lat, 0.9) * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": tally.peak_rss_mb, "unit": "MB"},
    }


# (layer function, metric kinds) as reported per op in the traced run
LAYER_METRICS = (
    ("matroids.check_rank_axioms", ("calls", "self_ms", "steps")),
    ("packing.verify", ("calls", "self_ms")),
    ("setfuncs.check_intersecting_supermodular", ("calls", "self_ms", "steps")),
    ("setfuncs.oracle", ("calls", "hit_ratio")),
    ("conditions.evaluate", ("calls", "self_ms", "steps")),
    ("matroids.rank", ("calls", "self_ms")),
    ("matroids.independent", ("calls", "self_ms")),
    ("gpoly.feasible", ("calls", "self_ms", "steps")),
    ("gpoly.integer_points", ("self_ms",)),
    ("gpoly.t_contains", ("calls",)),
    ("gpoly.tpoly_rank", ("calls", "hit_ratio")),
    ("packing.find_packing", ("calls", "self_ms", "steps")),
    ("packing.mrb_mixed_pack", ("self_ms",)),
    ("packing.corollary1_pack", ("self_ms",)),
    ("packing.main_pack", ("self_ms",)),
    ("orientation.mixed_orient", ("calls", "self_ms")),
    ("orientation.frank_orient", ("calls", "self_ms")),
    ("orientation.compute_h2", ("calls", "self_ms")),
    ("orientation.check_mixed_cover", ("calls", "self_ms")),
    ("instances.parse_instance", ("self_ms",)),
    ("instances.to_doc", ("self_ms",)),
)
UNITS = {"calls": "calls/op", "self_ms": "ms/op", "steps": "steps/op", "hit_ratio": "ratio"}


def layer_metrics(tracer: Tracer, traced: Tally, plain: Tally) -> dict:
    ops = len(traced.latencies)
    out = {}
    for layer, kinds in LAYER_METRICS:
        calls = tracer.calls.get(layer, 0)
        values = {
            "calls": calls / ops,
            "self_ms": tracer.self_s.get(layer, 0.0) * 1e3 / ops,
            "steps": tracer.steps.get(layer, 0) / ops,
            "hit_ratio": 1.0 - tracer.distinct.get(layer, 0) / calls if calls else 0.0,
        }
        for kind in kinds:
            out[f"{layer}.{kind}"] = {"value": values[kind], "unit": UNITS[kind]}
    out["structures.budget.steps_per_op"] = {"value": traced.steps / ops, "unit": "steps/op"}
    overhead = sum(plain.normalized()) / sum(traced.normalized())
    out["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return out


# ---------------------------------------------------------------------------
# reporting

def describe(workload: str, seed: int, tally: Tally, metrics: dict, label: str) -> None:
    ops = len(tally.latencies)
    if label == "untraced":
        label += f", speed {statistics.median(tally.scales):.3f} of nominal"
    print(f"{workload} seed={seed} {label}: {ops} ops in {tally.rounds} rounds, "
          f"{len(tally.failures)} failed (failed_frac {len(tally.failures) / ops:.4f}), "
          f"yes={tally.outcomes['yes']} no={tally.outcomes['no']}, "
          f"budget steps={tally.steps}")
    busy = tally.busy_s
    for target in sorted(tally.ops_by_target):
        print(f"  {target:<12} ops={tally.ops_by_target[target]:<5} "
              f"wall_share={tally.time_by_target[target] / busy:.3f}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    for reason in tally.failures[:20]:
        print(f"  FAILED {reason}")


def describe_shares(tracer: Tracer, tally: Tally) -> None:
    """Per condition or pipeline: the share of its traced op time spent
    inside each recorded span (inclusive) and in each layer's own code."""
    for label, totals in (("inside", tracer.inclusive()), ("self", tracer.group_self)):
        for target in sorted(tally.time_by_target):
            shares = sorted(((sec / tally.time_by_target[target], name)
                             for (group, name), sec in totals.items() if group == target),
                            reverse=True)
            text = ", ".join(f"{name} {share:.1%}" for share, name in shares[:8])
            print(f"  {target} {label}: {text}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    setup_s, first = measure_setup(workload, seed)
    stream = round_stream(workload, seed, first)
    if not trace:
        tally = run_rounds(stream, seconds)
        metrics = e2e_metrics(tally, setup_s)
        describe(workload, seed, tally, metrics, "untraced")
    else:
        rounds = [next(stream) for _ in range(TRACE_ROUNDS[workload])]
        tracer = Tracer()
        tracer.install()
        try:
            tally = run_rounds(rounds, None, tracer)
        finally:
            tracer.uninstall()
        plain = run_rounds(rounds, None)
        metrics = layer_metrics(tracer, tally, plain)
        describe(workload, seed, tally, metrics, "traced")
        describe_shares(tracer, tally)
        out_dir = HERE / "traces"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"{workload}-seed{seed}.jsonl")
    failed = len(tally.failures)
    print(json.dumps({"correct": failed == 0, "attempted": len(tally.latencies),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for workload in workloads.WORKLOADS:
        # one process per workload, so peak RSS belongs to that workload
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=600,
        )
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
