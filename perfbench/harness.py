"""Workloads, timing loop, output checks and metrics of the amphimax benchmark.

Everything here calls amphimax through its public package attributes, looked
up at call time, so the traced mode can wrap them from outside without any
change under src/.
"""

import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import amphimax
import amphimax.instance
import amphimax.sdg
from tracing import END, INFO, JOB, NAME, PARENT, START, Tracer

ROOT = Path(__file__).resolve().parent.parent

# Instances are part of a workload's definition: the net size, and with it the
# work of a solve, changes by up to 35% between generator seeds, so the
# workload seed drives the solver's master seed and the harness's own draws.
INSTANCE_SEED = 3
# (n providers, m consumers, rank, social edges, epsilon); each rung is small
# enough for brute force.
LADDER = (
    (4, 3, 1, 2, 0.5),
    (4, 3, 2, 2, 0.8),
    (6, 5, 1, 6, 0.6),
)
# classic_im: m consumers, social edges, consumer budget b2, epsilon
CLASSIC_M, CLASSIC_EDGES, CLASSIC_B2, CLASSIC_EPSILON = 50, 150, 3, 1.0
SIGMA_CHECK_SAMPLES = 20_000
# simulate_large: providers, rank and samples per estimate; m, edges and the
# consumer set sizes are arguments only so the self-test can shrink them
LARGE_N, LARGE_RANK, LARGE_SAMPLES = 20, 2, 20
# Value printed for an end-to-end metric a workload does not measure, so that
# every result line carries every metric; it never moves.
NOT_APPLICABLE = 1.0
# Set-up is timed in a batch before every pass, so that its median is taken
# over the whole run: a shared machine switches between a fast and a ~1.7x
# slower speed for seconds at a time, and one batch would catch one of them.
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 0.4, 400

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "sigma_ratio_min": ("ratio", "higher"),
    "sigma_returned": ("consumers", "higher"),
    "sample_edges_per_s": ("1/s", "higher"),
    "ok_frac": ("ratio", "higher"),
}
PER_LAYER = {
    "diffusion.busy_s": ("s", "lower"),
    "diffusion.sample_edges_per_s": ("1/s", "higher"),
    "diffusion.calls": ("count", "lower"),
    "diffusion.call_ms_p50": ("ms", "lower"),
    "diffusion.call_ms_p99": ("ms", "lower"),
    "diffusion.samples_total": ("count", "lower"),
    "diffusion.incidence_mb": ("MiB_computed", "lower"),
    "sdg.self_s": ("s", "lower"),
    "sdg.net_points": ("count", "lower"),
    "sdg.distinct_y": ("count", "lower"),
    "sdg.distinct_pairs": ("count", "lower"),
    "sdg.useful_ratio": ("ratio", "higher"),
    "sdg.samples_per_eval": ("count", "lower"),
    "sdg.value_gap_se": ("stderr", "lower"),
    "greedy.runs": ("count", "lower"),
    "greedy.evaluations": ("count", "lower"),
    "greedy.self_s": ("s", "lower"),
    "rng.stream_calls": ("count", "lower"),
    "rng.stream_s": ("s", "lower"),
    "net.build_s": ("s", "lower"),
    "net.points": ("count", "lower"),
    "net.grid_size": ("count", "lower"),
    "instance.parse_s": ("s", "lower"),
    "instance.serialize_s": ("s", "lower"),
    "instance.validate_s": ("s", "lower"),
    "instance.rank_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
}


@dataclass
class Job:
    """One closed-loop request: `run` is timed, `inspect` checks its output afterwards.

    inspect(output) returns (problems, facts); fingerprint(output) is a string
    that must repeat byte for byte at the same seed.
    """

    name: str
    run: Callable[[], object]
    inspect: Callable[[object], tuple]
    fingerprint: Callable[[object], str]


@dataclass
class Workload:
    """setup() builds the instances; jobs(instances, seed) lists one pass;
    metrics(facts, wall_s) gives the workload's own end-to-end values."""

    name: str
    setup: Callable[[], list]
    jobs: Callable[[list, int], list]
    metrics: Callable[[list, float], dict]


def _load(instance):
    """The CLI's load path: the instance goes through its JSON document."""
    return amphimax.parse_instance(amphimax.serialize_instance(instance))


def _solution_bytes(out):
    solution, report = out
    v = solution.value
    return json.dumps(
        {
            "providers": solution.providers,
            "consumers": solution.consumers,
            "value": [v.mean, v.std_error, v.samples, v.stream_path],
            "net_point_index": solution.net_point_index,
            "report": report,
        },
        sort_keys=True,
    )


def _seed_set_problems(instance, solution):
    problems = []
    for label, chosen, budget, size in (
        ("providers", solution.providers, instance.budget_providers, instance.n_providers),
        ("consumers", solution.consumers, instance.budget_consumers, instance.n_consumers),
    ):
        if len(chosen) != budget or len(set(chosen)) != budget:
            problems.append(f"{label}: {len(chosen)} chosen, budget {budget}")
        if any(not 0 <= int(i) < size for i in chosen):
            problems.append(f"{label}: index out of range 0..{size - 1}")
    v = solution.value
    if not (math.isfinite(v.mean) and math.isfinite(v.std_error)):
        problems.append(f"value not finite: {v.mean} +- {v.std_error}")
    return problems


def _solve_facts(report):
    return {
        "net_points": len(report),
        "distinct_y": len({tuple(r["consumers"]) for r in report}),
        "distinct_pairs": len({(tuple(r["providers"]), tuple(r["consumers"])) for r in report}),
    }


def _solve_job(name, instance, epsilon, seed, inspect):
    config = amphimax.SdgConfig(epsilon=epsilon, master_seed=seed)
    return Job(name, lambda: amphimax.solve(instance, config), inspect, _solution_bytes)


def _ladder_inspect(instance, epsilon):
    def inspect(out):
        solution, report = out
        problems = _seed_set_problems(instance, solution)
        if problems:
            return problems, {}
        opt = amphimax.brute_force_opt(instance)[2]
        exact = amphimax.exact_sigma(instance, solution.providers, solution.consumers)
        ratio = exact / opt
        if epsilon <= 1.0 - 1.0 / math.e and ratio < amphimax.approximation_ratio(epsilon):
            problems.append(f"sigma/OPT {ratio} below the guarantee at epsilon {epsilon}")
        v = solution.value
        gap = (v.mean - exact) / v.std_error if v.std_error > 0 else 0.0
        facts = {"ratio": ratio, "sigma_exact": exact, "opt": opt, "gap_se": gap}
        facts.update(_solve_facts(report))
        return problems, facts

    return inspect


def small_ladder(rungs=LADDER):
    """Net-bound: thousands of tiny estimator calls, exact ground truth for every rung."""

    def setup():
        return [
            _load(amphimax.gen_rank_r(n, m, r, social_edge_count=e, seed=INSTANCE_SEED))
            for n, m, r, e, _ in rungs
        ]

    def jobs(instances, seed):
        return [
            _solve_job(f"{n}x{m}r{r}", inst, eps, seed, _ladder_inspect(inst, eps))
            for inst, (n, m, r, _, eps) in zip(instances, rungs)
        ]

    def metrics(facts, wall_s):
        return {
            "sigma_ratio_min": min((f["ratio"] for f in facts), default=0.0),
            "sigma_returned": sum(f["sigma_exact"] for f in facts),
        }

    return Workload("small_ladder", setup, jobs, metrics)


def classic_im():
    """Graph-bound: one provider, so the net is trivial and time goes to diffusion and greedy."""
    m, b2 = CLASSIC_M, CLASSIC_B2
    params = {"m": m, "edge_count": CLASSIC_EDGES, "b2": b2}

    def setup():
        return [_load(amphimax.gen_from_params("classic_im", params, INSTANCE_SEED)[0])]

    def jobs(instances, seed):
        inst = instances[0]

        def inspect(out):
            solution, report = out
            problems = _seed_set_problems(inst, solution)
            if problems:
                return problems, {}
            check = amphimax.estimate_sigma(
                inst,
                solution.providers,
                solution.consumers,
                SIGMA_CHECK_SAMPLES,
                np.random.default_rng([seed, 2]),
            )
            # the single provider activates every chosen consumer outright
            if not b2 <= check.mean <= m:
                problems.append(f"sigma {check.mean} outside [{b2}, {m}]")
            v = solution.value
            gap = (v.mean - check.mean) / math.hypot(v.std_error, check.std_error)
            facts = {"sigma_returned": check.mean, "gap_se": gap}
            facts.update(_solve_facts(report))
            return problems, facts

        return [_solve_job("classic", inst, CLASSIC_EPSILON, seed, inspect)]

    def metrics(facts, wall_s):
        return {"sigma_returned": facts[0]["sigma_returned"]} if facts else {}

    return Workload("classic_im", setup, jobs, metrics)


def simulate_large(m=3000, edge_count=20_000, sizes=(10, 100, 1)):
    """Kernel- and memory-bound: forward estimates on a large graph, no net, no greedy."""

    def setup():
        instance = amphimax.gen_rank_r(LARGE_N, m, LARGE_RANK, social_edge_count=edge_count, seed=INSTANCE_SEED)
        return [_load(instance)]

    def jobs(instances, seed):
        inst = instances[0]
        pick = np.random.default_rng([seed, 1])
        X = tuple(sorted(int(i) for i in pick.choice(LARGE_N, inst.budget_providers, replace=False)))
        order = pick.permutation(m)
        edges = len(inst.social_edges)
        out = []
        for k, size in enumerate(sizes):
            Y = tuple(sorted(int(j) for j in order[:size]))

            def run(Y=Y, k=k):
                rng = np.random.default_rng([seed, 3, k])
                return amphimax.estimate_sigma(inst, X, Y, LARGE_SAMPLES, rng)

            out.append(Job(f"y{size}", run, _estimate_inspect(inst, X, Y, LARGE_SAMPLES, edges), _estimate_bytes))
        return out

    def metrics(facts, wall_s):
        return {"sample_edges_per_s": sum(f["sample_edges"] for f in facts) / wall_s}

    return Workload("simulate_large", setup, jobs, metrics)


def _estimate_bytes(est):
    return json.dumps([est.mean, est.std_error, est.samples])


def _estimate_inspect(instance, X, Y, samples, edges):
    # expected number of directly activated consumers; the cascade only adds to it
    M = np.asarray(instance.bipartite)
    direct = float((1.0 - np.prod(1.0 - M[list(X)][:, list(Y)], axis=0)).sum())

    def inspect(est):
        problems = []
        if est.samples != samples:
            problems.append(f"{est.samples} samples, asked for {samples}")
        if not (math.isfinite(est.mean) and math.isfinite(est.std_error) and est.std_error >= 0):
            problems.append(f"estimate not finite: {est.mean} +- {est.std_error}")
        elif not direct - 4.0 * est.std_error - 1e-9 <= est.mean <= instance.n_consumers:
            problems.append(f"estimate {est.mean} outside [{direct} - 4 se, {instance.n_consumers}]")
        return problems, {"sigma": est.mean, "sample_edges": est.samples * edges}

    return inspect


WORKLOADS = {w.name: w for w in (small_ladder(), classic_im(), simulate_large())}


def _describe_estimate(args, kwargs, result):
    inst = args[0]
    return {"samples": result.samples, "edges": len(inst.social_edges), "m": inst.n_consumers}


def install_tracing(tracer):
    """Wrap the names amphimax.sdg imports, the validate that parse_instance
    calls, and the package attributes the harness calls directly."""
    targets = (
        (amphimax, "solve", "sdg", None),
        (amphimax, "estimate_sigma", "diffusion", _describe_estimate),
        (amphimax, "gen_rank_r", "generators", None),
        (amphimax, "gen_from_params", "generators", None),
        (amphimax, "serialize_instance", "instance.serialize", None),
        (amphimax, "parse_instance", "instance.parse", None),
        (amphimax.instance, "validate", "instance.validate", None),
        (amphimax.sdg, "validate", "instance.validate", None),
        (amphimax.sdg, "numerical_rank", "instance.rank", None),
        (amphimax.sdg, "build_net", "net.build", lambda a, k, r: {"points": len(r), "grid_size": r.grid_size}),
        (amphimax.sdg, "greedy_max", "greedy", lambda a, k, r: {"evaluations": r[1].evaluations}),
        (amphimax.sdg, "estimate_sigma_hat", "diffusion", _describe_estimate),
        (amphimax.sdg, "estimate_sigma", "diffusion", _describe_estimate),
        (amphimax.sdg, "stream", "rng.stream", None),
    )
    for module, attr, name, describe in targets:
        tracer.wrap(module, attr, name, describe)


_FAILED = object()


def clear_caches():
    """Empty every functools cache in the loaded amphimax modules.

    diffusion keeps per-instance data (the E x m incidence array among it) in
    lru caches, so without this the first pass would pay to build it and
    later passes would not.
    """
    for name, module in list(sys.modules.items()):
        if name == "amphimax" or name.startswith("amphimax."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(jobs, tracer=None, label="pass"):
    """Run every job once, back to back, from empty caches; returns (seconds, outputs)."""
    clear_caches()
    gc.collect()
    outputs = []
    start = perf_counter()
    for job in jobs:
        try:
            if tracer is None:
                out = job.run()
            else:
                with tracer.job_span(f"{label}/{job.name}"):
                    out = job.run()
        except Exception:  # a failing job is counted and the run goes on
            traceback.print_exc(file=sys.stderr)
            out = _FAILED
        outputs.append(out)
    return perf_counter() - start, outputs


def timed_passes(jobs, seconds, tracer=None, before_pass=None):
    """Closed loop: passes run while another one is expected to end within `seconds`.

    At least one pass runs, each after a call of `before_pass` when given.
    With a tracer every untraced pass is followed by a traced one with the
    wrappers in place. Returns (untraced pass seconds, traced pass seconds,
    outputs of every pass, names left wrapped).
    """
    plain, traced, outputs, stale = [], [], [], []
    start = perf_counter()
    while True:
        if before_pass is not None:
            before_pass()
        wall, outs = run_pass(jobs)
        plain.append(wall)
        outputs.append(outs)
        if tracer is not None:
            install_tracing(tracer)
            try:
                wall, outs = run_pass(jobs, tracer, f"pass{len(traced)}")
            finally:
                stale += tracer.restore()
            traced.append(wall)
            outputs.append(outs)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            return plain, traced, outputs, stale


def evaluate(jobs, passes):
    """Check every output of every pass.

    A job fails when it raised, when its output fails its checks, or when its
    output differs from the first pass at the same seed. Returns (attempted,
    failed, facts of each job's first output, problems).
    """
    attempted = failed = 0
    first, facts, checked, problems = {}, {}, {}, []
    for p, outs in enumerate(passes):
        for k, (job, out) in enumerate(zip(jobs, outs)):
            attempted += 1
            if out is _FAILED:
                failed += 1
                problems.append(f"pass {p} {job.name}: raised")
                continue
            fp = job.fingerprint(out)
            if (k, fp) not in checked:
                try:
                    checked[(k, fp)] = job.inspect(out)
                except Exception as exc:  # a check that cannot run fails the job
                    traceback.print_exc(file=sys.stderr)
                    checked[(k, fp)] = ([f"check raised {exc!r}"], {})
            found, job_facts = checked[(k, fp)]
            found = list(found)
            if k not in first:
                first[k], facts[k] = fp, job_facts
            elif fp != first[k]:
                found.append("output differs from the first pass at the same seed")
            if found:
                failed += 1
                problems.extend(f"pass {p} {job.name}: {msg}" for msg in found)
    return attempted, failed, [facts[k] for k in sorted(facts) if facts[k]], problems


def time_setup(workload):
    """Seconds of each of a batch of repeated setups."""
    times = []
    gc.collect()
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        start = perf_counter()
        workload.setup()
        times.append(perf_counter() - start)
    return times


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(tracer, facts, plain, traced):
    """Per-layer values for one setup plus one average traced pass."""
    spans, own = tracer.spans, tracer.self_times()

    def per_pass(pairs):
        """Sum of (span, value) pairs over the setup plus one average traced
        pass; the pass total is divided once, so counts come out exact."""
        setup, passes = 0.0, 0.0
        for span, value in pairs:
            if span[JOB] == "setup":
                setup += value
            else:
                passes += value
        return setup + passes / len(traced)

    by_name = defaultdict(list)
    for span, t in zip(spans, own):
        by_name[span[NAME]].append((span, t))

    def busy(name):
        return per_pass(by_name[name])

    def calls(name):
        return per_pass((span, 1) for span, _ in by_name[name])

    def info_sum(name, key):
        return per_pass((s, s[INFO][key]) for s in spans if s[NAME] == name)

    diffusion = [s for s in spans if s[NAME] == "diffusion"]
    durations = sorted(1000.0 * (s[END] - s[START]) for s in diffusion)
    sample_edges = per_pass((s, s[INFO]["samples"] * s[INFO]["edges"]) for s in diffusion)
    evals = [s for s in diffusion if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "greedy"]
    net_points = sum(f.get("net_points", 0) for f in facts)
    distinct_pairs = sum(f.get("distinct_pairs", 0) for f in facts)
    gaps = [f["gap_se"] for f in facts if "gap_se" in f]
    pass_spans = [t for s, t in zip(spans, own) if s[JOB] != "setup" and s[NAME] != "job"]
    return {
        "diffusion.busy_s": busy("diffusion"),
        "diffusion.sample_edges_per_s": sample_edges / busy("diffusion") if busy("diffusion") else 0.0,
        "diffusion.calls": calls("diffusion"),
        "diffusion.call_ms_p50": _percentile(durations, 0.50),
        "diffusion.call_ms_p99": _percentile(durations, 0.99),
        "diffusion.samples_total": info_sum("diffusion", "samples"),
        "diffusion.incidence_mb": max(
            (s[INFO]["edges"] * s[INFO]["m"] * 4 / 2**20 for s in diffusion), default=0.0
        ),
        "sdg.self_s": busy("sdg"),
        "sdg.net_points": net_points,
        "sdg.distinct_y": sum(f.get("distinct_y", 0) for f in facts),
        "sdg.distinct_pairs": distinct_pairs,
        "sdg.useful_ratio": distinct_pairs / net_points if net_points else 0.0,
        "sdg.samples_per_eval": statistics.fmean(s[INFO]["samples"] for s in evals) if evals else 0.0,
        "sdg.value_gap_se": statistics.fmean(gaps) if gaps else 0.0,
        "greedy.runs": calls("greedy"),
        "greedy.evaluations": info_sum("greedy", "evaluations"),
        "greedy.self_s": busy("greedy"),
        "rng.stream_calls": calls("rng.stream"),
        "rng.stream_s": busy("rng.stream"),
        "net.build_s": busy("net.build"),
        "net.points": info_sum("net.build", "points"),
        "net.grid_size": max((s[INFO]["grid_size"] for s in spans if s[NAME] == "net.build"), default=0),
        "instance.parse_s": busy("instance.parse"),
        "instance.serialize_s": busy("instance.serialize"),
        "instance.validate_s": busy("instance.validate"),
        "instance.rank_s": busy("instance.rank"),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        "trace.unattributed_frac": 1.0 - sum(pass_spans) / sum(traced),
    }


def run(workload, seed, seconds, trace, spans_path=None):
    """Measure one workload; returns (result, detail).

    result is the benchmark's last output line; detail holds pass times,
    per-job facts and every problem found.
    """
    stale = []
    if trace:
        tracer = Tracer()
        install_tracing(tracer)
        try:
            with tracer.job_span("setup"):
                instances = workload.setup()
        finally:
            stale += tracer.restore()
        jobs = workload.jobs(instances, seed)
        plain, traced, passes, more = timed_passes(jobs, seconds, tracer)
        stale += more
        attempted, failed, facts, problems = evaluate(jobs, passes)
        values = layer_metrics(tracer, facts, plain, traced)
        table, not_applicable = PER_LAYER, []
        if spans_path is not None:
            tracer.write(spans_path)
    else:
        jobs = workload.jobs(workload.setup(), seed)
        setup_times = []
        plain, traced, passes, _ = timed_passes(
            jobs, seconds, before_pass=lambda: setup_times.extend(time_setup(workload))
        )
        rss = peak_rss_mib()
        attempted, failed, facts, problems = evaluate(jobs, passes)
        wall_s = statistics.median(plain)
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss,
            "ok_frac": (attempted - failed) / attempted,
        }
        values.update(workload.metrics(facts, wall_s))
        table = END_TO_END
        not_applicable = [name for name in table if name not in values]
        values.update(dict.fromkeys(not_applicable, NOT_APPLICABLE))
    problems += [f"{name} still wrapped after tracing" for name in stale]
    result = {
        "correct": failed == 0 and not stale,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, (unit, _) in table.items()},
    }
    detail = {
        "pass_s": plain,
        "traced_pass_s": traced,
        "not_applicable": not_applicable,
        "facts": facts,
        "problems": problems,
    }
    return result, detail


def _git_commit(root):
    """Commit of a git checkout, read from .git without running git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "amphimax").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _blas_threads():
    """Thread count OpenBLAS reports, when the library numpy bundles can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def stamp(workload, seed, trace):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(ROOT),
        "src_sha256": _src_digest(ROOT),
    }
