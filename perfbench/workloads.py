"""The benchmark's three workloads and the metrics computed from their runs.

Each workload is a fixed list of systems ("items"). A run makes one full pass
over the items, then keeps cycling through them until the operations it
timed add up to the requested seconds. Per-item figures are medians over
that item's operations, and workload figures are built from the per-item
medians, so every item counts once however many passes a run makes.

- ladder: the paper's five-state system and cascade(n,d) at (4,2), (5,2) and
  (4,3). Each operation lifts one rung with `superlinearize`, then
  re-verifies it through a JSON document round trip. Construction-heavy
  (substitute, Lie chains, span solver, verify_symbolic); no RK4 work.
- population: the first POPULATION_SIZE systems of the acceptance-criterion-5
  distribution. Each operation runs parse -> dependency graph and condition
  -> superlinearize -> document round trip -> verify_symbolic under a
  wall-clock budget. The median is per-call overhead in many small inputs;
  the heavy tail shows in p95 and in the over-budget share.
- simulate: the five-state system and cascade(5,2), lifted during set-up.
  Each operation runs `simulate` with its CSV written to memory, then
  `verify_numeric` at steps 1e-3 and 5e-4. The RK4 kernel and
  `compile_field` dominate; construction is outside the timed region.
"""

from __future__ import annotations

import gc
import io
import json
import math
import random
import resource
import signal
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Optional

import gen
import oracle

from slin import depgraph, document, lift, sysparse, verify

# Per-operation wall-clock budgets in seconds.
#
# The population's budget sits in a gap of its cost distribution: its
# slowest finishing system takes about 0.45 s and the next about 2 s, so
# timing noise cannot move a system across it.
BUDGETS = {"ladder": 120.0, "population": 1.0, "simulate": 60.0}

# The population is fixed rather than drawn from the run's seed: over a few
# hundred systems, which ones land in the heavy tail varies so much from one
# draw to the next that p95 differs by ~25% between seeds. The run's seed
# orders the systems and picks the oracle's evaluation points. Its first
# 200 systems are exactly those of acceptance criterion 5.
POPULATION_SEED = 20240814
POPULATION_SIZE = 400

SETUP_REPEATS = {"ladder": 5, "population": 5, "simulate": 5}

SIM_T_END = 1.0
SIM_STEP = 1e-3
# Criterion 4: the projection error is at most 1e-6, and halving the step
# shrinks it at least 12-fold (RK4 is fourth order, so ideally 16-fold).
MAX_PROJECTION_ERR = 1e-6
MIN_HALVING_GAIN = 12.0
# Distance allowed between RK4 at SIM_STEP and DOP853 at rtol 1e-12.
MAX_TRAJECTORY_ERR = 1e-9


class OverBudget(BaseException):
    """Raised by SIGALRM inside an operation; BaseException so no handler in slin eats it."""


@dataclass
class Sample:
    """One operation on one item."""

    latency: float  # seconds; inf when over budget
    stages: dict
    over_budget: bool


@dataclass
class Item:
    gsys: gen.GenSystem
    system: object = None  # parsed PolySystem, for workloads that parse in set-up
    x0: tuple = ()
    lifted: object = None  # SuperLinearization used by simulate
    samples: list = field(default_factory=list)
    doc: Optional[str] = None  # first checked document text
    lift_info: Optional[dict] = None
    counts: Optional[Counter] = None  # traced counts of the first finished operation
    layer_time: dict = field(default_factory=lambda: defaultdict(Counter))
    final_state: Optional[tuple] = None
    projection_err: float = 0.0


class Stages:
    """Times named stages of one operation; a stage cut short keeps its partial time."""

    def __init__(self, tracer, item):
        self.times = {}
        self.tracer = tracer
        self.item = item

    @contextmanager
    def __call__(self, name):
        before = dict(self.tracer.inclusive) if self.tracer else None
        start = time.perf_counter()
        try:
            with self.tracer.span("stage." + name) if self.tracer else nullcontext():
                yield
        finally:
            self.times[name] = self.times.get(name, 0.0) + time.perf_counter() - start
            if self.tracer:
                spent = self.item.layer_time[name]
                for key, total in self.tracer.inclusive.items():
                    spent[key] += total - before.get(key, 0.0)


# --- set-up -----------------------------------------------------------------


def _lift_info(sl, text):
    bits = 0
    for value in [e for row in sl.A for e in row] + list(sl.D):
        bits = max(bits, value.numerator.bit_length(), value.denominator.bit_length())
    return {
        "m": sl.m,
        "chain_created": sum(c.created for c in sl.chains),
        "chain_cap": sum(c.cap for c in sl.chains),
        "expansion_terms": sum(len(o.expansion.terms) for o in sl.observables),
        "max_coeff_bits": bits,
        "doc_bytes": len(text.encode()),
    }


def _roundtrip(sl, tracer):
    with tracer.span("document.roundtrip") if tracer else nullcontext():
        text = json.dumps(document.lift_to_document(sl))
        back = document.document_to_lift(json.loads(text))
    return text, back


def setup_ladder(seed):
    rungs = [gen.fivestate(), gen.cascade(4, 2), gen.cascade(5, 2), gen.cascade(4, 3)]
    return [Item(g, system=sysparse.parse_system(g.render())) for g in rungs], {}


def setup_population(seed):
    items = [Item(g) for g in gen.population(POPULATION_SEED, POPULATION_SIZE)]
    random.Random(seed).shuffle(items)
    return items, {}


def setup_simulate(seed):
    rng = random.Random(seed)
    items = []
    stages = {"lift": {}, "verify": {}}
    for g in (gen.fivestate(), gen.cascade(5, 2)):
        system = sysparse.parse_system(g.render())
        start = time.perf_counter()
        sl = lift.superlinearize(system)
        lifted = time.perf_counter()
        text, back = _roundtrip(sl, None)
        report = verify.verify_symbolic(system, back)
        stages["lift"][g.name] = lifted - start
        stages["verify"][g.name] = time.perf_counter() - lifted
        if not report.ok:
            raise RuntimeError(f"verify_symbolic rejected the lift of {g.name}")
        # Magnitudes of at least 0.5 keep the RK4 error (about 1e-13) far
        # enough above roundoff for the step-halving check to measure it.
        x0 = tuple(rng.choice((-1, 1)) * rng.uniform(0.5, 1.0) for _ in range(g.dim))
        item = Item(g, system=system, x0=x0, lifted=back)
        item.doc = text
        item.lift_info = _lift_info(sl, text)
        items.append(item)
    return items, stages


SETUPS = {"ladder": setup_ladder, "population": setup_population, "simulate": setup_simulate}


# --- operations ---------------------------------------------------------------


@dataclass
class LiftOutput:
    condition_ok: bool = True
    lifted: object = None
    reloaded: object = None
    text: str = ""
    verified: bool = False


def op_ladder(item, stage, tracer):
    out = LiftOutput()
    with stage("lift"):
        out.lifted = lift.superlinearize(item.system)
    with stage("verify"):
        out.text, out.reloaded = _roundtrip(out.lifted, tracer)
        out.verified = verify.verify_symbolic(item.system, out.reloaded).ok
    return out


def op_population(item, stage, tracer):
    out = LiftOutput()
    with stage("parse"):
        system = sysparse.parse_system(item.gsys.render())
    with stage("depgraph"):
        g = depgraph.build_wdg(system)
        d = depgraph.scc_decomposition(g)
        out.condition_ok = depgraph.check_condition(g, d).ok
        depgraph.build_skeleton(g, d)
    with stage("lift"):
        out.lifted = lift.superlinearize(system)
    with stage("verify"):
        out.text, out.reloaded = _roundtrip(out.lifted, tracer)
        out.verified = verify.verify_symbolic(system, out.reloaded).ok
    return out


@dataclass
class SimOutput:
    csv: str
    final_state: tuple
    n_samples: int
    errors: tuple


def op_simulate(item, stage, tracer):
    with stage("simulate"):
        traj = verify.simulate(item.system.rhs, item.x0, SIM_T_END, SIM_STEP)
        buf = io.StringIO()
        verify.write_trajectory_csv(traj, item.gsys.names, buf)
    with stage("numeric"):
        errors = tuple(
            verify.verify_numeric(item.system, item.lifted, item.x0, SIM_T_END, step)
            for step in (SIM_STEP, SIM_STEP / 2)
        )
    return SimOutput(buf.getvalue(), traj.states[-1], len(traj), errors)


OPS = {"ladder": op_ladder, "population": op_population, "simulate": op_simulate}


# RK4 steps in one simulate operation: the run, then two flows at each step.
SIM_OP_STEPS = 7 * round(SIM_T_END / SIM_STEP)


# --- output checks (outside the timed region) ---------------------------------


def _expansion_dicts(sl, n):
    return oracle.unit_expansions(n) + [dict(o.expansion.terms) for o in sl.observables]


def check_lift(item, out, rng):
    """None when the output is right, else what is wrong with it."""
    if not out.condition_ok:
        return "check_condition rejected a system that satisfies the condition"
    if not out.verified:
        return "verify_symbolic rejected the re-loaded lift"
    if item.doc is not None and out.text == item.doc:
        return None  # the same document was checked on an earlier operation
    g, sl, back = item.gsys, out.lifted, out.reloaded
    if tuple(back.var_names[: g.dim]) != g.names:
        return f"lift is over {back.var_names[: g.dim]}, system over {g.names}"
    if (back.A, back.D) != (sl.A, sl.D) or _expansion_dicts(back, g.dim) != _expansion_dicts(
        sl, g.dim
    ):
        return "the document round trip changed the lift"
    row = oracle.lift_identity_row(g, back.A, back.D, _expansion_dicts(back, g.dim), rng)
    if row:
        return f"the lift identity fails on row {row}"
    if item.doc is None:
        item.doc = out.text
        item.lift_info = _lift_info(sl, out.text)
    return None


def check_simulate(item, out, rng):
    lines = out.csv.splitlines()
    if lines[0] != "t," + ",".join(item.gsys.names) or len(lines) != out.n_samples + 1:
        return "the CSV header or row count is wrong"
    last = [float(v) for v in lines[-1].split(",")]
    if last[1:] != list(out.final_state):
        return "the CSV's last row differs from the final state"
    coarse, fine = out.errors
    if not coarse <= MAX_PROJECTION_ERR:
        return f"projection error {coarse:.3e} above {MAX_PROJECTION_ERR:g}"
    if fine > 0 and coarse / fine < MIN_HALVING_GAIN:
        return f"halving the step only improved {coarse:.3e} -> {fine:.3e}"
    if item.final_state is not None and item.final_state != out.final_state:
        return "the trajectory differs from an earlier operation's"
    item.final_state = out.final_state
    item.projection_err = max(item.projection_err, coarse)
    return None


def check_simulate_reference(item):
    """The RK4 end state against scipy; once per item, after peak memory is read."""
    err = oracle.trajectory_error(item.gsys, item.x0, SIM_T_END, item.final_state)
    if not err <= MAX_TRAJECTORY_ERR:
        return f"RK4 end state is {err:.3e} from DOP853"
    return None


CHECKS = {"ladder": check_lift, "population": check_lift, "simulate": check_simulate}


# --- the run --------------------------------------------------------------------


def percentile(values, q):
    """Linear interpolation between order statistics; +inf propagates."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    frac = pos - lo
    if frac == 0:
        return v[lo]
    if math.isinf(v[hi]):
        return math.inf
    return v[lo] + (v[hi] - v[lo]) * frac


@dataclass
class RunResult:
    workload: str
    items: list
    setup_s: float
    setup_stages: dict
    ops: int
    failed: int
    over_budget: int
    measured_s: float
    peak_rss_mb: float
    failures: list
    tracer: object = None


def run(workload, seed, seconds, tracer=None):
    setup = SETUPS[workload]
    op = OPS[workload]
    check = CHECKS[workload]
    budget = BUDGETS[workload]

    setup_times = []
    setup_stages = defaultdict(lambda: defaultdict(list))
    for _ in range(SETUP_REPEATS[workload]):
        start = time.perf_counter()
        items, stages = setup(seed)
        setup_times.append(time.perf_counter() - start)
        for stage, per_item in stages.items():
            for name, t in per_item.items():
                setup_stages[stage][name].append(t)

    # Set-up objects live for the whole run; keep the collector off them.
    gc.collect()
    gc.freeze()
    rng = random.Random(seed)
    failures = []
    for item in items:
        if item.lifted is not None:  # lifted during set-up
            g = item.gsys
            row = oracle.lift_identity_row(
                g, item.lifted.A, item.lifted.D, _expansion_dicts(item.lifted, g.dim), rng
            )
            if row:
                failures.append(f"{g.name}: the lift identity fails on row {row}")
    ops = 0
    failed = len(failures)
    over = 0
    measured = 0.0
    armed = [False]

    def alarm(signum, frame):
        if armed[0]:
            raise OverBudget

    signal.signal(signal.SIGALRM, alarm)
    try:
        while ops < len(items) or measured < seconds:
            item = items[ops % len(items)]
            ops += 1
            stage = Stages(tracer, item)
            if tracer:
                tracer.counts = Counter()
                tracer.aggregate = True
            out = error = None
            start = time.perf_counter()
            armed[0] = True
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                with tracer.span("op") if tracer else nullcontext():
                    out = op(item, stage, tracer)
            except OverBudget:
                pass
            except Exception as exc:  # a raising operation is a counted failure
                error = f"{type(exc).__name__}: {exc}"
            finally:
                armed[0] = False
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            measured += elapsed
            if tracer:
                tracer.aggregate = False
            over_budget = out is None and error is None
            if out is not None:
                error = check(item, out, rng)
                if error is None and tracer and item.counts is None:
                    item.counts = tracer.counts
            if over_budget:
                over += 1
            elif error is not None:
                failed += 1
                failures.append(f"{item.gsys.name}: {error}")
            latency = math.inf if over_budget else elapsed
            item.samples.append(Sample(latency, stage.times, over_budget))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        gc.unfreeze()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload == "simulate":
        for item in items:
            if item.final_state is not None:
                error = check_simulate_reference(item)
                if error is not None:
                    failed += 1
                    failures.append(f"{item.gsys.name}: {error}")

    return RunResult(
        workload=workload,
        items=items,
        setup_s=statistics.median(setup_times),
        setup_stages=setup_stages,
        ops=ops,
        failed=failed,
        over_budget=over,
        measured_s=measured,
        peak_rss_mb=peak_rss_mb,
        failures=failures,
        tracer=tracer,
    )


def _median_stage(item, name):
    return statistics.median(s.stages.get(name, 0.0) for s in item.samples)


def end_to_end(res: RunResult, import_s: float):
    """Every end-to-end figure of one run, as {name: (value, unit)}."""
    items = res.items
    latencies = [statistics.median(s.latency for s in it.samples) for it in items]
    if res.workload == "simulate":
        lift_s = sum(statistics.median(v) for v in res.setup_stages["lift"].values())
        verify_s = sum(statistics.median(v) for v in res.setup_stages["verify"].values())
    else:
        lift_s = sum(_median_stage(it, "lift") for it in items)
        verify_s = sum(_median_stage(it, "verify") for it in items)
    budget_ms = BUDGETS[res.workload] * 1e3
    out = {
        "setup_s": (import_s + res.setup_s, "s"),
        "lift_s": (lift_s, "s"),
        "verify_s": (verify_s, "s"),
        "lift_dim": (sum(it.lift_info["m"] for it in items if it.lift_info), "count"),
        # An item over budget counts as +inf; the reported value is capped at
        # the budget so that it stays a finite number.
        "system_ms.p50": (min(percentile(latencies, 0.5) * 1e3, budget_ms), "ms"),
        "system_ms.p95": (min(percentile(latencies, 0.95) * 1e3, budget_ms), "ms"),
        "peak_rss_mb": (res.peak_rss_mb, "MB"),
        "failed_frac": (res.failed / res.ops, "ratio"),
        "over_budget_frac": (res.over_budget / res.ops, "ratio"),
    }
    if res.workload == "simulate":
        steps = SIM_OP_STEPS * res.ops
        out["sim_steps_per_s"] = (steps / res.measured_s, "1/s")
    return out


def per_layer(res: RunResult):
    """Per-layer figures of a traced run, per pass over the workload's items."""
    tr = res.tracer
    passes = res.ops / len(res.items)
    counts = Counter()
    for it in res.items:
        counts.update(it.counts or {})
    info = [it.lift_info for it in res.items if it.lift_info]

    def seconds(*names):
        return sum(tr.inclusive.get(n, 0.0) for n in names) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "sysparse.parse_s": (seconds("sysparse.parse_system"), "s"),
        "depgraph.check_s": (
            seconds(
                "depgraph.build_wdg",
                "depgraph.scc_decomposition",
                "depgraph.check_condition",
                "depgraph.build_skeleton",
            ),
            "s",
        ),
        "depgraph.edges": (counts["depgraph.edges"], "count"),
        "lift.prop1_lift_s": (tr.self_time.get("lift.prop1_lift", 0.0) / passes, "s"),
        "lift.observables": (sum(i["m"] for i in info), "count"),
        "lift.chain_fill": (
            ratio(sum(i["chain_created"] for i in info), sum(i["chain_cap"] for i in info)),
            "ratio",
        ),
        "lift.span_s": (seconds("lift.span_add", "lift.span_express"), "s"),
        "lift.span_calls": (counts["lift.span_calls"], "count"),
        "lift.span_rows": (counts["lift.span_rows"], "count"),
        "lift.span_hit_ratio": (
            ratio(counts["lift.express_hits"], counts["lift.express_calls"]),
            "ratio",
        ),
        "lift.max_coeff_bits": (max((i["max_coeff_bits"] for i in info), default=0), "bits"),
        "poly.substitute_s": (seconds("poly.substitute"), "s"),
        "poly.substitute_calls": (counts["poly.substitute_calls"], "count"),
        "poly.lie_derivative_s": (seconds("poly.lie_derivative"), "s"),
        "poly.lie_derivative_calls": (counts["poly.lie_derivative_calls"], "count"),
        "poly.expansion_terms": (sum(i["expansion_terms"] for i in info), "count"),
        "verify.symbolic_s": (seconds("verify.verify_symbolic"), "s"),
        "verify.max_projection_err": (
            max((it.projection_err for it in res.items), default=0.0),
            "abs",
        ),
        "document.roundtrip_s": (seconds("document.roundtrip"), "s"),
        "document.bytes": (sum(i["doc_bytes"] for i in info), "bytes"),
        "numeric.compile_field_s": (seconds("numeric.compile_field"), "s"),
        "numeric.kernel_s": (seconds("numeric.rk4_kernel"), "s"),
        "numeric.steps": (counts["numeric.steps"], "count"),
        "numeric.field_terms": (counts["numeric.field_terms"], "count"),
        "numeric.mults_per_step": (
            ratio(counts["numeric.mults"], counts["numeric.steps"]),
            "count",
        ),
    }
