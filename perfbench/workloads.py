"""The three workloads.  Each is a closed loop from one client process: the
next call starts only when the previous one has returned.

catalog
    The 7 shipped categories.  Per pass and per category, a fresh
    ``load_spec`` (so engine caches start cold, as in every CLI call), all
    7 relation suites, the tube algebra, Δ, the seeded block split, center
    extraction, twists, and two t/f round trips on seeded random elements.
    Chosen because tube dims are at most 17: Python diagram work in
    morphism/tube/center dominates and the dense self-checks cost almost
    nothing.  Should move: cached gathers and compiled t/f maps
    (``tube.t_map_s``, ``tube.f_map_s``, ``center.*``,
    ``morphism.engine_cache_entries``).  Should not move: graded or sparse
    tube tables.

pointed-scaling
    Vec[Z/n]^ω at cocycle level 1 for n = 4..7 (tube dim 16 to 49).  A pass
    is ``load_spec``, ``build_tube_algebra`` and ``build_delta`` for each n.
    Chosen because the dense dim³ tables and dim⁵ self-check einsums
    dominate, so graded sparsity and table work show here
    (``tube.build_tube_algebra_s.z*``, ``tube.table_*``, ``peak_rss_mib``).
    The center stages run once, after the timed passes, on the last pass's
    algebras, and stay out of ``pass_s``: the block split fails at rank ≥ 36
    today (DegenerateSpectrum), and a fix that lets extraction run must not
    read as a slowdown.  Those failures, and the stages they leave
    unrun, are recorded and counted, not hidden.  Should not move: CLI
    start-up and t/f maps.

cli
    ``python -m tubecat`` subprocesses one at a time: ``verify`` and
    ``center`` on fibonacci, ising and rep_s3.  Chosen because interpreter
    start plus ``import tubecat`` is a large share of each command, so
    import and start-up work shows only here (``cli.*``, ``setup_s``).
    Every command's stdout must be byte-identical across passes and equal
    to its own canonical re-emission.  Should not move: table layout at
    large dims.
"""
from __future__ import annotations

import gc
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from tubecat import (SUITES, DegenerateSpectrum, Engine, LambdaObject,
                     build_delta, build_tube_algebra, compute_twists,
                     decompose_blocks, engine_for, extract_center_simples,
                     f_map, load_spec, run_suite, t_map, tube_product,
                     tube_star)
from tubecat.jsonutil import dumps_canonical

import inputs
import oracle
from harness import (AFTER, SETUP_REPEATS, Ledger, Speed, Tracer, mean, median,
                     probe_setup, run_child, run_passes, trimmed_mean)

# Coefficients below this count as structural zeros of a tube table.
TABLE_ZERO = 1e-12
SUITE_SPANS = {"bigon1": "relations.bigon1", "bigon2": "relations.bigon2",
               "fusion": "relations.fusion", "ih": "relations.ih",
               "globaldim": "relations.globaldim",
               "spherical": "relations.spherical",
               "pentagon": "pentagon.verify_pentagon"}
CENTER_STAGES = ("center.decompose_blocks", "center.extract_center_simples",
                 "center.compute_twists")
# Two t/f round trips per category.
ROUND_TRIP_STAGES = ("tube.t_map", "tube.f_map") * 2
# What a catalog pass does to a category after loading it.
CATALOG_STAGES = (*SUITE_SPANS.values(), "tube.build_tube_algebra",
                  "tube.build_delta", *CENTER_STAGES, *ROUND_TRIP_STAGES)
# Layers timed by spans.  Each is reported as seconds per pass (mean over
# traced passes) plus its total in the once-per-run phase after the passes.
TIMED_LAYERS = ("catspec.load_spec", *SUITE_SPANS.values(),
                "tube.build_tube_algebra", "tube.build_delta",
                "tube.t_map", "tube.f_map",
                "center.decompose_blocks", "center.extract_center_simples",
                "center.compute_twists",
                "cli.verify", "cli.center", "jsonutil.dumps_canonical")
# Also reported per pointed input, with suffixes .z4 .. .z7.
PER_N_LAYERS = ("tube.build_tube_algebra", "tube.build_delta",
                "center.decompose_blocks")


class CliExit(Exception):
    """A CLI command exited with a nonzero status."""

    def __init__(self, returncode: int, stderr: str):
        super().__init__(f"exit status {returncode}: {stderr[-500:]}")
        # The CLI reports a DegenerateSpectrum as a verification failure
        # with the exception's own advice to retry with another seed.
        self.refused = (returncode == 1 and stderr.startswith("verification failure:")
                        and "try another seed" in stderr)


def is_refusal(exc: Exception) -> bool:
    """The one documented refusal: the block split could not separate the
    blocks with this seed.  Every other exception is a wrong answer."""
    return isinstance(exc, DegenerateSpectrum) or (isinstance(exc, CliExit)
                                                   and exc.refused)


@dataclass
class Context:
    root: Path
    seed: int
    deadline: float  # perf_counter time by which the passes end; set-up counts
    tracer: Tracer
    ledger: Ledger
    speed: Speed
    layers: dict = field(default_factory=dict)
    passes: dict = field(default_factory=dict)
    fixed_passes: int = 0  # passes every run makes; failed_ratio counts only these


# ---- oracle checks on library results ------------------------------------------

def _suite_problem(rep):
    if not rep.ok:
        worst = rep.worst()
        return f"suite failed at {worst.labels} residual {worst.residual:.3e}"
    return oracle.residual_problem("suite", rep.max_residual)


def _algebra_problem(A, exp):
    return (oracle.tube_dim_problem(A.dim, exp)
            or oracle.worst_residual_problem("tube algebra", A.residuals))


def _delta_problem(D):
    return oracle.worst_residual_problem("delta", D.residuals)


def _simples_problem(simples, dec):
    if len(simples) != dec.rank:
        return f"{len(simples)} simples for {dec.rank} blocks"
    for k, s in enumerate(simples):
        problem = (oracle.residual_problem(f"simple {k} hexagon", s.hexagon_defect)
                   or oracle.residual_problem(f"simple {k} unitarity",
                                              s.unitarity_defect))
        if problem:
            return problem
    return None


# ---- library stages --------------------------------------------------------------

def _load(ctx, name, raw, exp):
    return ctx.ledger.run("catspec.load_spec", name, load_spec, raw,
                          check=lambda s: oracle.global_dim_problem(
                              s.dims.global_dim, exp))


def _build(ctx, name, spec, exp):
    """Tube algebra and Δ over Λ = all simples; either is None if it failed."""
    L = ctx.ledger
    if spec is None:
        L.skip(name, ("tube.build_tube_algebra", "tube.build_delta"),
               "catspec.load_spec")
        return None, None
    lam = LambdaObject.all_simples(spec)
    A = L.run("tube.build_tube_algebra", name, build_tube_algebra, spec, lam,
              check=lambda A: _algebra_problem(A, exp))
    D = L.run("tube.build_delta", name, build_delta, spec, lam,
              check=_delta_problem)
    return A, D


def _center(ctx, name, A, D, exp):
    """The block split, extraction and twists; a stage whose input failed
    is skipped and counted as failed."""
    L = ctx.ledger
    if A is None:
        L.skip(name, CENTER_STAGES, "tube.build_tube_algebra")
        return
    dec = L.run("center.decompose_blocks", name, decompose_blocks, A, ctx.seed,
                check=lambda d: oracle.sizes_problem(d.sizes, exp))
    if dec is None or D is None:
        L.skip(name, CENTER_STAGES[1:],
               "center.decompose_blocks" if dec is None else "tube.build_delta")
        return
    simples = L.run("center.extract_center_simples", name,
                    extract_center_simples, A, D, dec,
                    check=lambda s: _simples_problem(s, dec))
    if simples is None:
        L.skip(name, CENTER_STAGES[2:], "center.extract_center_simples")
        return
    L.run("center.compute_twists", name, compute_twists, simples,
          check=lambda tw: oracle.blocks_problem(zip(dec.sizes, tw), exp))


def _round_trips(ctx, idx, name, A, D):
    """Two f_map(t_map(x)) round trips on elements drawn from the seed."""
    L = ctx.ledger
    if A is None or D is None:
        L.skip(name, ROUND_TRIP_STAGES, "the tube build")
        return
    rng = np.random.default_rng([ctx.seed, idx])
    for _ in range(2):
        f = A.random_element(rng)
        T = L.run("tube.t_map", name, t_map, A, D, f)
        if T is None:
            L.skip(name, ("tube.f_map",), "tube.t_map")
            continue
        L.run("tube.f_map", name, f_map, A, D, T,
              check=lambda back: oracle.residual_problem(
                  "t/f round trip", (back - f).norm() / f.norm()))


def _replay_fill(A):
    """The table fill of build_tube_algebra, repeated with warm caches."""
    basis = [A.basis_element(k) for k in range(A.dim)]
    mult = np.zeros_like(A.mult_table)
    star = np.zeros_like(A.star_table)
    for i, ei in enumerate(basis):
        star[i] = A.vector_of(tube_star(A, ei))
        for j, ej in enumerate(basis):
            mult[i, j] = A.vector_of(tube_product(A, ei, ej))
    return mult, star


def _fill_problem(tables, A):
    mult, star = tables
    gap = max(float(np.max(np.abs(mult - A.mult_table))),
              float(np.max(np.abs(star - A.star_table))))
    return oracle.residual_problem("replayed fill vs built tables", gap)


# ---- per-layer numbers -----------------------------------------------------------

def _timed_layers(ctx, traced_ids, per_n_inputs=()):
    tr = ctx.tracer
    factor = ctx.speed.factor()

    def value(span, input=None):
        return factor * (mean(tr.totals(span, traced_ids, input))
                         + sum(tr.totals(span, [AFTER], input)))

    for span in TIMED_LAYERS:
        ctx.layers[f"{span}_s"] = value(span)
    for span in PER_N_LAYERS:
        for name in per_n_inputs:
            ctx.layers[f"{span}_s.{name}"] = value(span, name)


def _tube_layers(ctx, algebras):
    """Table sizes, and the fill / self-check split of build_tube_algebra.

    The fill is estimated by replaying it with warm caches after the
    passes; the self-check estimate is the build time minus that replay.
    """
    algebras = {name: A for name, A in algebras.items() if A is not None}
    tables = [t for A in algebras.values() for t in (A.mult_table, A.star_table)]
    entries = sum(t.size for t in tables)
    nonzero = sum(int(np.count_nonzero(np.abs(t) > TABLE_ZERO)) for t in tables)
    ctx.layers["tube.table_bytes"] = float(sum(t.nbytes for t in tables))
    ctx.layers["tube.table_nonzero_ratio"] = nonzero / entries if entries else 0.0
    for name, A in algebras.items():
        ctx.ledger.run("tube.fill_replay", name, _replay_fill, A,
                       check=lambda t, A=A: _fill_problem(t, A))
    fill = ctx.speed.factor() * sum(ctx.tracer.totals("tube.fill_replay", [AFTER]))
    ctx.layers["tube.fill_s"] = fill
    ctx.layers["tube.selfcheck_s"] = ctx.layers["tube.build_tube_algebra_s"] - fill


def _engines_alive():
    """Engines still reachable; each one holds its category's caches."""
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, Engine))


def _traced_layers(ctx, passes, per_n_inputs=(), engine_layers=True):
    _timed_layers(ctx, passes.traced_ids, per_n_inputs)
    if engine_layers:
        built, cache = passes.result
        ctx.layers["morphism.engine_cache_entries"] = float(cache)
        ctx.layers["morphism.engines_alive"] = float(_engines_alive())
        _tube_layers(ctx, {name: A for name, (A, _) in built.items()})
    ctx.layers["center.failed"] = float(sum(
        1 for f in ctx.ledger.failures if f["stage"].startswith("center.")))
    if passes.traced and passes.plain:
        ctx.layers["trace.overhead_s"] = mean(passes.traced) - mean(passes.plain)


def _end_to_end(ctx, passes):
    ctx.passes = {"plain": passes.plain, "traced": passes.traced, "cpu": passes.cpu,
                  "setup": passes.setup}
    ctx.fixed_passes = passes.fixed
    return {"setup_s": trimmed_mean(passes.setup),
            "pass_s": mean(passes.plain or passes.traced),
            "peak_rss_mib": passes.peak_rss_mib}


# ---- workloads -------------------------------------------------------------------

def catalog(ctx: Context) -> dict:
    data = inputs.catalog_inputs(ctx.root)
    L = ctx.ledger

    def one_pass():
        built, cache = {}, 0
        for idx, (name, raw) in enumerate(data.items()):
            with ctx.tracer.span("input", name):
                exp = oracle.CATALOG[name]
                spec = _load(ctx, name, raw, exp)
                if spec is None:
                    L.skip(name, CATALOG_STAGES, "catspec.load_spec")
                    continue
                for suite in SUITES:
                    L.run(SUITE_SPANS[suite], name, run_suite, spec, suite,
                          check=_suite_problem)
                A, D = _build(ctx, name, spec, exp)
                _center(ctx, name, A, D, exp)
                _round_trips(ctx, idx, name, A, D)
                built[name] = A, D
                cache += len(engine_for(spec).cache)
        return built, cache

    passes = run_passes(one_pass, lambda: probe_setup("catalog", ctx.root), ctx.tracer,
                        ctx.speed, ctx.deadline, warmup=2, min_timed=5)
    if ctx.tracer.active:
        _traced_layers(ctx, passes)
    return _end_to_end(ctx, passes)


def pointed_scaling(ctx: Context) -> dict:
    data = inputs.pointed_inputs()
    expect = {inputs.pointed_name(n): oracle.twisted_double(n, inputs.POINTED_LEVEL)
              for n in inputs.POINTED_NS}

    def one_pass():
        built, cache = {}, 0
        for name, raw in data.items():
            with ctx.tracer.span("input", name):
                spec = _load(ctx, name, raw, expect[name])
                built[name] = _build(ctx, name, spec, expect[name])
                if spec is not None:
                    cache += len(engine_for(spec).cache)
        return built, cache

    # A pass takes 5-8 CPU seconds, so the minimum, not the deadline, sets
    # how many passes run: six timed ones.  With four, pass_s spread up to
    # 0.09 (quartile distance over median) across ten seeds.
    passes = run_passes(one_pass, lambda: probe_setup("pointed-scaling", ctx.root),
                        ctx.tracer, ctx.speed, ctx.deadline, warmup=1, min_timed=6)
    # once per run, outside pass_s: the block split and what follows it
    for name, (A, D) in passes.result[0].items():
        with ctx.tracer.span("input", name):
            _center(ctx, name, A, D, expect[name])
    if ctx.tracer.active:
        _traced_layers(ctx, passes, per_n_inputs=data)
    return _end_to_end(ctx, passes)


def _cli_call(ctx, args):
    """Run ``python -m tubecat args``; return (CPU seconds, stdout, document).

    The CLI exits nonzero when a check fails or a document does not pass,
    so a zero exit is what says the command passed.
    """
    took, proc = run_child(["-m", "tubecat", *args], ctx.root)
    if proc.returncode != 0:
        raise CliExit(proc.returncode, proc.stderr.decode(errors="replace"))
    return took, proc.stdout, json.loads(proc.stdout)


def _verify_problem(doc, shown):
    if doc.get("category") != shown:
        return f"verify document for {doc.get('category')!r}, expected {shown!r}"
    if len(doc["suites"]) != len(SUITE_SPANS):
        return f"{len(doc['suites'])} suites, expected {len(SUITE_SPANS)}"
    for s in doc["suites"]:
        problem = oracle.residual_problem(f"suite {s['suite']}", s["max_residual"])
        if problem:
            return problem
    return None


def _center_doc_problem(doc, name, shown, seed):
    exp = oracle.CATALOG[name]
    if doc.get("category") != shown or doc.get("seed") != seed:
        return f"center document for {doc.get('category')!r} seed {doc.get('seed')}"
    if doc["rank"] != exp.rank:
        return f"rank {doc['rank']}, expected {exp.rank}"
    for b in doc["blocks"]:
        problem = oracle.residual_problem("hexagon", b["hexagon_residual"])
        if problem:
            return problem
    return (oracle.tube_dim_problem(doc["tube_dim"], exp)
            or oracle.blocks_problem(((b["size"], complex(*b["twist"]))
                                      for b in doc["blocks"]), exp))


def cli(ctx: Context) -> dict:
    L = ctx.ledger
    listing = {"categories": list(inputs.CATALOG_NAMES)}

    def list_catalog():
        out = L.run("cli.catalog", "catalog", _cli_call, ctx, ["catalog"],
                    check=lambda r: None if r[2] == listing else
                    "catalog listing differs from the shipped names")
        return None if out is None else out[0]

    raw = inputs.catalog_inputs(ctx.root)
    # the CLI reports a category by the name inside its file
    shown = {name: json.loads(raw[name])["name"] for name in inputs.CLI_NAMES}
    reference: dict = {}

    def same_bytes(key, out):
        first = reference.setdefault(key, out)
        return None if out == first else f"{key} stdout changed between passes"

    def one_pass():
        for name in inputs.CLI_NAMES:
            with ctx.tracer.span("input", name):
                for cmd in ("verify", "center"):
                    args = [cmd, "--category", name]
                    if cmd == "verify":
                        problem = lambda d: _verify_problem(d, shown[name])
                    else:
                        args += ["--seed", str(ctx.seed)]
                        problem = lambda d: _center_doc_problem(d, name, shown[name], ctx.seed)
                    out = L.run(f"cli.{cmd}", name, _cli_call, ctx, args,
                                check=lambda r: problem(r[2])
                                or same_bytes((cmd, name), r[1]))
                    if out is None:
                        L.skip(name, ("jsonutil.dumps_canonical",), f"cli.{cmd}")
                        continue
                    L.run("jsonutil.dumps_canonical", name, dumps_canonical, out[2],
                          check=lambda s: None if s.encode() == out[1] else
                          "canonical re-emission differs from the CLI's stdout")

    passes = run_passes(one_pass, list_catalog, ctx.tracer, ctx.speed, ctx.deadline,
                        warmup=1, min_timed=4)
    if ctx.tracer.active:
        ctx.layers["cli.import_s"] = ctx.speed.factor() * median(
            [probe_setup("cli", ctx.root) for _ in range(SETUP_REPEATS)])
        # the load each CLI command does first, timed here in-process
        for name in inputs.CLI_NAMES:
            L.run("catspec.load_spec", name, load_spec, raw[name])
        _traced_layers(ctx, passes, engine_layers=False)
    return _end_to_end(ctx, passes)


WORKLOADS = {"catalog": catalog, "pointed-scaling": pointed_scaling, "cli": cli}
# Workloads whose timed work runs in child interpreters.
IN_CHILDREN = {"cli"}
