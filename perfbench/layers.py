"""The growfrag functions the benchmark times, and the per-layer metrics.

Layers are growfrag's modules.  ``install_phases`` wraps only the
boundaries that the end-to-end metrics need (set-up, the density march,
the eigen-solve, the Fleming-Viot run, config loading); each is called a
few times per subcommand, so the untraced run pays a handful of timer
reads.  ``install_full`` adds the per-call boundaries inside the hot
loops for the traced run.
"""

from __future__ import annotations

import scipy.sparse.linalg

LAYERS = ("flow", "model", "lyapunov", "pdmp", "pde", "spectral", "qsd",
          "cli")

SETUP_SPANS = ("lyapunov.build_h_pseudo_entrance",
               "lyapunov.verify_assumption1", "pdmp.TiltedJumpLaw")
ASSEMBLY_SPAN = "pde.build_discrete_operator"
OUTPUT_SPANS = ("cli.dumps_stable", "pdmp.PathTrace.to_csv",
                "pde.Trajectory.to_csv", "spectral.SpectralTriple.to_csv",
                "qsd.ParticleEnsemble.to_csv")

# per explicit Euler step of pde.solve: one sparse product (2 nnz flops)
# and seven length-n vector passes (axpy, sum, min, clip, leak dot)
_VECTOR_FLOPS = 7
_VECTOR_BYTES = 104


def _modules(gf):
    return [gf.flow, gf.model, gf.lyapunov, gf.pdmp, gf.pde, gf.spectral,
            gf.qsd, gf.cli]


def install_phases(tracer, gf, count_products=False):
    """Wrap the end-to-end boundaries; optionally count matrix products."""
    mods = _modules(gf)

    def span(name, after=None):
        return lambda fn: tracer.span(fn, name, after=after)

    def operator_built(counts, args, kwargs, op):
        counts["pde.nnz"] = int(op.matrix.nnz)
        counts["pde.cells"] = int(op.grid.n_cells)
        if count_products:
            _count_products(tracer, op.matrix)

    def fv_done(counts, args, kwargs, res):
        counts["qsd.kills"] = counts.get("qsd.kills", 0) + int(res.kills)

    tracer.patch(gf.cli, "main", span("cli.main"))
    tracer.patch(gf.cli, "load_config", span("cli.load_config"), mods)
    tracer.patch(gf.lyapunov, "build_h_pseudo_entrance",
                 span("lyapunov.build_h_pseudo_entrance"), mods)
    tracer.patch(gf.lyapunov, "verify_assumption1",
                 span("lyapunov.verify_assumption1"), mods)
    tracer.patch(gf.pdmp.TiltedJumpLaw, "__init__",
                 span("pdmp.TiltedJumpLaw"))
    tracer.patch(gf.pde, "build_discrete_operator",
                 span(ASSEMBLY_SPAN, after=operator_built), mods)
    tracer.patch(gf.pde, "solve", span("pde.solve"), mods)
    tracer.patch(gf.spectral, "principal_eigen",
                 span("spectral.principal_eigen"), mods)
    tracer.patch(gf.qsd, "fv_run", span("qsd.fv_run", after=fv_done), mods)


class _TracedLU:
    """SuperLU factor whose solve calls are traced."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer.span(lu.solve, "spectral.solve")

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _count_products(tracer, matrix):
    """Count matrix @ vector products, keyed by the innermost open span."""
    base = type(matrix)

    class CountingMatrix(base):
        def __matmul__(self, other):
            tracer.count("matvec:" + tracer.current_span_name())
            return base.__matmul__(self, other)

    matrix.__class__ = CountingMatrix


def install_full(tracer, gf):
    """Wrap every boundary the per-layer metrics need."""
    install_phases(tracer, gf, count_products=True)
    mods = _modules(gf)
    pdmp = gf.pdmp

    def span(name, before=None, after=None):
        return lambda fn: tracer.span(fn, name, before=before, after=after)

    def jump_outcome(counts, args, kwargs, child):
        key = "pdmp.kills" if child is pdmp.CEMETERY else "pdmp.jumps"
        counts[key] = counts.get(key, 0) + 1

    def mass_lookup(counts, args, kwargs):
        law, x = args[0], args[1]
        if x in getattr(law, "_mass_cache", {}):
            counts["pdmp.kh_mass.hits"] = \
                counts.get("pdmp.kh_mass.hits", 0) + 1

    def traced_splu(original):
        factorize = tracer.span(original, "spectral.factorize")

        def splu(*args, **kwargs):
            return _TracedLU(factorize(*args, **kwargs), tracer)
        return splu

    tracer.patch(gf.flow.FlowEngine, "_build_table", span("flow.build_table"))
    tracer.patch(gf.flow.FlowEngine, "flow_at", span("flow.flow_at"))
    tracer.patch(gf.model.RatioMeasure, "integral", span("model.integral"))
    tracer.patch(gf.model.RatioMeasure, "sample", span("model.ratio_sample"))
    tracer.patch(gf.model, "generator_apply", span("model.generator_apply"),
                 mods)
    tracer.patch(pdmp, "simulate_path", span("pdmp.simulate_path"), mods)
    tracer.patch(pdmp, "next_jump_time", span("pdmp.next_jump_time"), mods)
    tracer.patch(pdmp, "post_jump_sample",
                 span("pdmp.post_jump_sample", after=jump_outcome), mods)
    tracer.patch(pdmp.TiltedJumpLaw, "kh_mass",
                 span("pdmp.kh_mass", before=mass_lookup))
    tracer.patch(pdmp.TiltedJumpLaw, "sup_tilt_ratio",
                 span("pdmp.sup_tilt_ratio"))
    tracer.patch(pdmp.TiltedJumpLaw, "r",
                 lambda fn: tracer.counter(fn, "pdmp.r_calls"))
    tracer.patch(gf.qsd._Particle, "position_at", span("qsd.position_at"))
    tracer.patch(scipy.sparse.linalg, "splu", traced_splu)
    tracer.patch(gf.cli, "dumps_stable", span("cli.dumps_stable"), mods)
    tracer.patch(pdmp.PathTrace, "to_csv", span("pdmp.PathTrace.to_csv"))
    tracer.patch(gf.pde.Trajectory, "to_csv", span("pde.Trajectory.to_csv"))
    tracer.patch(gf.spectral.SpectralTriple, "to_csv",
                 span("spectral.SpectralTriple.to_csv"))
    tracer.patch(gf.qsd.ParticleEnsemble, "to_csv",
                 span("qsd.ParticleEnsemble.to_csv"))


PER_LAYER = (
    ("flow.tables_built", "count"), ("flow.table_s", "s"),
    ("flow.flow_at.calls", "count"), ("flow.flow_at.self_s", "s"),
    ("model.integral.calls", "count"), ("model.integral.self_s", "s"),
    ("model.generator_apply.calls", "count"),
    ("model.generator_apply.self_s", "s"),
    ("model.ratio_sample.calls", "count"),
    ("model.ratio_sample.self_s", "s"),
    ("lyapunov.build_weight_s", "s"), ("lyapunov.verify_s", "s"),
    ("pdmp.paths", "count"), ("pdmp.jumps", "count"),
    ("pdmp.kills", "count"), ("pdmp.next_jump_time.self_s", "s"),
    ("pdmp.post_jump_sample.self_s", "s"),
    ("pdmp.sup_tilt_ratio.self_s", "s"),
    ("pdmp.rate_evals_per_event", "ratio"), ("pdmp.kh_mass.calls", "count"),
    ("pdmp.kh_mass.self_s", "s"), ("pdmp.kh_mass.hit_ratio", "ratio"),
    ("pdmp.s_per_event", "s"),
    ("pde.assembly_s", "s"), ("pde.nnz", "count"), ("pde.steps", "count"),
    ("pde.s_per_step", "s"), ("pde.flops_per_step", "flop"),
    ("pde.bytes_per_step", "B"),
    ("spectral.factorizations", "count"), ("spectral.factorize_s", "s"),
    ("spectral.solves", "count"), ("spectral.solve_s", "s"),
    ("spectral.eigen_s", "s"),
    ("qsd.kills", "count"), ("qsd.kill_loop.self_s", "s"),
    ("qsd.s_per_kill", "s"), ("qsd.position_at.calls", "count"),
    ("qsd.position_at.self_s", "s"),
    ("cli.config_s", "s"), ("cli.output_s", "s"),
    ("cli.extra_paths", "count"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.wall_s", "s"), ("trace.uncovered_s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(summary, counts, wall_s, untraced_wall_s,
                      requested_paths):
    """Every PER_LAYER metric from a traced run's span summary and counts.

    summary maps span name to {"calls", "incl_s", "self_s"}; wall_s is
    the traced wall time and untraced_wall_s that of the same subcommands
    run with tracing off.
    """
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def incl(name):
        return summary.get(name, {}).get("incl_s", 0.0)

    def own(name):
        return summary.get(name, {}).get("self_s", 0.0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, rec in summary.items():
        layer_self[name.split(".", 1)[0]] += rec["self_s"]
    jumps = counts.get("pdmp.jumps", 0)
    kills = counts.get("pdmp.kills", 0)
    events = jumps + kills
    nnz = counts.get("pde.nnz", 0)
    cells = counts.get("pde.cells", 0)
    steps = counts.get("matvec:pde.solve", 0)
    fv_kills = counts.get("qsd.kills", 0)
    kh_calls = calls("pdmp.kh_mass")
    values = {
        "flow.tables_built": calls("flow.build_table"),
        "flow.table_s": incl("flow.build_table"),
        "flow.flow_at.calls": calls("flow.flow_at"),
        "flow.flow_at.self_s": own("flow.flow_at"),
        "model.integral.calls": calls("model.integral"),
        "model.integral.self_s": own("model.integral"),
        "model.generator_apply.calls": calls("model.generator_apply"),
        "model.generator_apply.self_s": own("model.generator_apply"),
        "model.ratio_sample.calls": calls("model.ratio_sample"),
        "model.ratio_sample.self_s": own("model.ratio_sample"),
        "lyapunov.build_weight_s": incl("lyapunov.build_h_pseudo_entrance"),
        "lyapunov.verify_s": incl("lyapunov.verify_assumption1"),
        "pdmp.paths": calls("pdmp.simulate_path"),
        "pdmp.jumps": jumps,
        "pdmp.kills": kills,
        "pdmp.next_jump_time.self_s": own("pdmp.next_jump_time"),
        "pdmp.post_jump_sample.self_s": own("pdmp.post_jump_sample"),
        "pdmp.sup_tilt_ratio.self_s": own("pdmp.sup_tilt_ratio"),
        "pdmp.rate_evals_per_event": _ratio(counts.get("pdmp.r_calls", 0),
                                            events),
        "pdmp.kh_mass.calls": kh_calls,
        "pdmp.kh_mass.self_s": own("pdmp.kh_mass"),
        "pdmp.kh_mass.hit_ratio": _ratio(
            counts.get("pdmp.kh_mass.hits", 0), kh_calls),
        "pdmp.s_per_event": _ratio(incl("pdmp.next_jump_time")
                                   + incl("pdmp.post_jump_sample"), events),
        "pde.assembly_s": incl(ASSEMBLY_SPAN),
        "pde.nnz": nnz,
        "pde.steps": steps,
        "pde.s_per_step": _ratio(own("pde.solve"), steps),
        "pde.flops_per_step": (2 * nnz + _VECTOR_FLOPS * cells
                               if steps else 0),
        "pde.bytes_per_step": (12 * nnz + 4 * (cells + 1)
                               + _VECTOR_BYTES * cells if steps else 0),
        "spectral.factorizations": calls("spectral.factorize"),
        "spectral.factorize_s": incl("spectral.factorize"),
        "spectral.solves": calls("spectral.solve"),
        "spectral.solve_s": incl("spectral.solve"),
        "spectral.eigen_s": incl("spectral.principal_eigen"),
        "qsd.kills": fv_kills,
        "qsd.kill_loop.self_s": own("qsd.fv_run"),
        "qsd.s_per_kill": _ratio(own("qsd.fv_run"), fv_kills),
        "qsd.position_at.calls": calls("qsd.position_at"),
        "qsd.position_at.self_s": own("qsd.position_at"),
        "cli.config_s": incl("cli.load_config"),
        "cli.output_s": sum(own(name) for name in OUTPUT_SPANS),
        "cli.extra_paths": max(calls("pdmp.simulate_path") - requested_paths,
                               0),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
    values["trace.wall_s"] = wall_s
    values["trace.uncovered_s"] = wall_s - sum(layer_self.values())
    values["trace.overhead_s"] = wall_s - untraced_wall_s
    values["trace.spans"] = sum(rec["calls"] for rec in summary.values())
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}
