"""Per-layer spans for tamexp, installed from outside the program.

Each public function of a layer module, and each public method of its
classes, is replaced by a span-recording wrapper under every name a
caller can look it up by: the attribute of its defining module, the
attribute of every tamexp module that imported it
(``orbits.apply_letter_arrays`` is the same object as
``tame.apply_letter_arrays``), and, for methods, the class attribute.
Nothing under ``src/`` is edited.

Span names are ``<layer>.<function>`` or ``<layer>.<Class>.<method>``.
Hooks add the work counts that timings alone do not show, and
``per_layer`` turns spans and counts into the benchmark's per-layer
metrics.
"""

from __future__ import annotations

import importlib
import inspect

import numpy as np

LAYERS = ("ff", "polyring", "tame", "synth", "orbits", "permgrp", "spectra",
          "cli")

# Scalar helpers run once per field operation, per point or per letter;
# the lemma sweep alone makes about three million such calls, and a span
# each would cost more than the work it times.  Their time stays in the
# self time of the nearest timed caller.
SCALAR = {
    "ff": {"is_prime", "prime_factors", "poly_trim", "poly_add", "poly_sub",
           "poly_mul", "poly_divmod", "poly_mod", "poly_gcd", "poly_powmod",
           "poly_eval", "frobenius", "generated_subfield_degree",
           "FieldCtx.coeffs", "FieldCtx.element", "FieldCtx.add",
           "FieldCtx.neg", "FieldCtx.sub", "FieldCtx.mul", "FieldCtx.inv",
           "FieldCtx.pow", "FieldCtx.frobenius", "FieldCtx.order",
           "FieldCtx.subfield_degree", "FieldCtx.mul_const_table",
           "FieldCtx.pow_table", "FieldCtx.neg_table", "FieldCtx.frob_table"},
    "polyring": {"MultiPoly.is_zero", "MultiPoly.scaled",
                 "MultiPoly.evaluate", "MultiPoly.total_degree",
                 "MultiPoly.text", "PolyEndo.evaluate", "evaluate",
                 "grading_degree"},
    "tame": {"apply_letter", "Word.inverse", "Word.text", "Word.conjugated_by",
             "Word.commutator_with", "GroupParams.tij", "tau"},
    "synth": {"gamma_op", "gamma_inv", "gamma_comm", "gamma_identity",
              "p_elem", "y_elem"},
    "orbits": {"point_to_code", "code_to_point", "gamma_apply",
               "gamma_class_of", "compute_A0", "orbit_invariant"},
    "permgrp": {"identity_perm", "is_identity", "cycle_lengths", "parity",
                "perm_order", "perm_from_cycles", "StabChain.sift",
                "StabChain.contains"},
    "spectra": set(),
}

# In cli only the entry point is a span, so that cli.main's self time is
# the CLI's own work: perms on codes, class-action perms and output.
CLI_SPANS = ("main",)


def public_callables(mod):
    """(qualified name, owner, attribute, function) of the module's own
    public functions and the public plain methods of its own classes."""
    out = []
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((name, mod, name, obj))
        elif inspect.isclass(obj):
            for attr, meth in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(meth):
                    out.append((f"{name}.{attr}", obj, attr, meth))
    return out


def load_modules():
    return {layer: importlib.import_module(f"tamexp.{layer}")
            for layer in LAYERS}


def targets(modules):
    """(layer, qualified name, owner, attribute, function) to time."""
    chosen = []
    for layer in LAYERS:
        mod = modules[layer]
        if layer == "cli":
            chosen += [(layer, n, mod, n, getattr(mod, n)) for n in CLI_SPANS]
            continue
        chosen += [(layer, qual, owner, attr, fn)
                   for qual, owner, attr, fn in public_callables(mod)
                   if qual not in SCALAR[layer]]
    return chosen


def install(rec):
    """Replace every target by a span-recording wrapper; returns a function
    that puts the originals back."""
    modules = load_modules()
    undo, rebind = [], {}
    for layer, qual, owner, attr, fn in targets(modules):
        name = f"{layer}.{qual}"
        wrapped = rec.wrap(fn, name, HOOKS.get(name))
        undo.append((owner, attr, fn))
        setattr(owner, attr, wrapped)
        rebind[id(fn)] = (fn, wrapped)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = rebind.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((mod, attr, obj))
                setattr(mod, attr, hit[1])

    def restore():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return restore


# -- counters ----------------------------------------------------------------
# hook(rec, args, kwargs, result, seconds), run after a successful call


def _size_of_result(key, first=False):
    def hook(rec, args, kwargs, out, dur):
        rec.count(key, int(np.size(out[0] if first else out)))
    return hook


def _lemma(first_of_field):
    def hook(rec, args, kwargs, out, dur):
        ctx = args[0] if args else kwargs["ctx"]
        n = args[1] if len(args) > 1 else kwargs["N"]
        kind = "prime" if ctx.ell == 1 else "ext"
        rec.count(f"ff.lemma.{kind}_s", dur)
        if first_of_field and n == 1:
            # cli checks each field for N = 1, 2, ...: one N = 1 call each
            rec.count(f"ff.lemma.fields_{kind}")
    return hook


def _ladder(rec, args, kwargs, out, dur):
    if out is None:
        rec.count("permgrp.try_alt_ladder.failed")
        rec.count("permgrp.try_alt_ladder.failed_s", dur)


def _chain_degree(rec, args, kwargs, out, dur):
    gens = args[0] if args else kwargs["gens"]
    key = "permgrp.max_degree"
    rec.counters[key] = max(rec.counters.get(key, 0), len(gens[0]))


def _gap(rec, args, kwargs, out, dur):
    rec.count(f"spectra.spectral_gap.{out.method}_s", dur)
    rec.count("spectra.spectral_gap.iterations", out.iterations)


def _operator(rec, args, kwargs, out, dur):
    graph, x = args[0], (args[1] if len(args) > 1 else kwargs["x"])
    if np.ndim(x) == 1:
        cols = 1
    else:
        cols = x.shape[1]
        rec.count("spectra.SchreierGraph.matmat.cols", cols)
    rec.count("spectra.operator_bytes", cols * graph.nvertices * graph.degree * 8)


def _synth(rec, args, kwargs, out, dur):
    rec.count("synth.word_letters", out.length)
    rec.count("synth.points_checked", out.points_checked)


def _field(*pairs):
    def hook(rec, args, kwargs, out, dur):
        for key, attr in pairs:
            rec.count(key, getattr(out, attr))
    return hook


HOOKS = {
    "ff.FieldCtx.add_arrays": _size_of_result("ff.FieldCtx.add_arrays.elems"),
    "ff.FieldCtx.mul_arrays": _size_of_result("ff.FieldCtx.mul_arrays.elems"),
    "ff.verify_count_lemma": _lemma(first_of_field=True),
    "ff.verify_enlarge_lemma": _lemma(first_of_field=False),
    "tame.apply_word_arrays":
        _size_of_result("tame.apply_word_arrays.points", first=True),
    "tame.apply_letter_arrays":
        _size_of_result("tame.apply_letter_arrays.points", first=True),
    "orbits.codes_to_coords":
        _size_of_result("orbits.codes_to_coords.elems", first=True),
    "orbits.coords_to_codes": _size_of_result("orbits.coords_to_codes.elems"),
    "orbits.orbit_partition": lambda rec, args, kwargs, out, dur: rec.count(
        "orbits.orbit_partition.points", int(out.labels.size)),
    "orbits.gamma_classes": _field(("orbits.gamma_classes.classes",
                                    "class_count")),
    "orbits.transitivity_probe": _field(
        ("orbits.transitivity_probe.trials", "trials"),
        ("orbits.transitivity_probe.successes", "successes")),
    "permgrp.try_alt_ladder": _ladder,
    "permgrp.build_chain": _chain_degree,
    "spectra.spectral_gap": _gap,
    "spectra.SchreierGraph.matmat": _operator,
    "spectra.SchreierGraph.matvec": _operator,
    "synth.synth_transvection": _synth,
}


# -- per-layer metrics -------------------------------------------------------

# (metric, unit, source): a source is ("span", name, stat), ("count", key)
# or ("derived", function of (spans, counters)).
def _span(name, stat):
    return ("span", name, stat)


def _count(key):
    return ("count", key)


def _ratio(num, den):
    """num/den, or 0 when the layer did no such work on the workload."""
    return num / den if den else 0.0


PER_LAYER = [
    ("cli.main.self_s", "s", _span("cli.main", "self_s")),
    ("cli.output_bytes", "B", _count("cli.output_bytes")),
    ("ff.FieldCtx.add_arrays.elems", "count",
     _count("ff.FieldCtx.add_arrays.elems")),
    ("ff.FieldCtx.add_arrays.s", "s", _span("ff.FieldCtx.add_arrays", "s")),
    ("ff.FieldCtx.mul_arrays.elems", "count",
     _count("ff.FieldCtx.mul_arrays.elems")),
    ("ff.FieldCtx.mul_arrays.s", "s", _span("ff.FieldCtx.mul_arrays", "s")),
    ("ff.make_field.calls", "count", _span("ff.make_field", "calls")),
    ("ff.make_field.s", "s", _span("ff.make_field", "s")),
    ("ff.verify_count_lemma.s", "s", _span("ff.verify_count_lemma", "s")),
    ("ff.verify_enlarge_lemma.s", "s", _span("ff.verify_enlarge_lemma", "s")),
    ("ff.lemma.fields_prime", "count", _count("ff.lemma.fields_prime")),
    ("ff.lemma.fields_ext", "count", _count("ff.lemma.fields_ext")),
    ("ff.lemma.reported_frac", "ratio",
     ("derived", lambda s, c: _ratio(c.get("ff.lemma.ext_s", 0),
                                     c.get("ff.lemma.ext_s", 0)
                                     + c.get("ff.lemma.prime_s", 0)))),
    ("tame.apply_word_arrays.calls", "count",
     _span("tame.apply_word_arrays", "calls")),
    ("tame.apply_word_arrays.points", "count",
     _count("tame.apply_word_arrays.points")),
    ("tame.apply_word_arrays.self_s", "s",
     _span("tame.apply_word_arrays", "self_s")),
    ("tame.apply_letter_arrays.calls", "count",
     _span("tame.apply_letter_arrays", "calls")),
    ("tame.apply_letter_arrays.points", "count",
     _count("tame.apply_letter_arrays.points")),
    ("tame.apply_letter_arrays.self_s", "s",
     _span("tame.apply_letter_arrays", "self_s")),
    ("tame.apply_word.calls", "count", _span("tame.apply_word", "calls")),
    ("tame.apply_word.s", "s", _span("tame.apply_word", "s")),
    ("tame.word_to_endo.s", "s", _span("tame.word_to_endo", "s")),
    ("polyring.MultiPoly.substitute.calls", "count",
     _span("polyring.MultiPoly.substitute", "calls")),
    ("polyring.MultiPoly.substitute.s", "s",
     _span("polyring.MultiPoly.substitute", "s")),
    ("synth.synth_transvection.s", "s", _span("synth.synth_transvection", "s")),
    ("synth.word_letters", "count", _count("synth.word_letters")),
    ("synth.points_checked", "count", _count("synth.points_checked")),
    ("synth.interpolate.calls", "count", _span("synth.interpolate", "calls")),
    ("synth.interpolate.s", "s", _span("synth.interpolate", "s")),
    ("synth.gamma_structure.s", "s", _span("synth.gamma_structure", "s")),
    ("orbits.orbit_partition.s", "s", _span("orbits.orbit_partition", "s")),
    ("orbits.orbit_partition.self_s", "s",
     _span("orbits.orbit_partition", "self_s")),
    ("orbits.orbit_partition.points", "count",
     _count("orbits.orbit_partition.points")),
    ("orbits.points_per_s", "1/s",
     ("derived", lambda s, c: _ratio(c.get("orbits.orbit_partition.points", 0),
                                     s["orbits.orbit_partition"]["s"]))),
    ("orbits.gamma_classes.s", "s", _span("orbits.gamma_classes", "s")),
    ("orbits.gamma_classes.classes", "count",
     _count("orbits.gamma_classes.classes")),
    ("orbits.codes_to_coords.elems", "count",
     _count("orbits.codes_to_coords.elems")),
    ("orbits.codes_to_coords.s", "s", _span("orbits.codes_to_coords", "s")),
    ("orbits.coords_to_codes.elems", "count",
     _count("orbits.coords_to_codes.elems")),
    ("orbits.coords_to_codes.s", "s", _span("orbits.coords_to_codes", "s")),
    ("orbits.transitivity_probe.s", "s",
     _span("orbits.transitivity_probe", "s")),
    ("orbits.transitivity_probe.trials", "count",
     _count("orbits.transitivity_probe.trials")),
    ("orbits.transitivity_probe.successes", "count",
     _count("orbits.transitivity_probe.successes")),
    ("permgrp.try_alt_ladder.calls", "count",
     _span("permgrp.try_alt_ladder", "calls")),
    ("permgrp.try_alt_ladder.failed", "count",
     _count("permgrp.try_alt_ladder.failed")),
    ("permgrp.try_alt_ladder.s", "s", _span("permgrp.try_alt_ladder", "s")),
    ("permgrp.try_alt_ladder.failed_s", "s",
     _count("permgrp.try_alt_ladder.failed_s")),
    ("permgrp.ladder.success_frac", "ratio",
     ("derived", lambda s, c: _ratio(
         s["permgrp.try_alt_ladder"]["calls"]
         - c.get("permgrp.try_alt_ladder.failed", 0),
         s["permgrp.try_alt_ladder"]["calls"]))),
    ("permgrp.Rattle.sample.calls", "count",
     _span("permgrp.Rattle.sample", "calls")),
    ("permgrp.schreier_sims.s", "s", _span("permgrp.schreier_sims", "s")),
    ("permgrp.certify_alternating.s", "s",
     _span("permgrp.certify_alternating", "s")),
    ("permgrp.compose.calls", "count", _span("permgrp.compose", "calls")),
    ("permgrp.inverse.calls", "count", _span("permgrp.inverse", "calls")),
    ("permgrp.max_degree", "count", _count("permgrp.max_degree")),
    ("spectra.build_schreier.s", "s", _span("spectra.build_schreier", "s")),
    ("spectra.spectral_gap.dense_s", "s",
     _count("spectra.spectral_gap.dense_s")),
    ("spectra.spectral_gap.iterative_s", "s",
     _count("spectra.spectral_gap.iterative_s")),
    ("spectra.spectral_gap.iterations", "count",
     _count("spectra.spectral_gap.iterations")),
    ("spectra.SchreierGraph.matmat.cols", "count",
     _count("spectra.SchreierGraph.matmat.cols")),
    ("spectra.operator_bytes", "B-computed", _count("spectra.operator_bytes")),
    ("spectra.SchreierGraph.normalized_adjacency.s", "s",
     _span("spectra.SchreierGraph.normalized_adjacency", "s")),
    ("spectra.is_connected.s", "s", _span("spectra.is_connected", "s")),
] + [(f"{layer}.self_s", "s", ("layer", layer)) for layer in LAYERS]


def per_layer(spans, counters):
    """Per-layer metrics {name: (value, unit)} from a traced pass's span
    summary and counters."""
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, stat in spans.items():
        layer_self[name.split(".", 1)[0]] += stat["self_s"]
    out = {}
    for metric, unit, src in PER_LAYER:
        kind = src[0]
        if kind == "span":
            value = spans[src[1]][src[2]]
        elif kind == "count":
            value = counters.get(src[1], 0)
        elif kind == "layer":
            value = layer_self[src[1]]
        else:
            value = src[1](spans, counters)
        out[metric] = (value, unit)
    return out

