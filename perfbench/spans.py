"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public functions and methods of the ``repro``
package with wrappers that record a span per call: its name, start, end
and parent (the span open when it started).  A span's self time is its
duration minus the durations of its direct children, so the self times
of all spans plus the time outside any span add up to the traced wall
time.  Spans are folded into per-name totals (calls, seconds, self
seconds) as they close, because the hot spans (one per cipher call) are
far too many to keep; specimen-level spans additionally keep their
durations for percentiles.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute, span name, keep durations) for plain functions;
#: every ``repro`` module attribute bound to the same object is patched,
#: so callers that imported the function by name see the wrapper too
FUNCTIONS = (
    ("repro.fuzz.campaign", "run_fuzz", "campaign", False),
    ("repro.faults.campaign", "run_campaign", "campaign", False),
    ("repro.attacksynth.campaign", "run_attacksynth", "campaign", False),
    ("repro.cc", "compile_source", "cc.compile", False),
    ("repro.isa.assembler", "parse", "isa.parse", False),
    ("repro.isa.assembler", "assemble", "isa.assemble", False),
    ("repro.transform.transformer", "transform", "transform.transform",
     False),
    ("repro.transform.transformer", "prepare", "transform.layout", False),
    ("repro.transform.transformer", "canonicalize_returns",
     "transform.layout", False),
    ("repro.transform.transformer", "rewrite_indirect_returns",
     "transform.layout", False),
    ("repro.cfg.builder", "build_cfg", "transform.layout", False),
    ("repro.transform.layout", "build_layout", "transform.layout", False),
    ("repro.transform.encrypt", "seal", "transform.seal", False),
    ("repro.transform.encrypt", "reseal_block", "transform.reseal", False),
    ("repro.transform.renonce", "reencrypt", "transform.reseal", False),
    ("repro.sim.fused", "compile_sofia_block", "sim.fused_compile", False),
    ("repro.sim.fused", "compile_vanilla_run", "sim.fused_compile", False),
    ("repro.fuzz.generators", "generate", "oracle.generate", False),
    ("repro.fuzz.oracle", "run_oracle", "fuzz.oracle", True),
    ("repro.faults.campaign", "run_fault", "faults.specimen", True),
    ("repro.attacksynth.classify", "run_sofia_instance",
     "attacksynth.instance", True),
    ("repro.attacksynth.classify", "run_plain_instance",
     "attacksynth.plain", False),
    ("repro.attacksynth.enumerate", "enumerate_instances",
     "attacksynth.enumerate", False),
    ("repro.runner.store", "run_tasks_stored", "runner.stored", False),
    ("repro.runner.pool", "run_tasks", "runner.pool", False),
)

#: span name -> the layer its self time is charged to
LAYER_OF = {
    "campaign": "campaign",
    "cc.compile": "cc",
    "isa.parse": "isa", "isa.assemble": "isa",
    "transform.transform": "transform.layout",
    "transform.layout": "transform.layout",
    "transform.seal": "transform.seal",
    "transform.reseal": "transform.reseal",
    "crypto.setup": "crypto", "crypto.encrypt": "crypto",
    "crypto.keystream": "crypto",
    "sim.init": "sim.init", "sim.run": "sim.dispatch",
    "sim.frontend": "sim.frontend", "sim.fused_compile": "sim.fused_compile",
    "oracle.generate": "oracle", "fuzz.oracle": "oracle",
    "faults.specimen": "oracle", "attacksynth.instance": "oracle",
    "attacksynth.plain": "oracle", "attacksynth.enumerate": "oracle",
    "runner.stored": "runner", "runner.pool": "runner",
    "runner.store_put": "runner.store_put",
}

#: the full layer breakdown, in report order; ``other`` is traced wall
#: time outside every span (the benchmark's own loop and digests)
LAYERS = ("cc", "isa", "transform.layout", "transform.seal",
          "transform.reseal", "crypto", "sim.init", "sim.frontend",
          "sim.dispatch", "sim.fused_compile", "oracle", "runner",
          "runner.store_put", "campaign", "other")

#: percentiles the tail is chosen from, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("specimens", "count"),
    ("cc.calls", "count"), ("cc.self_s", "s"),
    ("isa.calls", "count"), ("isa.self_s", "s"),
    ("transform.layout_s", "s"), ("transform.seal_s", "s"),
    ("transform.reseal_calls", "count"), ("transform.reseal_s", "s"),
    ("crypto.encrypt_calls", "count"), ("crypto.encrypt_s", "s"),
    ("crypto.keystream_calls", "count"), ("crypto.keystream_hits", "count"),
    ("crypto.keystream_hit_ratio", "ratio"),
    ("crypto.setup_calls", "count"), ("crypto.setup_s", "s"),
    ("crypto.self_s", "s"), ("crypto.self_share", "ratio"),
    ("sim.machines", "count"), ("sim.machines_per_specimen", "ratio"),
    ("sim.init_s", "s"),
    ("sim.frontend_calls", "count"), ("sim.frontend_s", "s"),
    ("sim.frontend_lookups", "count"), ("sim.frontend_hits", "count"),
    ("sim.frontend_hit_ratio", "ratio"),
    ("sim.dispatch_s", "s"), ("sim.dispatch_share", "ratio"),
    ("sim.fused_compiles", "count"), ("sim.fused_compile_s", "s"),
    ("fuzz.oracle_samples", "count"), ("fuzz.oracle_p50_ms", "ms"),
    ("fuzz.oracle_tail_ms", "ms"), ("fuzz.oracle_tail_pct", "%"),
    ("faults.specimen_samples", "count"), ("faults.specimen_p50_ms", "ms"),
    ("faults.specimen_tail_ms", "ms"), ("faults.specimen_tail_pct", "%"),
    ("attacksynth.instance_samples", "count"),
    ("attacksynth.instance_p50_ms", "ms"),
    ("attacksynth.instance_tail_ms", "ms"),
    ("attacksynth.instance_tail_pct", "%"),
    ("attacksynth.enumerate_s", "s"),
    ("oracle.self_s", "s"),
    ("runner.self_s", "s"), ("runner.store_puts", "count"),
    ("runner.store_put_s", "s"),
    ("campaign.self_s", "s"), ("other_s", "s"),
    ("trace.wall_s", "s"), ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"), ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

#: specimen-level spans, whose names are also their metric prefixes
SPECIMEN_SPANS = ("fuzz.oracle", "faults.specimen", "attacksynth.instance")


class Tracer:
    """Span wrappers over the ``repro`` package, installed on demand."""

    def __init__(self) -> None:
        #: span name -> [calls, seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: span name -> durations, for specimen-level spans
        self.samples: Dict[str, List[float]] = {}
        #: event counts measured at the same boundaries
        self.counts: Dict[str, int] = {}
        self._stack: List[List[float]] = []
        self._undo: List[tuple] = []

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        for durations in self.samples.values():
            durations.clear()
        for name in self.counts:
            self.counts[name] = 0

    def span(self, name: str, fn: Callable, keep: bool = False) -> Callable:
        """``fn`` wrapped to record one span named ``name`` per call."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        durations = self.samples.setdefault(name, []) if keep else None
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            # frame[0] accumulates the durations of direct children
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if durations is not None:
                    durations.append(duration)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, keep in FUNCTIONS:
            module = importlib.import_module(module_name)
            self._patch_everywhere(getattr(module, attr),
                                   self.span(name, getattr(module, attr),
                                             keep))
        self._install_methods()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch_everywhere(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def _install_methods(self) -> None:
        from repro.crypto.ctr import EdgeKeystream
        from repro.crypto.rectangle import Rectangle80
        from repro.runner.store import ResultStore
        from repro.sim.sofia import SofiaMachine
        from repro.sim.vanilla import VanillaMachine
        from repro.transform.image import SofiaImage

        counts = self.counts
        for name in ("keystream_hits", "frontend_misses",
                     "frontend_lookups", "machines"):
            counts.setdefault(name, 0)

        self._patch_method(Rectangle80, "__init__", self.span(
            "crypto.setup", Rectangle80.__init__))
        self._patch_method(Rectangle80, "encrypt", self.span(
            "crypto.encrypt", Rectangle80.encrypt))

        keystream = EdgeKeystream.keystream

        def counted_keystream(stream, prev_pc, pc):
            # a lookup that leaves the memo size unchanged was a hit
            size = stream.cache_size()
            value = keystream(stream, prev_pc, pc)
            if stream.cache_size() == size:
                counts["keystream_hits"] += 1
            return value

        self._patch_method(EdgeKeystream, "keystream", self.span(
            "crypto.keystream", counted_keystream))
        keystream_stat = self.stats["crypto.keystream"]

        decrypt_and_verify = SofiaMachine.decrypt_and_verify

        def counted_frontend(machine, prev_pc, entry_pc):
            # a front-end call that needed keystream words decrypted the
            # block (a miss); the fast engines call it on misses only
            before = keystream_stat[0]
            block = decrypt_and_verify(machine, prev_pc, entry_pc)
            if keystream_stat[0] != before:
                counts["frontend_misses"] += 1
            return block

        self._patch_method(SofiaMachine, "decrypt_and_verify", self.span(
            "sim.frontend", counted_frontend))

        sofia_run = SofiaMachine.run

        def counted_run(machine, *args, **kwargs):
            # every block traversal consults the front-end memo first
            result = sofia_run(machine, *args, **kwargs)
            counts["frontend_lookups"] += result.blocks_executed
            return result

        self._patch_method(SofiaMachine, "run",
                           self.span("sim.run", counted_run))
        self._patch_method(VanillaMachine, "run",
                           self.span("sim.run", VanillaMachine.run))

        for cls in (SofiaMachine, VanillaMachine):
            init = cls.__init__

            def counted_init(machine, *args, _init=init, **kwargs):
                counts["machines"] += 1
                _init(machine, *args, **kwargs)

            self._patch_method(cls, "__init__",
                               self.span("sim.init", counted_init))

        self._patch_method(ResultStore, "put", self.span(
            "runner.store_put", ResultStore.put))
        self._patch_method(SofiaImage, "replace_block_words", self.span(
            "transform.reseal", SofiaImage.replace_block_words))

    # -- reading ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def layer_self(self, wall: float) -> Dict[str, float]:
        """Self seconds per layer; ``other`` makes them sum to ``wall``."""
        layers = {layer: 0.0 for layer in LAYERS}
        for name, (_calls, _total, own) in self.stats.items():
            layers[LAYER_OF[name]] += own
        layers["other"] = wall - sum(layers.values())
        return layers


def tail(durations: List[float]) -> Optional[tuple]:
    """(percentile, value) of the highest ladder percentile with at least
    ten samples beyond it; ``None`` below eleven samples."""
    values = sorted(durations)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * len(values)))
        if len(values) - rank >= 10:
            return pct, values[rank - 1]
    return None


def layer_metrics(tracer: Tracer, specimens: int, wall: float,
                  setup_crypto: Tuple[int, float]) -> Tuple[dict, dict, list]:
    """The per-layer metrics of one traced sweep, the base of each ratio
    and percentile, and the (layer, self seconds, share) breakdown.

    ``setup_crypto`` is (calls, seconds) of the cipher constructions made
    while the workload was set up.  The untraced, traced and overhead
    ``trace.*`` entries are left to the caller, which owns the sweeps.
    """
    layers = tracer.layer_self(wall)
    calls, total, counts = tracer.calls, tracer.seconds, tracer.counts

    def ratio(part, whole):
        return part / whole if whole else 0.0

    lookups = counts["frontend_lookups"]
    frontend_hits = max(0, lookups - counts["frontend_misses"])
    keystream_hits = counts["keystream_hits"]
    metrics = {
        "specimens": specimens,
        "cc.calls": calls("cc.compile"), "cc.self_s": layers["cc"],
        "isa.calls": calls("isa.parse") + calls("isa.assemble"),
        "isa.self_s": layers["isa"],
        "transform.layout_s": layers["transform.layout"],
        "transform.seal_s": layers["transform.seal"],
        "transform.reseal_calls": calls("transform.reseal"),
        "transform.reseal_s": layers["transform.reseal"],
        "crypto.encrypt_calls": calls("crypto.encrypt"),
        "crypto.encrypt_s": total("crypto.encrypt"),
        "crypto.keystream_calls": calls("crypto.keystream"),
        "crypto.keystream_hits": keystream_hits,
        "crypto.keystream_hit_ratio": ratio(keystream_hits,
                                            calls("crypto.keystream")),
        "crypto.setup_calls": setup_crypto[0] + calls("crypto.setup"),
        "crypto.setup_s": setup_crypto[1] + total("crypto.setup"),
        "crypto.self_s": layers["crypto"],
        "crypto.self_share": ratio(layers["crypto"], wall),
        "sim.machines": counts["machines"],
        "sim.machines_per_specimen": ratio(counts["machines"], specimens),
        "sim.init_s": layers["sim.init"],
        "sim.frontend_calls": calls("sim.frontend"),
        "sim.frontend_s": layers["sim.frontend"],
        "sim.frontend_lookups": lookups,
        "sim.frontend_hits": frontend_hits,
        "sim.frontend_hit_ratio": ratio(frontend_hits, lookups),
        "sim.dispatch_s": layers["sim.dispatch"],
        "sim.dispatch_share": ratio(layers["sim.dispatch"], wall),
        "sim.fused_compiles": calls("sim.fused_compile"),
        "sim.fused_compile_s": total("sim.fused_compile"),
        "attacksynth.enumerate_s": total("attacksynth.enumerate"),
        "oracle.self_s": layers["oracle"],
        "runner.self_s": layers["runner"],
        "runner.store_puts": calls("runner.store_put"),
        "runner.store_put_s": layers["runner.store_put"],
        "campaign.self_s": layers["campaign"],
        "other_s": layers["other"],
        "trace.wall_s": wall,
    }
    bases = {
        "crypto.setup_s": "cipher constructions, set-up included",
        "sim.machines_per_specimen":
            f"{counts['machines']} machines / {specimens} specimens",
        "crypto.keystream_hit_ratio":
            f"{keystream_hits} hits / {calls('crypto.keystream')} lookups",
        "sim.frontend_hit_ratio":
            f"{frontend_hits} hits / {lookups} block traversals",
    }
    for span in SPECIMEN_SPANS:
        durations = tracer.samples.get(span, [])
        found = tail(durations)
        metrics[f"{span}_samples"] = len(durations)
        metrics[f"{span}_p50_ms"] = (
            1000.0 * statistics.median(durations) if durations else 0.0)
        metrics[f"{span}_tail_ms"] = 1000.0 * found[1] if found else 0.0
        metrics[f"{span}_tail_pct"] = found[0] if found else 0.0
        if durations:
            bases[f"{span}_p50_ms"] = f"of {len(durations)} samples"
            bases[f"{span}_tail_ms"] = (
                f"p{found[0]:g} of {len(durations)} samples" if found
                else f"fewer than 11 samples ({len(durations)})")
    breakdown = [(layer, layers[layer], ratio(layers[layer], wall))
                 for layer in LAYERS]
    return metrics, bases, breakdown
