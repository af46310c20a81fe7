(* GC and allocation telemetry folded into Timing-kind metrics.

   This module is the only place in lib/ allowed to read Gc.stat /
   Gc.quick_stat directly (enforced by the `no-direct-gc-stat` lint
   rule): every other module takes a probe at a boundary it owns.

   On OCaml 5.1 Gc.quick_stat is process-wide: it sums every domain's
   counters. Only Gc.minor_words () counts the calling domain alone. So
   allocation is sampled per domain (a minor_probe per pool lane, at
   batch boundaries), and the process-wide rows are read by one probe
   on one domain — summing quick_stat deltas across domains would
   count each domain's allocation once per domain.

   All gc.* metrics are Timing kind on purpose: allocation counts vary
   with domain layout, inlining and stdlib version, so they must never
   enter the Engine section whose bit-identical-across-domain-counts
   guarantee the pool tests pin. *)

let s_minor_words = Metrics.sum ~kind:Timing "gc.minor_words"
let s_major_words = Metrics.sum ~kind:Timing "gc.major_words"
let s_promoted_words = Metrics.sum ~kind:Timing "gc.promoted_words"
let c_minor = Metrics.counter ~kind:Timing "gc.minor_collections"
let c_major = Metrics.counter ~kind:Timing "gc.major_collections"
let c_compactions = Metrics.counter ~kind:Timing "gc.compactions"
let g_heap_words = Metrics.gauge ~kind:Timing "gc.heap_words"

type minor_probe = { mutable words : float }

let minor_probe () = { words = Gc.minor_words () }

(* Clamped at zero: the counter is monotone within a domain, but a
   probe handed across domains (not the intended use) must degrade to
   "no delta", never to negative telemetry. *)
let sample_minor p =
  let words = Gc.minor_words () in
  Metrics.add s_minor_words (Float.max 0.0 (words -. p.words));
  p.words <- words

type probe = { mutable last : Gc.stat }

let probe () = { last = Gc.quick_stat () }

let sample p =
  let s = Gc.quick_stat () in
  let prev = p.last in
  p.last <- s;
  Metrics.add s_major_words (Float.max 0.0 (s.Gc.major_words -. prev.Gc.major_words));
  Metrics.add s_promoted_words
    (Float.max 0.0 (s.Gc.promoted_words -. prev.Gc.promoted_words));
  Metrics.incr ~by:(Stdlib.max 0 (s.Gc.minor_collections - prev.Gc.minor_collections))
    c_minor;
  Metrics.incr ~by:(Stdlib.max 0 (s.Gc.major_collections - prev.Gc.major_collections))
    c_major;
  Metrics.incr ~by:(Stdlib.max 0 (s.Gc.compactions - prev.Gc.compactions)) c_compactions;
  Metrics.set g_heap_words (float_of_int s.Gc.heap_words)
