(** GC and allocation telemetry as [gc.*] Timing metrics.

    Two probes, because OCaml 5.1 counts allocation per domain but
    reports everything else process-wide:

    - a {!minor_probe} reads the calling domain's own
      [Gc.minor_words ()]. The parallel Monte-Carlo pool arms one per
      worker domain and samples it at every batch boundary, so
      [gc.minor_words] adds each domain's allocation exactly once;
    - a {!probe} reads the process-wide [Gc.quick_stat]. The pool arms
      one per campaign on the calling domain and samples it once when
      the campaign ends.

    Metrics (all Timing kind — they never perturb the Engine section's
    bit-identical guarantee): [gc.minor_words] (from minor probes),
    [gc.major_words], [gc.promoted_words] (float word counts),
    [gc.minor_collections], [gc.major_collections], [gc.compactions]
    (counters), and [gc.heap_words] (gauge, last observed major-heap
    size), all from process-wide probes.

    This module is the only lib/ module allowed to call [Gc.stat] /
    [Gc.quick_stat] directly — the [no-direct-gc-stat] lint rule
    routes everything else through here. *)

type minor_probe

val minor_probe : unit -> minor_probe
(** Arm a probe of the calling domain's minor-heap allocation (no
    metric emission). *)

val sample_minor : minor_probe -> unit
(** Add the calling domain's minor words since the probe was armed or
    last sampled to [gc.minor_words], then re-arm. Call it from the
    domain that armed the probe; deltas are clamped at zero. *)

type probe

val probe : unit -> probe
(** Snapshot the process-wide GC counters (no metric emission). *)

val sample : probe -> unit
(** Emit the process-wide deltas since the probe was armed or last
    sampled (every [gc.*] row except [gc.minor_words]), then re-arm.
    Deltas are clamped at zero. *)
