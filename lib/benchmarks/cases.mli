(** The named, tagged benchmark cases behind both the human bench
    driver ([bench/main.exe]) and the machine-readable [ckpt-bench]
    CLI. Every case is deterministic given its fixed seed; only its
    timing varies.

    Tags (used by [ckpt-bench run --tag]): [kernel] (closed forms and
    other micro-kernels), [dp] (chain/partition dynamic programs),
    [smawk] (the SMAWK chain solver at n ∈ {3200, 12800, 10⁶} and its
    linearity gate), [scaling] (the chain DP at
    n ∈ {50, 200, 800, 3200}, exposing the O(n²) curve, the SMAWK
    cases, and the Monte-Carlo pool at 1/2/4/8 domains), [sim] (simulator throughput), [mc] (Monte-Carlo pool),
    [dist] (distribution kernels). *)

type kind =
  | Micro of (unit -> unit)
      (** Timed per-iteration by the Bechamel harness (GC-stabilized,
          geometric run growth). *)
  | Macro of { repeats : int; fn : unit -> unit }
      (** Timed per-invocation with the monotonic clock; [repeats]
          samples in full mode (fewer in quick mode), after one
          untimed warmup call. *)

type case = { name : string; tags : string list; kind : kind }

val all : quick:bool -> case list
(** Every case, in fixed order. [quick] shrinks the workloads (notably
    the Monte-Carlo run counts), not just the sample counts, so it is
    safe on 2-core CI runners. *)

val mc_scaling_estimate : quick:bool -> domains:int -> Ckpt_sim.Monte_carlo.estimate
(** The Part-3 domain-scaling workload (fixed seed). Exposed separately
    so the bench driver can print the speedup table and assert the
    bit-identical-estimates guarantee across domain counts. *)

val assert_mc_deterministic : unit -> unit
(** Cheap cross-domain determinism check (1 vs 3 domains, small run
    count); raises [Failure] if the estimates differ. Run by
    [ckpt-bench run] so a determinism break can never hide behind a
    green timing gate. *)
