(** The named, tagged benchmark cases behind the [ckpt-bench] CLI.
    Every case is deterministic given its fixed seed; only its timing
    varies.

    Tags (used by [ckpt-bench run --tag]): [kernel] (closed forms and
    other micro-kernels), [core] (the Proposition 1 closed form and
    the schedule expectation), [failures] (failure streams), [dist]
    (distribution kernels), [fit] (the Weibull maximum-likelihood fit),
    [dp] (chain/partition dynamic programs), [smawk] (the SMAWK chain
    solver at n ∈ {3200, 12800, 10⁶} and its linearity gate),
    [scaling] (the chain DP at n ∈ {50, 200, 800, 3200}, exposing the
    O(n²) curve, the SMAWK cases, the parallel moldable sweep and the
    Monte-Carlo pool at 1/2/4/8 domains), [sim] (simulator
    throughput and the scenario harness), [scenarios] (the scenario
    registry and its coverage sweep), [mc] (Monte-Carlo pool),
    [serve] (loopback [ckpt-serve] round trips). *)

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

val assert_mc_deterministic : quick:bool -> unit
(** Cross-domain determinism check on the [mc-pool] workload (10 000
    runs in quick mode, 100 000 in full): the estimate at 2, 3, 4 and 8
    domains must equal the 1-domain estimate bit for bit (mean,
    stddev, min, max and run count, compared with [Float.equal]);
    raises [Failure] otherwise. The 1-domain campaign is also an
    allocation gate: above 96 minor words per run it raises [Failure].
    Run by [ckpt-bench run] and [ckpt-bench check] so a determinism or
    allocation break can never hide behind a green timing gate. *)
