(* Tests for the parallel Monte-Carlo engine: the bit-identical-
   for-any-domain-count guarantee across every estimator, adaptive
   sampling semantics, and exception-safe domain joining. *)

module Parallel_exec = Ckpt_sim.Parallel_exec
module Monte_carlo = Ckpt_sim.Monte_carlo
module Sim_run = Ckpt_sim.Sim_run
module Welford = Ckpt_stats.Welford
module Rng = Ckpt_prng.Rng
module Task = Ckpt_dag.Task

let seg = Sim_run.segment
let domain_counts = [ 1; 2; 3; 7 ]

(* Exact float equality: the guarantee is bit-identical, not close. *)
let same name a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.17g = %.17g" name a b)
    true (Float.equal a b)

let check_identical_estimates name of_domains =
  let reference = of_domains 1 in
  List.iter
    (fun domains ->
      let e = of_domains domains in
      let tag field = Printf.sprintf "%s (%d domains, %s)" name domains field in
      same (tag "mean") reference.Monte_carlo.mean e.Monte_carlo.mean;
      same (tag "stddev") reference.Monte_carlo.stddev e.Monte_carlo.stddev;
      same (tag "min") reference.Monte_carlo.min e.Monte_carlo.min;
      same (tag "max") reference.Monte_carlo.max e.Monte_carlo.max;
      Alcotest.(check int) (tag "runs") reference.Monte_carlo.runs e.Monte_carlo.runs)
    domain_counts

let test_estimate_segments_identical () =
  check_identical_estimates "estimate_segments" (fun domains ->
      Monte_carlo.estimate_segments ~domains ~model:(Monte_carlo.Poisson_rate 0.08)
        ~downtime:0.4 ~runs:3000 ~rng:(Rng.create ~seed:515L)
        [ seg ~work:7.0 ~checkpoint:0.7 ~recovery:1.2 ])

let chain_tasks =
  [| Task.make ~id:0 ~work:3.0 ~checkpoint_cost:0.5 ~recovery_cost:1.0 ();
     Task.make ~id:1 ~work:4.0 ~checkpoint_cost:0.4 ~recovery_cost:1.1 ();
     Task.make ~id:2 ~work:2.0 ~checkpoint_cost:0.3 ~recovery_cost:1.2 () |]

let test_estimate_chain_policy_identical () =
  check_identical_estimates "estimate_chain_policy" (fun domains ->
      Monte_carlo.estimate_chain_policy ~domains ~model:(Monte_carlo.Poisson_rate 0.06)
        ~downtime:0.3 ~initial_recovery:0.8 ~runs:2000 ~rng:(Rng.create ~seed:616L)
        ~decide:(fun ctx -> ctx.Sim_run.work_since_checkpoint >= 4.0)
        chain_tasks)

let test_collect_segments_identical () =
  let collect domains =
    Monte_carlo.collect_segments ~domains ~model:(Monte_carlo.Poisson_rate 0.05)
      ~downtime:0.5 ~runs:2000 ~rng:(Rng.create ~seed:717L)
      [ seg ~work:10.0 ~checkpoint:1.0 ~recovery:2.0 ]
  in
  let reference = collect 1 in
  List.iter
    (fun domains ->
      let d = collect domains in
      Alcotest.(check bool)
        (Printf.sprintf "identical sample array (%d domains)" domains)
        true
        (d.Monte_carlo.samples = reference.Monte_carlo.samples);
      same
        (Printf.sprintf "identical mean (%d domains)" domains)
        reference.Monte_carlo.estimate.Monte_carlo.mean
        d.Monte_carlo.estimate.Monte_carlo.mean)
    domain_counts

let test_logs_replay_identical () =
  let rng = Rng.create ~seed:818L in
  let logs =
    List.init 40 (fun i ->
        let run_rng = Rng.substream rng (Printf.sprintf "log-%d" i) in
        let times =
          Array.init 6 (fun k -> (float_of_int k +. Rng.float run_rng) *. 4.0)
        in
        Ckpt_failures.Trace.of_times ~horizon:100.0 times)
  in
  check_identical_estimates "estimate_chain_policy_on_logs" (fun domains ->
      Monte_carlo.estimate_chain_policy_on_logs ~domains ~downtime:0.25
        ~initial_recovery:0.7
        ~logs
        ~decide:(fun _ -> true)
        chain_tasks)

let qcheck_parallel_equals_sequential =
  (* Random workloads and domain counts: the engine must be oblivious
     to the layout for any shape, not just the hand-picked ones. *)
  let gen =
    QCheck.Gen.(
      let* work = float_range 1.0 20.0 in
      let* checkpoint = float_range 0.0 2.0 in
      let* recovery = float_range 0.0 2.0 in
      let* rate = float_range 0.005 0.3 in
      let* runs = int_range 1 700 in
      let* domains = oneofl [ 2; 3; 7 ] in
      let* seed = int_range 1 1_000_000 in
      return (work, checkpoint, recovery, rate, runs, domains, seed))
  in
  QCheck.Test.make ~name:"parallel estimate is bit-identical to sequential" ~count:25
    (QCheck.make gen)
    (fun (work, checkpoint, recovery, rate, runs, domains, seed) ->
      let estimate domains =
        Monte_carlo.estimate_segments ~domains ~model:(Monte_carlo.Poisson_rate rate)
          ~downtime:0.2 ~runs
          ~rng:(Rng.create ~seed:(Int64.of_int seed))
          [ seg ~work ~checkpoint ~recovery ]
      in
      let a = estimate 1 and b = estimate domains in
      Float.equal a.Monte_carlo.mean b.Monte_carlo.mean
      && Float.equal a.Monte_carlo.stddev b.Monte_carlo.stddev
      && Float.equal a.Monte_carlo.min b.Monte_carlo.min
      && Float.equal a.Monte_carlo.max b.Monte_carlo.max)

let test_adaptive_reaches_target () =
  let target_ci = 0.01 in
  let estimate =
    Monte_carlo.estimate_segments ~domains:2 ~target_ci ~max_runs:200_000
      ~model:(Monte_carlo.Poisson_rate 0.08) ~downtime:0.4 ~runs:500
      ~rng:(Rng.create ~seed:919L)
      [ seg ~work:7.0 ~checkpoint:0.7 ~recovery:1.2 ]
  in
  let lo, hi = estimate.Monte_carlo.ci99 in
  let half = (hi -. lo) /. 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "CI half-width %.5f within %.5f of mean %.3f" half
       (target_ci *. estimate.Monte_carlo.mean)
       estimate.Monte_carlo.mean)
    true
    (half <= target_ci *. Float.abs estimate.Monte_carlo.mean);
  Alcotest.(check bool) "grew beyond the initial round" true
    (estimate.Monte_carlo.runs >= 500);
  Alcotest.(check bool) "under the cap" true (estimate.Monte_carlo.runs <= 200_000)

let test_adaptive_respects_cap () =
  (* An unreachable target must stop exactly at the cap. *)
  let estimate =
    Monte_carlo.estimate_segments ~domains:2 ~target_ci:1e-9 ~max_runs:800
      ~model:(Monte_carlo.Poisson_rate 0.1) ~downtime:0.2 ~runs:200
      ~rng:(Rng.create ~seed:1021L)
      [ seg ~work:5.0 ~checkpoint:0.5 ~recovery:1.0 ]
  in
  Alcotest.(check int) "stopped at the hard cap" 800 estimate.Monte_carlo.runs

let test_adaptive_deterministic_across_domains () =
  let estimate domains =
    Monte_carlo.estimate_segments ~domains ~target_ci:0.02 ~max_runs:100_000
      ~model:(Monte_carlo.Poisson_rate 0.08) ~downtime:0.4 ~runs:300
      ~rng:(Rng.create ~seed:1122L)
      [ seg ~work:7.0 ~checkpoint:0.7 ~recovery:1.2 ]
  in
  let a = estimate 1 in
  List.iter
    (fun domains ->
      let b = estimate domains in
      Alcotest.(check int)
        (Printf.sprintf "same stopping point (%d domains)" domains)
        a.Monte_carlo.runs b.Monte_carlo.runs;
      same (Printf.sprintf "same adaptive mean (%d domains)" domains)
        a.Monte_carlo.mean b.Monte_carlo.mean)
    domain_counts

let test_adaptive_prefix_property () =
  (* The first n samples of a longer campaign are the shorter campaign:
     substream derivation is positional, not sequential. *)
  let collect runs =
    (Monte_carlo.collect_segments ~domains:3 ~model:(Monte_carlo.Poisson_rate 0.05)
       ~downtime:0.5 ~runs ~rng:(Rng.create ~seed:1223L)
       [ seg ~work:10.0 ~checkpoint:1.0 ~recovery:2.0 ])
      .Monte_carlo.samples
  in
  (* collect sorts; compare as multisets via sorted arrays. *)
  let short = collect 500 in
  let long = collect 1000 in
  let in_long = Hashtbl.create 1000 in
  Array.iter
    (fun x ->
      Hashtbl.replace in_long x (1 + Option.value ~default:0 (Hashtbl.find_opt in_long x)))
    long;
  let missing =
    Array.fold_left
      (fun acc x ->
        match Hashtbl.find_opt in_long x with
        | Some n when n > 0 ->
            Hashtbl.replace in_long x (n - 1);
            acc
        | _ -> acc + 1)
      0 short
  in
  Alcotest.(check int) "every short-campaign sample appears in the long campaign" 0 missing

exception Boom of int

let test_exception_joins_all_domains () =
  (* A worker that raises must not leave domains running or mask the
     exception; the engine must stay usable afterwards. *)
  let raised =
    try
      ignore
        (Parallel_exec.estimate ~domains:4 ~runs:2000 ~seed:42L (fun r _rng ->
             if r >= 700 then raise (Boom r) else 1.0));
      None
    with Boom r -> Some r
  in
  (match raised with
  | Some r -> Alcotest.(check bool) "failing run index reported" true (r >= 700)
  | None -> Alcotest.fail "expected Boom to propagate");
  (* The pool is not poisoned: a follow-up campaign works and is exact. *)
  let acc = Parallel_exec.estimate ~domains:4 ~runs:1000 ~seed:42L (fun _ _ -> 2.5) in
  Alcotest.(check int) "subsequent campaign completes" 1000 (Welford.count acc);
  Alcotest.(check bool) "subsequent campaign correct" true
    (Float.equal 2.5 (Welford.mean acc))

let test_livelock_propagates () =
  (* The motivating bug: Sim_run.Livelock from one worker used to leak
     the other domains; now it must surface as a clean exception. *)
  let sample _run run_rng =
    let stream =
      Ckpt_failures.Failure_stream.renewal
        ~law:(Ckpt_dist.Law.deterministic 1.0) ~processors:1 run_rng
    in
    Sim_run.run_segments ~max_failures:500 ~downtime:0.0
      ~next_failure:(Ckpt_failures.Failure_stream.next_after stream)
      [ seg ~work:5.0 ~checkpoint:0.0 ~recovery:2.0 ]
  in
  match Parallel_exec.estimate ~domains:3 ~runs:50 ~seed:1L sample with
  | exception Sim_run.Livelock _ -> ()
  | _ -> Alcotest.fail "expected Livelock to propagate through the pool"

let test_more_domains_than_runs () =
  let acc = Parallel_exec.estimate ~domains:8 ~runs:3 ~seed:7L (fun r _ -> float_of_int r) in
  Alcotest.(check int) "all runs executed" 3 (Welford.count acc);
  Alcotest.(check bool) "mean of 0,1,2" true (Float.equal 1.0 (Welford.mean acc))

let test_failed_team_create_leaks_no_domain () =
  (* The runtime caps live domains well below 300, so this create fails
     part-way; the workers it had already spawned must be joined, or
     they would hold their slots and break every later pool. *)
  (match Ckpt_sim.Domain_team.create ~domains:300 () with
  | team ->
      Ckpt_sim.Domain_team.shutdown team;
      Alcotest.fail "expected a 300-domain team to exceed the runtime's domain cap"
  | exception Failure _ -> ());
  let estimate domains =
    Parallel_exec.estimate ~domains ~runs:3000 ~seed:9L (fun r rng ->
        float_of_int (r mod 3) +. Rng.float rng)
  in
  let acc = estimate 4 and reference = estimate 1 in
  Alcotest.(check int) "campaign after the failed create completes" 3000 (Welford.count acc);
  same "mean equals the 1-domain campaign" (Welford.mean reference) (Welford.mean acc);
  same "variance equals the 1-domain campaign" (Welford.variance reference)
    (Welford.variance acc)

let test_domain_batch_gauges_sum () =
  (* Per-participant batch gauges account for every batch of the round
     exactly once, whatever the team size. *)
  let runs = 2000 in
  let batches = (runs + Parallel_exec.batch_size - 1) / Parallel_exec.batch_size in
  List.iter
    (fun domains ->
      Ckpt_obs.Metrics.reset ();
      ignore (Parallel_exec.estimate ~domains ~runs ~seed:3L (fun _ _ -> 1.0));
      let snapshot = Ckpt_obs.Metrics.snapshot () in
      let total = ref 0.0 in
      for d = 0 to domains - 1 do
        let name = Printf.sprintf "pool.domain%d.batches" d in
        match Ckpt_obs.Metrics.find snapshot name with
        | Some (_, Ckpt_obs.Metrics.Gauge (Some v)) -> total := !total +. v
        | _ -> Alcotest.failf "%s not set (%d domains)" name domains
      done;
      same (Printf.sprintf "batch gauges sum to %d (%d domains)" batches domains)
        (float_of_int batches) !total)
    [ 1; 2; 3 ];
  Ckpt_obs.Metrics.reset ()

let test_gc_minor_words_per_run () =
  (* Each lane reports only its own domain's allocation, so a fixed
     campaign allocates the same words per run whatever the team size.
     Gc.quick_stat is process-wide on OCaml 5.1: per-lane quick_stat
     deltas would scale the row with the domain count. *)
  let runs = 20_000 in
  let words_per_run domains =
    Ckpt_obs.Metrics.reset ();
    ignore
      (Parallel_exec.estimate ~domains ~runs ~seed:5L (fun r _ ->
           float_of_int (List.length (Sys.opaque_identity (List.init 16 (fun i -> i + r))))));
    match Ckpt_obs.Metrics.find (Ckpt_obs.Metrics.snapshot ()) "gc.minor_words" with
    | Some (Ckpt_obs.Metrics.Timing, Ckpt_obs.Metrics.Sum w) -> w /. float_of_int runs
    | _ -> Alcotest.fail "gc.minor_words is not a Timing sum"
  in
  let reference = words_per_run 1 in
  Alcotest.(check bool) "the campaign allocates" true (reference > 16.0);
  List.iter
    (fun domains ->
      let w = words_per_run domains in
      if Float.abs (w -. reference) > 0.1 *. reference then
        Alcotest.failf "gc.minor_words/run %.1f at %d domains vs %.1f at 1" w domains
          reference)
    [ 2; 4 ];
  Ckpt_obs.Metrics.reset ()

(* --- The process's one team ------------------------------------------ *)

let domain_id () = (Domain.self () :> int)

let test_no_team_churn () =
  (* Back-to-back campaigns reuse the parked workers: a team spawned
     per campaign would show a fresh Domain id each time. A 2-domain
     team outlives its campaign only within the machine's core count. *)
  let seen = Hashtbl.create 8 in
  for campaign = 1 to 20 do
    let ids = Array.make 2048 (-1) in
    ignore
      (Parallel_exec.estimate ~domains:2 ~runs:2048 ~seed:(Int64.of_int campaign) (fun r _ ->
           ids.(r) <- domain_id ();
           1.0));
    Array.iter (fun id -> Hashtbl.replace seen id ()) ids
  done;
  if Domain.recommended_domain_count () >= 2 then
    Alcotest.(check bool)
      (Printf.sprintf "%d distinct domains ran the samples of 20 campaigns" (Hashtbl.length seen))
      true
      (Hashtbl.length seen <= 2)

let nested_sample r rng = float_of_int (r mod 5) +. Rng.float rng

let same_welford name expected actual =
  Alcotest.(check int) (name ^ ": count") (Welford.count expected) (Welford.count actual);
  same (name ^ ": mean") (Welford.mean expected) (Welford.mean actual);
  same (name ^ ": variance") (Welford.variance expected) (Welford.variance actual)

let test_nested_campaign () =
  (* A campaign started inside a sample finds the team busy and runs on
     its caller: it returns, with the 1-domain bits. *)
  let inner () = Parallel_exec.estimate ~domains:2 ~runs:600 ~seed:11L nested_sample in
  let reference = Parallel_exec.estimate ~domains:1 ~runs:600 ~seed:11L nested_sample in
  let means = Array.make 8 nan in
  ignore
    (Parallel_exec.estimate ~domains:2 ~runs:8 ~seed:1L (fun r _ ->
         let acc = inner () in
         means.(r) <- Welford.mean acc;
         0.0));
  Array.iteri
    (fun r m -> same (Printf.sprintf "nested campaign in run %d" r) (Welford.mean reference) m)
    means;
  same_welford "campaign after the nested ones" reference (inner ())

let test_campaign_from_second_domain () =
  (* While one campaign holds the team, a campaign started on another
     domain must not wait for it: the first campaign's run 0 spins
     until the second has returned. *)
  let started = Atomic.make false and released = Atomic.make false in
  let released_in_time = Atomic.make false in
  let t0 = Ckpt_obs.Clock.now_ns () in
  let spin_until flag =
    while (not (Atomic.get flag)) && Ckpt_obs.Clock.elapsed_s t0 < 30.0 do
      Domain.cpu_relax ()
    done
  in
  let second =
    Domain.spawn (fun () ->
        spin_until started;
        let acc = Parallel_exec.estimate ~domains:2 ~runs:3000 ~seed:9L nested_sample in
        Atomic.set released true;
        acc)
  in
  let first =
    Parallel_exec.estimate ~domains:2 ~runs:1024 ~seed:2L (fun r _ ->
        if r = 0 then begin
          Atomic.set started true;
          spin_until released;
          Atomic.set released_in_time (Atomic.get released)
        end;
        1.0)
  in
  let acc = Domain.join second in
  Alcotest.(check bool) "second campaign returned while the first ran" true
    (Atomic.get released_in_time);
  Alcotest.(check int) "first campaign complete" 1024 (Welford.count first);
  same_welford "campaign from a second domain"
    (Parallel_exec.estimate ~domains:1 ~runs:3000 ~seed:9L nested_sample)
    acc

let test_invalid_arguments () =
  let sample _ _ = 0.0 in
  Alcotest.check_raises "zero runs" (Invalid_argument "Parallel_exec: runs must be positive")
    (fun () -> ignore (Parallel_exec.estimate ~runs:0 ~seed:1L sample));
  Alcotest.check_raises "bad domains"
    (Invalid_argument "Parallel_exec: domains must be >= 1") (fun () ->
      ignore (Parallel_exec.estimate ~domains:0 ~runs:10 ~seed:1L sample));
  Alcotest.check_raises "cap below initial round"
    (Invalid_argument "Parallel_exec: max_runs must be >= runs") (fun () ->
      ignore
        (Parallel_exec.estimate_adaptive ~runs:100 ~max_runs:50 ~target_ci:0.1 ~seed:1L
           sample));
  Alcotest.check_raises "non-positive target"
    (Invalid_argument "Parallel_exec: target_ci must be positive") (fun () ->
      ignore
        (Parallel_exec.estimate_adaptive ~runs:100 ~max_runs:200 ~target_ci:0.0 ~seed:1L
           sample))

let suite =
  [
    Alcotest.test_case "estimate_segments bit-identical across domains" `Quick
      test_estimate_segments_identical;
    Alcotest.test_case "estimate_chain_policy bit-identical across domains" `Quick
      test_estimate_chain_policy_identical;
    Alcotest.test_case "collect_segments bit-identical across domains" `Quick
      test_collect_segments_identical;
    Alcotest.test_case "log replay bit-identical across domains" `Quick
      test_logs_replay_identical;
    QCheck_alcotest.to_alcotest qcheck_parallel_equals_sequential;
    Alcotest.test_case "adaptive sampling reaches the CI target" `Quick
      test_adaptive_reaches_target;
    Alcotest.test_case "adaptive sampling respects the run cap" `Quick
      test_adaptive_respects_cap;
    Alcotest.test_case "adaptive stopping is domain-count independent" `Quick
      test_adaptive_deterministic_across_domains;
    Alcotest.test_case "campaign extension preserves samples" `Quick
      test_adaptive_prefix_property;
    Alcotest.test_case "worker exception joins all domains" `Quick
      test_exception_joins_all_domains;
    Alcotest.test_case "livelock propagates through the pool" `Quick
      test_livelock_propagates;
    Alcotest.test_case "more domains than runs" `Quick test_more_domains_than_runs;
    Alcotest.test_case "failed team create leaks no domain" `Quick
      test_failed_team_create_leaks_no_domain;
    Alcotest.test_case "per-domain batch gauges sum to the batch count" `Quick
      test_domain_batch_gauges_sum;
    Alcotest.test_case "gc.minor_words per run is domain-count independent" `Quick
      test_gc_minor_words_per_run;
    Alcotest.test_case "back-to-back campaigns reuse the team" `Quick test_no_team_churn;
    Alcotest.test_case "campaign inside a sample returns" `Quick test_nested_campaign;
    Alcotest.test_case "campaign from a second domain returns" `Quick
      test_campaign_from_second_domain;
    Alcotest.test_case "argument validation" `Quick test_invalid_arguments;
  ]
