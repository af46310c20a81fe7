(* The Monte Carlo workloads: Monte_carlo.estimate_segments campaigns
   on 1 domain and on nproc domains, and the traced per-layer split of a
   campaign into RNG substreams, Sim_run, the domain pool and the
   Welford merge. *)

open Common
module Rng = Ckpt_prng.Rng
module Welford = Ckpt_stats.Welford
module Failure_stream = Ckpt_failures.Failure_stream
module Sim_run = Ckpt_sim.Sim_run
module Monte_carlo = Ckpt_sim.Monte_carlo
module Parallel_exec = Ckpt_sim.Parallel_exec
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Expected_time = Ckpt_core.Expected_time

type campaign = {
  label : string;
  segments : Sim_run.segment list;
  lambda : float;
  downtime : float;
  runs : int;
  closed_form : float;  (** Proposition 1 / Schedule.expected_makespan. *)
}

let prop1_runs = 250_000
let chain_runs = 10_000
let chain_tasks = 1000
let setups = 5

(* Proposition 1 on one segment: W = 100, C = R = 5, D = 1, λ = 0.01. *)
let prop1 ?(runs = prop1_runs) () =
  {
    label = "prop1";
    segments = [ Sim_run.segment ~work:100.0 ~checkpoint:5.0 ~recovery:5.0 ];
    lambda = 0.01;
    downtime = 1.0;
    runs;
    closed_form =
      Expected_time.expected_v ~work:100.0 ~checkpoint:5.0 ~downtime:1.0 ~recovery:5.0
        ~lambda:0.01;
  }

(* The optimal plan of a generated 1000-task chain, solved here: this
   planning step is the campaign's set-up. *)
let chain ?(runs = chain_runs) rng =
  let dag, lambda, downtime = Gen.planning_problem rng ~n:chain_tasks in
  let problem = Chain_problem.of_dag ~downtime ~lambda dag in
  let s = Chain_dp.solve_smawk problem in
  {
    label = "chain";
    segments = Schedule.to_sim_segments s.Chain_dp.schedule;
    lambda;
    downtime;
    runs;
    closed_form = Schedule.expected_makespan s.Chain_dp.schedule;
  }

let estimate c ~domains ~seed =
  Monte_carlo.estimate_segments ~domains ~model:(Monte_carlo.Poisson_rate c.lambda)
    ~downtime:c.downtime ~runs:c.runs ~rng:(Rng.create ~seed) c.segments

let same (a : Monte_carlo.estimate) (b : Monte_carlo.estimate) =
  Float.equal a.mean b.mean && Float.equal a.stddev b.stddev && Float.equal a.min b.min
  && Float.equal a.max b.max && a.runs = b.runs

(* The closed form must fall inside the campaign's normal interval. The
   benchmark checks thousands of campaigns across its runs, so a plain
   99% interval would fail about one seed in a hundred by chance alone;
   the interval is widened to keep the family-wise false-alarm rate at
   1% over 1000 campaigns (z = 4.42, Bonferroni). The distance in
   standard errors is reported as mc.closed_form_z. *)
let family_z = 4.42

let z_score c (e : Monte_carlo.estimate) = Float.abs (e.mean -. c.closed_form) /. e.std_error

let campaign_seed seed label = Rng.seed_of (Rng.substream (Rng.create ~seed) ("campaign-" ^ label))

let warmup_runs c = Stdlib.max 1 (c.runs / 8)

(* Set-up: build the campaign (for chain, solve its plan), then a small
   warm-up campaign on nproc domains; the median of [setups]. *)
let set_up ~kind ~seed =
  let one () =
    let t0 = now_ns () in
    let c =
      match kind with
      | `Prop1 -> prop1 ()
      | `Chain -> chain (Rng.substream (Rng.create ~seed) "chain")
    in
    ignore (estimate { c with runs = warmup_runs c } ~domains:(nproc ()) ~seed:1L);
    (since_s t0, c)
  in
  let samples = List.init setups (fun _ -> one ()) in
  (List.map fst samples, snd (List.hd samples))

let end_to_end ~kind ~seconds ~seed =
  let o = outcome () in
  let setup, c = set_up ~kind ~seed in
  let cseed = campaign_seed seed c.label in
  let dmax = nproc () in
  o.attempted <- o.attempted + 1;
  let t_ref = now_ns () in
  let reference = estimate c ~domains:1 ~seed:cseed in
  Printf.printf "1-domain campaign: %.1f ms\n" (since_ms t_ref);
  let z = z_score c reference in
  if not (z <= family_z) then
    wrong o "%s: closed form %.17g is %.2f standard errors from the estimate %.17g" c.label
      c.closed_form z reference.Monte_carlo.mean;
  let times =
    repeat_for ~seconds (fun () ->
        o.attempted <- o.attempted + 1;
        let t0 = now_ns () in
        let e = estimate c ~domains:dmax ~seed:cseed in
        let ms = since_ms t0 in
        if not (same e reference) then
          wrong o "%s: estimate on %d domains %.17g differs from 1 domain %.17g" c.label dmax
            e.Monte_carlo.mean reference.Monte_carlo.mean;
        ms)
  in
  (o, op_metrics ~setup ~times ~work:(float_of_int c.runs))

(* ---- traced per-layer split ------------------------------------------------ *)

let batch = 4096

(* Median over batches of the per-run cost of [f r] (ns) and of its
   minor words, each batch inside one benchmark span. *)
let per_run ~name ~label ~batches ~size f =
  let p = probe () in
  for b = 0 to batches - 1 do
    layer p ~name
      ~args:[ ("campaign", label); ("batch", string_of_int b); ("runs", string_of_int size) ]
      (fun () ->
        for i = 0 to size - 1 do
          f ((b * size) + i)
        done)
  done;
  (median p.ns /. float_of_int size, median p.words /. float_of_int size)

(* Sim_run cost per run: (substream + stream + run) minus (substream +
   stream), so the RNG layer is not charged twice. *)
let sim_layer c ~seed ~runs_per_batch ~batches =
  let root = Rng.create ~seed in
  let stream r = Failure_stream.poisson ~rate:c.lambda (Rng.substream_run root r) in
  let rng_ns, rng_words =
    per_run ~name:"rng.stream" ~label:c.label ~batches ~size:runs_per_batch (fun r ->
        ignore (stream r))
  in
  let all_ns, all_words =
    per_run ~name:"sim_run.run_segments" ~label:c.label ~batches ~size:runs_per_batch (fun r ->
        let s = stream r in
        ignore
          (Sim_run.run_segments ~downtime:c.downtime ~next_failure:(Failure_stream.next_after s)
             c.segments))
  in
  (rng_ns, all_ns -. rng_ns, all_words -. rng_words)

let timed_campaign ~name c ~domains ~seed =
  let p = probe () in
  let gc0 = minor_collections () in
  let e =
    layer p ~name
      ~args:[ ("campaign", c.label); ("domains", string_of_int domains); ("runs", string_of_int c.runs) ]
      (fun () -> estimate c ~domains ~seed)
  in
  let per_krun = float_of_int (minor_collections () - gc0) /. (float_of_int c.runs /. 1000.0) in
  (median p.ns /. 1e9, per_krun, e)

(* The pool alone: Parallel_exec.estimate over the campaign's run count
   with a constant sample (spawn, claim, substream derivation, batch
   reduction, join, merge). *)
let pool_overhead_ms c ~domains =
  let p = probe () in
  for i = 0 to 2 do
    ignore
      (layer p ~name:"parallel_exec.estimate"
         ~args:[ ("campaign", c.label); ("domains", string_of_int domains); ("rep", string_of_int i) ]
         (fun () -> Parallel_exec.estimate ~domains ~runs:c.runs ~seed:1L (fun _ _ -> 1.0)))
  done;
  median p.ns /. 1e6

let welford_merge_ns () =
  let acc () =
    let w = Welford.create () in
    for i = 1 to Parallel_exec.batch_size do
      Welford.add w (float_of_int i)
    done;
    w
  in
  let a = acc () and b = acc () in
  let ns, _ =
    per_run ~name:"welford.merge" ~label:"merge" ~batches:16 ~size:4096 (fun _ ->
        ignore (Welford.merge a b))
  in
  ns

(* [main] is the workload's own campaign at full size; the other one is
   measured at probe size, so every per-layer metric is present. *)
let layers ~main ~seed =
  let o = outcome () in
  let p1 = prop1 ~runs:(if main = Some `Prop1 then prop1_runs else prop1_runs / 10) () in
  let ch =
    chain
      ~runs:(if main = Some `Chain then chain_runs else chain_runs / 10)
      (Rng.substream (Rng.create ~seed) "chain")
  in
  let own = match main with Some `Chain -> ch | _ -> p1 in
  let cseed = campaign_seed seed own.label in
  let dmax = nproc () in
  let d1_s, d1_gc, d1 = timed_campaign ~name:"mc.campaign_d1" own ~domains:1 ~seed:cseed in
  let dm_s, dm_gc, dm = timed_campaign ~name:"mc.campaign_dmax" own ~domains:dmax ~seed:cseed in
  o.attempted <- o.attempted + 2;
  if not (same d1 dm) then wrong o "%s: 1-domain and %d-domain estimates differ" own.label dmax;
  let z = z_score own d1 in
  if not (z <= family_z) then wrong o "%s: closed form %.2f standard errors away" own.label z;
  let rng_ns, prop1_ns, prop1_words =
    sim_layer p1 ~seed:cseed ~runs_per_batch:batch ~batches:(Stdlib.max 4 (p1.runs / batch / 4))
  in
  let _, chain_ns, chain_words =
    sim_layer ch ~seed:cseed ~runs_per_batch:64 ~batches:(Stdlib.max 4 (ch.runs / 64 / 4))
  in
  ( o,
    [
      metric "rng.stream_ns" "ns" rng_ns;
      metric "sim_run.prop1_run_ns" "ns" prop1_ns;
      metric "sim_run.prop1_words_per_run" "words" prop1_words;
      metric "sim_run.chain_run_us" "us" (chain_ns /. 1e3);
      metric "sim_run.chain_words_per_run" "words" chain_words;
      metric ~samples:3 "parallel_exec.overhead_ms_d1" "ms" (pool_overhead_ms own ~domains:1);
      metric ~samples:3 "parallel_exec.overhead_ms_dmax" "ms" (pool_overhead_ms own ~domains:dmax);
      metric "welford.merge_ns" "ns" (welford_merge_ns ());
      metric "gc.minor_collections_per_krun_d1" "count" d1_gc;
      metric "gc.minor_collections_per_krun_dmax" "count" dm_gc;
      metric "mc.runs_per_s_d1" "1/s" (float_of_int own.runs /. d1_s);
      metric "mc.speedup_dmax" "ratio" (d1_s /. dm_s);
      metric "mc.closed_form_z" "ratio" z;
    ] )
