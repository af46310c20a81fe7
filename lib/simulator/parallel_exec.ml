(* Chunked domain pool for Monte-Carlo replication campaigns.

   Design constraints, in priority order:

   1. Bit-identical estimates for any domain count. The run indices are
      partitioned into fixed-size batches laid on an absolute grid; each
      batch is reduced sequentially into its own Welford accumulator and
      the batch accumulators are merged in batch-index order. Neither
      the batch boundaries nor the merge order depend on how many
      domains processed the batches, so the result of [estimate] is the
      same float-for-float with 1 domain or 8. Run [r] always draws
      from [Rng.substream_run root r] of a root rebuilt from the shared
      seed, so the sample set itself is independent of the layout.
   2. Exception safety. The batches run as the tasks of one
      Domain_team round: when a batch raises (e.g. [Sim_run.Livelock])
      the team stops handing out batches and re-raises the first
      exception after the round drains. The team stays usable and
      parked for the next campaign, and the campaign lock is released
      on every exit.
   3. Load balance. Batches are claimed from the team's atomic cursor
      (work stealing), so a domain that drew expensive runs (many
      failures) does not stall the others.

   Observability rides on the same batch grid: each batch runs under
   its own Ckpt_obs.Metrics collector, and the batch collectors are
   merged into the caller's collector in batch-index order once the
   round drains — so even float-summing metrics (sim.lost_work) are
   bit-identical for any domain count, exactly like the estimates.
   Wall-clock pool metrics (team spawn and join time, per-domain
   utilization keyed by the team's participant index) are tagged
   Timing and reported separately. *)

module Rng = Ckpt_prng.Rng
module Welford = Ckpt_stats.Welford
module Metrics = Ckpt_obs.Metrics
module Span = Ckpt_obs.Span
module Clock = Ckpt_obs.Clock

let batch_size = 256

let resolve_domains = function
  | Some d when d >= 1 -> d
  | Some _ -> invalid_arg "Parallel_exec: domains must be >= 1"
  | None -> Domain_team.default_domains ()

let m_runs = Metrics.counter "mc.runs"
let m_batches = Metrics.counter "pool.batches"
let m_rounds = Metrics.counter "mc.adaptive_rounds"
let g_ci = Metrics.gauge "mc.ci_rel_half_width"
let s_spawn = Metrics.sum ~kind:Timing "pool.spawn_s"
let s_join = Metrics.sum ~kind:Timing "pool.join_s"
let s_wall = Metrics.sum ~kind:Timing "pool.wall_s"

(* The process's one compute team. The first campaign that needs more
   than one domain creates it; a campaign that needs more domains than
   it has replaces it with a wider one; between campaigns its workers
   park, and they are joined at exit. Spawn and join are timed in the
   campaign that does them. A team spawned and joined per campaign grew
   the major heap with free words the runtime never reused: over 200
   back-to-back 2-domain Prop 1 campaigns of 2.5e5 runs (OCaml 5.1.1,
   2-core x86-64 VM) heap_words went from 119k to 1.49M while live
   words stayed under 13k; on one team it stays at 119k.

   Parked workers are not free either: every minor collection stops
   each of them. Within the core count that is cheap, but 7 parked
   workers on 2 cores made later single-domain work ~6x slower. So a
   team wider than [Domain.recommended_domain_count ()] is joined when
   its campaign ends. *)
let campaign_lock = Mutex.create ()

let shared_team : Domain_team.t option ref =
  ref None [@@lint.domain_safe "mutex-held: read and replaced only under campaign_lock"]

let () =
  at_exit (fun () ->
      (* A campaign still running (exit called from inside a sample)
         owns the team: its workers are left to the process exit. *)
      if Mutex.try_lock campaign_lock then begin
        Option.iter Domain_team.shutdown !shared_team;
        shared_team := None;
        Mutex.unlock campaign_lock
      end)

let join_shared_team team =
  let t_join = Clock.now_ns () in
  shared_team := None;
  Domain_team.shutdown team;
  Metrics.add s_join (Clock.elapsed_s t_join)

(* With [campaign_lock] held: a team of at least [domains] members. *)
let team_of_width domains =
  match !shared_team with
  | Some team when Domain_team.size team >= domains -> team
  | narrower ->
      Option.iter join_shared_team narrower;
      let t_spawn = Clock.now_ns () in
      let team = Domain_team.create ~domains () in
      Metrics.add s_spawn (Clock.elapsed_s t_spawn);
      shared_team := Some team;
      team

let sequential ~tasks fn =
  for i = 0 to tasks - 1 do
    fn ~participant:0 i
  done

(* [fn ~domains exec] runs a campaign whose rounds [exec] executes on
   [domains] participants, never more than the campaign's run count. A
   1-domain campaign runs on its caller and spawns nothing. So does a
   campaign that finds the team busy, because it was started inside a
   sample or from another domain while a campaign runs: with 1 domain
   it gives the same bits (property 1) and cannot deadlock. The
   process-wide GC rows are read here, once per campaign on the
   calling domain; the lanes sample only their own allocation. *)
let with_team ?domains ~runs fn =
  let domains = Stdlib.min (resolve_domains domains) runs in
  let gc_probe = Ckpt_obs.Gc_telemetry.probe () in
  if domains > 1 && Mutex.try_lock campaign_lock then
    Fun.protect
      ~finally:(fun () ->
        (match !shared_team with
        | Some team when Domain_team.size team > Domain.recommended_domain_count () ->
            join_shared_team team
        | _ -> ());
        Mutex.unlock campaign_lock;
        Ckpt_obs.Gc_telemetry.sample gc_probe)
      (fun () ->
        let team = team_of_width domains in
        fn ~domains (fun ~tasks job -> Domain_team.run team ~participants:domains ~tasks job))
  else
    Fun.protect
      ~finally:(fun () -> Ckpt_obs.Gc_telemetry.sample gc_probe)
      (fun () -> fn ~domains:1 sequential)

(* Per-participant state, armed on the participant's own domain at its
   first batch of the round and written only by that domain. *)
type lane = {
  root : Rng.t;
  minor_probe : Ckpt_obs.Gc_telemetry.minor_probe;
  mutable busy_s : float;
  mutable wall_s : float;  (* round start to the end of its last batch *)
  mutable batches : int;
}

(* Executes runs [base, base + runs) as one round of [exec] on
   [domains] participants and returns the round's merged accumulator. *)
let run_range ~domains ~exec ?(store = fun _ _ -> ()) ~base ~runs ~seed sample =
  let batches = (runs + batch_size - 1) / batch_size in
  let accs = Array.make batches None in
  (* One metrics collector per batch, merged in batch order below. *)
  let mcols = Array.make batches None in
  let lanes = Array.make domains None in
  let parent = Metrics.current () in
  let t_region = Clock.now_ns () in
  let lane d =
    match lanes.(d) with
    | Some l -> l
    | None ->
        (* Each domain rebuilds the root from the shared seed; substream
           derivation reads only the seed, never the generator
           position. The allocation probe counts this domain only and is
           sampled at batch boundaries, outside the batch collector
           scope: gc.* rows are Timing kind and must never enter the
           deterministically-merged Engine section. *)
        let l =
          { root = Rng.create ~seed; minor_probe = Ckpt_obs.Gc_telemetry.minor_probe ();
            busy_s = 0.0; wall_s = 0.0; batches = 0 }
        in
        lanes.(d) <- Some l;
        l
  in
  let run_batch ~participant b =
    let l = lane participant in
    let lo = base + (b * batch_size) in
    let hi = Stdlib.min (base + runs) (lo + batch_size) in
    let t_batch = Clock.now_ns () in
    let mcol = Metrics.create_collector () in
    let args =
      if Span.enabled () then
        Some
          [ ("batch", string_of_int b); ("lo", string_of_int lo); ("hi", string_of_int hi) ]
      else None
    in
    Metrics.with_collector mcol (fun () ->
        Span.with_ ~name:"pool.batch" ?args
          (fun () ->
            let acc = Welford.create () in
            for r = lo to hi - 1 do
              let x = sample r (Rng.substream_run l.root r) in
              Welford.add acc x;
              store r x
            done;
            Metrics.incr ~by:(hi - lo) m_runs;
            Metrics.incr m_batches;
            accs.(b) <- Some acc));
    mcols.(b) <- Some mcol;
    Ckpt_obs.Gc_telemetry.sample_minor l.minor_probe;
    l.busy_s <- l.busy_s +. Clock.elapsed_s t_batch;
    l.batches <- l.batches + 1;
    l.wall_s <- Clock.elapsed_s t_region
  in
  let args =
    if Span.enabled () then
      Some [ ("base", string_of_int base); ("runs", string_of_int runs) ]
    else None
  in
  Span.with_ ~name:"pool.round" ?args (fun () -> exec ~tasks:batches run_batch);
  (* Deterministic merge: batch collectors in batch-index order, into
     the collector that was current when the campaign started. *)
  Array.iter
    (function Some mcol -> Metrics.merge_into ~dst:parent mcol | None -> ())
    mcols;
  let region_s = Clock.elapsed_s t_region in
  Metrics.add s_wall region_s;
  Array.iteri
    (fun d slot ->
      let busy_s, wall_s, batches =
        match slot with
        | Some l -> (l.busy_s, l.wall_s, l.batches)
        | None -> (0.0, 0.0, 0)
      in
      let gauge suffix =
        Metrics.gauge ~kind:Timing (Printf.sprintf "pool.domain%d.%s" d suffix)
      in
      Metrics.set (gauge "batches") (float_of_int batches);
      Metrics.set (gauge "busy_s") busy_s;
      Metrics.set (gauge "queue_wait_s") (Float.max 0.0 (wall_s -. busy_s));
      Metrics.set (gauge "utilization_pct")
        (if region_s > 0.0 then 100.0 *. busy_s /. region_s else 0.0))
    lanes;
  Array.fold_left
    (fun merged slot ->
      match slot with Some acc -> Welford.merge merged acc | None -> merged)
    (Welford.create ()) accs

let check_runs runs = if runs <= 0 then invalid_arg "Parallel_exec: runs must be positive"

let estimate ?domains ~runs ~seed sample =
  check_runs runs;
  with_team ?domains ~runs (fun ~domains exec ->
      run_range ~domains ~exec ~base:0 ~runs ~seed sample)

let collect ?domains ~runs ~seed sample =
  check_runs runs;
  let samples = Array.make runs 0.0 in
  let acc =
    with_team ?domains ~runs (fun ~domains exec ->
        run_range ~domains ~exec ~base:0 ~runs ~seed sample ~store:(fun r x -> samples.(r) <- x))
  in
  (samples, acc)

let ci99_half_width acc =
  let lo, hi = Welford.confidence_interval acc ~level:0.99 in
  (hi -. lo) /. 2.0

let converged ~target_ci acc =
  Welford.count acc >= 2
  && ci99_half_width acc <= target_ci *. Float.abs (Welford.mean acc)

(* Per-round CI trajectory: a deterministic gauge (last value wins) plus
   an instant trace marker, so an adaptive campaign can be replayed from
   its artifacts. *)
let report_ci acc =
  if Welford.count acc >= 2 && not (Float.equal (Welford.mean acc) 0.0) then begin
    let rel = ci99_half_width acc /. Float.abs (Welford.mean acc) in
    Metrics.set g_ci rel;
    Span.instant "mc.ci"
      ~args:
        [ ("rel_half_width", Printf.sprintf "%.6g" rel);
          ("n", string_of_int (Welford.count acc)) ]
  end

let estimate_adaptive ?domains ~runs ~max_runs ~target_ci ~seed sample =
  check_runs runs;
  if max_runs < runs then invalid_arg "Parallel_exec: max_runs must be >= runs";
  if not (target_ci > 0.0) then invalid_arg "Parallel_exec: target_ci must be positive";
  with_team ?domains ~runs:max_runs @@ fun ~domains exec ->
  Metrics.incr m_rounds;
  let acc = ref (run_range ~domains ~exec ~base:0 ~runs ~seed sample) in
  report_ci !acc;
  while (not (converged ~target_ci !acc)) && Welford.count !acc < max_runs do
    (* Double the campaign each round: the CI half-width shrinks as
       1/sqrt(n), so geometric growth overshoots the target by at most
       sqrt(2) while keeping the number of rounds logarithmic. The
       round boundaries depend only on the (deterministic) estimates,
       never on the domain count, preserving property 1. *)
    let total = Welford.count !acc in
    let extra = Stdlib.min total (max_runs - total) in
    Metrics.incr m_rounds;
    let round = run_range ~domains ~exec ~base:total ~runs:extra ~seed sample in
    acc := Welford.merge !acc round;
    report_ci !acc
  done;
  !acc
