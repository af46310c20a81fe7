(* chain-1e6: the offline plan of a generated million-task chain,
   Chain_problem.of_dag + Chain_dp.solve_smawk, checked against
   Schedule.expected_makespan; and its traced per-layer split. *)

open Common
module Rng = Ckpt_prng.Rng
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Segment_cost = Ckpt_core.Segment_cost

let tasks = 1_000_000

(* The range the bench suite's chain-dp-smawk-linearity gate allows. *)
let max_transitions_per_task = 60.0

let plan ~dag ~lambda ~downtime =
  let problem = Chain_problem.of_dag ~downtime ~lambda dag in
  (problem, Chain_dp.solve_smawk problem)

(* Output checks of one plan: the returned makespan is the expectation
   of the returned schedule (within the kernel's 1e-9), no fallback to
   the exhaustive sweep, and a linear transition count. *)
let check o ~problem ~(solution : Chain_dp.solution) ~fallbacks ~transitions =
  let n = Chain_problem.size problem in
  let exact = Schedule.expected_makespan solution.Chain_dp.schedule in
  let m = solution.Chain_dp.expected_makespan in
  if not (Float.abs (m -. exact) <= 1e-9 *. Float.abs exact) then
    wrong o "makespan %.17g but the schedule's expectation is %.17g" m exact;
  if fallbacks <> 0 then wrong o "solve_smawk fell back %d time(s)" fallbacks;
  let per_task = float_of_int transitions /. float_of_int n in
  if not (per_task > 0.0 && per_task <= max_transitions_per_task) then
    wrong o "%.1f transitions per task, outside (0, %.0f]" per_task max_transitions_per_task;
  per_task

let counters () = (counter_value "dp.smawk_transitions", counter_value "dp.smawk_fallbacks")

(* [f ()] and the dp.smawk_transitions / dp.smawk_fallbacks deltas over
   it. The snapshots are taken outside [f], so outside any timing in it. *)
let counted f =
  let t0, f0 = counters () in
  let r = f () in
  let t1, f1 = counters () in
  (r, t1 - t0, f1 - f0)

let end_to_end ~seconds ~seed =
  let o = outcome () in
  let dag, lambda, downtime = Gen.planning_problem (Rng.create ~seed) ~n:tasks in
  (* Each plan: timed, then checked. *)
  let timed_plan () =
    let ((problem, solution), ms), transitions, fallbacks =
      counted (fun () ->
          let t0 = now_ns () in
          let r = plan ~dag ~lambda ~downtime in
          (r, since_ms t0))
    in
    o.attempted <- o.attempted + 1;
    ignore (check o ~problem ~solution ~fallbacks ~transitions);
    ms
  in
  (* Set-up is the cold first plan (heap growth, first touch of the
     tables); every later plan is measured. *)
  let setup = [ timed_plan () /. 1e3 ] in
  let times =
    repeat_for ~seconds (fun () ->
        (* Every plan starts from a collected heap, as a process's first
           plan would; otherwise each plan pays a varying share of the
           previous one's major-GC work. *)
        Gc.full_major ();
        timed_plan ())
  in
  (o, op_metrics ~setup ~times ~work:(float_of_int tasks))

(* Per-layer split of a plan, three repetitions, medians. [n] is 10^6
   on chain-1e6 and a 10^5 probe elsewhere. *)
let layers ~n ~seed =
  let o = outcome () in
  let dag, lambda, downtime = Gen.planning_problem (Rng.create ~seed) ~n in
  let of_dag = probe () and cert = probe () and solve = probe () and expect = probe () in
  let per_task = ref [] and ns_per_transition = ref [] and fallbacks_total = ref 0 in
  for rep = 0 to 2 do
    let args = [ ("workload", "chain"); ("n", string_of_int n); ("rep", string_of_int rep) ] in
    let problem =
      layer of_dag ~name:"chain_problem.of_dag" ~args (fun () ->
          Chain_problem.of_dag ~downtime ~lambda dag)
    in
    ignore
      (layer cert ~name:"segment_cost.certificate" ~args (fun () ->
           Segment_cost.supports_monotone_dc (Chain_problem.kernel problem)));
    let solution, transitions, fallbacks =
      counted (fun () ->
          layer solve ~name:"chain_dp.solve_smawk" ~args (fun () -> Chain_dp.solve_smawk problem))
    in
    ignore
      (layer expect ~name:"schedule.expected_makespan" ~args (fun () ->
           Schedule.expected_makespan solution.Chain_dp.schedule));
    o.attempted <- o.attempted + 1;
    per_task := check o ~problem ~solution ~fallbacks ~transitions :: !per_task;
    fallbacks_total := !fallbacks_total + fallbacks;
    ns_per_transition := (List.hd solve.ns /. float_of_int transitions) :: !ns_per_transition
  done;
  ( o,
    [
      metric ~samples:3 "chain_problem.of_dag_s" "s" (median of_dag.ns /. 1e9);
      metric ~samples:3 "segment_cost.certificate_ms" "ms" (median cert.ns /. 1e6);
      metric ~samples:3 "chain_dp.solve_s" "s" (median solve.ns /. 1e9);
      metric ~samples:3 "chain_dp.ns_per_transition" "ns" (median !ns_per_transition);
      metric ~samples:3 "chain_dp.transitions_per_task" "count" (median !per_task);
      metric ~samples:3 "chain_dp.words_per_task" "words" (median solve.words /. float_of_int n);
      metric "chain_dp.smawk_fallbacks" "count" (float_of_int !fallbacks_total);
      metric ~samples:3 "schedule.expected_makespan_ms" "ms" (median expect.ns /. 1e6);
    ] )
