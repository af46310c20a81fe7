(* Tests for chain instances, schedules and the Proposition 3 dynamic
   program. *)

module Task = Ckpt_dag.Task
module Generate = Ckpt_dag.Generate
module Rng = Ckpt_prng.Rng
module Expected_time = Ckpt_core.Expected_time
module Chain_problem = Ckpt_core.Chain_problem
module Schedule = Ckpt_core.Schedule
module Chain_dp = Ckpt_core.Chain_dp
module Brute_force = Ckpt_core.Brute_force

let close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| < %g" name expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1.0 (Float.abs expected))

let sample_problem () =
  Chain_problem.uniform ~downtime:0.2 ~lambda:0.05 ~checkpoint:1.0 ~recovery:1.5
    [ 3.0; 5.0; 2.0; 4.0 ]

let random_problem seed n =
  let rng = Rng.create ~seed in
  let spec = Generate.uniform_costs () in
  let dag = Generate.chain rng spec ~n in
  Chain_problem.of_dag ~downtime:0.3 ~initial_recovery:0.5
    ~lambda:(Rng.float_range rng 0.005 0.2) dag

let test_problem_construction () =
  let p = sample_problem () in
  Alcotest.(check int) "size" 4 (Chain_problem.size p);
  close "total work" 14.0 (Chain_problem.total_work p);
  close "segment work 1..2" 7.0 (Chain_problem.segment_work p ~first:1 ~last:2);
  close "initial recovery defaults to R" 1.5 (Chain_problem.recovery_before p 0);
  close "recovery before task 2" 1.5 (Chain_problem.recovery_before p 2);
  Alcotest.check_raises "empty chain rejected" (Invalid_argument "Chain_problem: empty chain")
    (fun () -> ignore (Chain_problem.make ~lambda:0.1 []))

let test_of_dag_requires_chain () =
  let rng = Rng.create ~seed:3L in
  let spec = Generate.uniform_costs () in
  let dag = Generate.diamond rng spec ~width:2 in
  Alcotest.check_raises "diamond rejected"
    (Invalid_argument "Chain_problem.of_dag: DAG is not a linear chain") (fun () ->
      ignore (Chain_problem.of_dag ~lambda:0.1 dag))

let test_segment_expected_matches_formula () =
  let p = sample_problem () in
  let direct =
    Expected_time.expected_v ~work:10.0 ~checkpoint:1.0 ~downtime:0.2 ~recovery:1.5
      ~lambda:0.05
  in
  close "segment 0..2" direct (Chain_problem.segment_expected p ~first:0 ~last:2)

let test_with_lambda () =
  let p = sample_problem () in
  let p2 = Chain_problem.with_lambda p 0.1 in
  Alcotest.(check bool) "lambda updated" true (Float.equal p2.Chain_problem.lambda 0.1);
  close "structure preserved" (Chain_problem.total_work p) (Chain_problem.total_work p2)

let test_schedule_constructors () =
  let p = sample_problem () in
  let all = Schedule.checkpoint_all p in
  Alcotest.(check int) "all has n checkpoints" 4 (Schedule.checkpoint_count all);
  let none = Schedule.checkpoint_none p in
  Alcotest.(check int) "none has only the final" 1 (Schedule.checkpoint_count none);
  Alcotest.(check (list int)) "final index" [ 3 ] (Schedule.checkpoint_indices none);
  let every2 = Schedule.every_k p 2 in
  Alcotest.(check (list int)) "every 2" [ 1; 3 ] (Schedule.checkpoint_indices every2);
  let byidx = Schedule.of_indices p [ 0 ] in
  Alcotest.(check (list int)) "indices + forced final" [ 0; 3 ]
    (Schedule.checkpoint_indices byidx);
  Alcotest.check_raises "final checkpoint enforced"
    (Invalid_argument "Schedule.make: the final task must be checkpointed") (fun () ->
      ignore (Schedule.make p [| true; false; false; false |]))

let test_schedule_segments_partition () =
  let p = sample_problem () in
  let s = Schedule.of_indices p [ 1 ] in
  Alcotest.(check (list (pair int int))) "segments" [ (0, 1); (2, 3) ] (Schedule.segments s)

let test_by_work_threshold () =
  let p = sample_problem () in
  (* works 3 5 2 4; threshold 6: cumulative 3, 8 -> ckpt at 1; then 2, 6 -> ckpt at 3. *)
  let s = Schedule.by_work_threshold p ~threshold:6.0 in
  Alcotest.(check (list int)) "threshold placement" [ 1; 3 ] (Schedule.checkpoint_indices s)

let test_expected_makespan_is_sum () =
  let p = sample_problem () in
  let s = Schedule.of_indices p [ 1 ] in
  let manual =
    Chain_problem.segment_expected p ~first:0 ~last:1
    +. Chain_problem.segment_expected p ~first:2 ~last:3
  in
  close "makespan = sum of segment expectations" manual (Schedule.expected_makespan s)

let test_to_sim_segments () =
  let p = sample_problem () in
  let s = Schedule.of_indices p [ 1 ] in
  match Schedule.to_sim_segments s with
  | [ seg1; seg2 ] ->
      close "seg1 work" 8.0 seg1.Ckpt_sim.Sim_run.work;
      close "seg1 ckpt" 1.0 seg1.Ckpt_sim.Sim_run.checkpoint;
      close "seg1 recovery = R0" 1.5 seg1.Ckpt_sim.Sim_run.recovery;
      close "seg2 work" 6.0 seg2.Ckpt_sim.Sim_run.work
  | other -> Alcotest.fail (Printf.sprintf "expected 2 segments, got %d" (List.length other))

let test_to_string () =
  let p = sample_problem () in
  let s = Schedule.of_indices p [ 1 ] in
  Alcotest.(check string) "rendering" "[T1 T2 | T3 T4 |]" (Schedule.to_string s)

let test_dp_single_task () =
  let p = Chain_problem.uniform ~lambda:0.1 ~checkpoint:1.0 ~recovery:1.0 [ 5.0 ] in
  let solution = Chain_dp.solve p in
  close "single-task DP = Prop 1 segment"
    (Chain_problem.segment_expected p ~first:0 ~last:0)
    solution.Chain_dp.expected_makespan

let test_dp_matches_brute_force_fixed () =
  let p = sample_problem () in
  let dp = Chain_dp.solve p in
  let bf = Brute_force.chain_best p in
  close "DP equals brute force" bf.Chain_dp.expected_makespan dp.Chain_dp.expected_makespan;
  close "schedules agree on cost"
    (Schedule.expected_makespan bf.Chain_dp.schedule)
    (Schedule.expected_makespan dp.Chain_dp.schedule)

let test_memoized_matches_iterative () =
  for seed = 1 to 10 do
    let p = random_problem (Int64.of_int seed) (5 + (seed mod 20)) in
    let a = Chain_dp.solve p and b = Chain_dp.solve_memoized p in
    close
      (Printf.sprintf "seed %d: memoized = iterative" seed)
      a.Chain_dp.expected_makespan b.Chain_dp.expected_makespan;
    Alcotest.(check bool) "same placement" true
      (Schedule.equal a.Chain_dp.schedule b.Chain_dp.schedule)
  done

let test_memoized_extreme_rates () =
  (* Tiny λ·W (every transition below the kernel's small-argument
     cutoff) and large λ·W (product-form tables everywhere): the paper
     oracle, on the reference exp/expm1 evaluation, agrees with the
     kernel-backed sweep at both ends. *)
  let check name p =
    let dp = Chain_dp.solve p in
    let memo = Chain_dp.solve_memoized p in
    close (name ^ ": memoized = solve") dp.Chain_dp.expected_makespan
      memo.Chain_dp.expected_makespan
  in
  let works = List.init 16 (fun i -> 1.0 +. float_of_int (i mod 5)) in
  check "tiny lambda"
    (Chain_problem.uniform ~downtime:0.1 ~lambda:1e-8 ~checkpoint:0.3 ~recovery:0.4 works);
  check "large lambda"
    (Chain_problem.uniform ~downtime:0.1 ~lambda:3.0 ~checkpoint:0.3 ~recovery:0.4 works)

(* --- SMAWK solver --------------------------------------------------- *)

let bit_identical name (a : Chain_dp.solution) (b : Chain_dp.solution) =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected makespan bit-for-bit (%.17g vs %.17g)" name
       a.Chain_dp.expected_makespan b.Chain_dp.expected_makespan)
    true
    (Float.equal a.Chain_dp.expected_makespan b.Chain_dp.expected_makespan);
  Alcotest.(check bool) (name ^ ": same placement") true
    (Schedule.equal a.Chain_dp.schedule b.Chain_dp.schedule)

let test_smawk_matches_solve () =
  (* Bit-for-bit agreement — makespan AND schedule — on every fixture
     family: the sample problem, random chains, and both extreme-rate
     kernel modes. *)
  bit_identical "sample" (Chain_dp.solve (sample_problem ()))
    (Chain_dp.solve_smawk (sample_problem ()));
  for seed = 1 to 12 do
    let p = random_problem (Int64.of_int (seed + 9_100)) (1 + (13 * seed)) in
    bit_identical
      (Printf.sprintf "seed %d" seed)
      (Chain_dp.solve p) (Chain_dp.solve_smawk p)
  done;
  let works = List.init 16 (fun i -> 1.0 +. float_of_int (i mod 5)) in
  List.iter
    (fun (name, lambda) ->
      let p =
        Chain_problem.uniform ~downtime:0.1 ~lambda ~checkpoint:0.3 ~recovery:0.4 works
      in
      bit_identical name (Chain_dp.solve p) (Chain_dp.solve_smawk p))
    [ ("tiny lambda", 1e-8); ("large lambda", 3.0) ]

let test_smawk_ties_and_blocks () =
  (* Uniform chains maximise exact float ties between candidate
     splits; the leftmost-on-ties fold must still reproduce solve's
     scan. Sizes straddle the 256-state block edges and span several
     blocks, so partial first blocks and multi-block windows are both
     covered. *)
  List.iter
    (fun n ->
      let p =
        Chain_problem.uniform ~downtime:0.2 ~lambda:(10.0 /. float_of_int n)
          ~checkpoint:0.1 ~recovery:0.2
          (List.init n (fun _ -> 1.0))
      in
      bit_identical (Printf.sprintf "uniform n=%d" n) (Chain_dp.solve p)
        (Chain_dp.solve_smawk p))
    [ 1; 2; 3; 17; 100; 255; 256; 257; 513; 1025 ];
  List.iter
    (fun n ->
      (* λ scaled to the chain length keeps λ·W inside the kernel's
         table range, so the certificate can hold at every size. *)
      let rng = Rng.create ~seed:(Int64.of_int (4_242 + n)) in
      let dag = Generate.chain rng (Generate.uniform_costs ()) ~n in
      let p =
        Chain_problem.of_dag ~downtime:0.3 ~initial_recovery:0.5
          ~lambda:(Rng.float_range rng 1.0 20.0 /. float_of_int n)
          dag
      in
      Alcotest.(check bool) (Printf.sprintf "random n=%d: SMAWK path, not the fallback" n)
        true
        (Ckpt_core.Segment_cost.supports_monotone_dc (Chain_problem.kernel p));
      bit_identical (Printf.sprintf "random n=%d" n) (Chain_dp.solve p)
        (Chain_dp.solve_smawk p))
    [ 255; 256; 257; 513; 1025; 2000 ]

let test_smawk_fallback_on_nonmonotone () =
  (* A recovery-cost spike bigger than the adjacent task weight breaks
     the inverse-Monge certificate: solve_smawk must detect it, count
     one dp.smawk_fallbacks tick, and return exactly solve's answer. *)
  let tasks =
    List.mapi
      (fun i w ->
        Task.make ~id:i
          ~name:(Printf.sprintf "T%d" (i + 1))
          ~work:w ~checkpoint_cost:0.5
          ~recovery_cost:(if i = 3 then 50.0 else 0.5)
          ())
      [ 2.0; 3.0; 2.0; 4.0; 2.0; 3.0; 2.0; 5.0 ]
  in
  let p = Chain_problem.make ~downtime:0.2 ~lambda:0.2 tasks in
  Alcotest.(check bool) "precheck rejects the spike" false
    (Ckpt_core.Segment_cost.supports_monotone_dc (Chain_problem.kernel p));
  Ckpt_obs.Metrics.reset ();
  let dp = Chain_dp.solve p in
  bit_identical "fallback" dp (Chain_dp.solve_smawk p);
  let snapshot = Ckpt_obs.Metrics.snapshot () in
  let counter name =
    match Ckpt_obs.Metrics.find snapshot name with
    | Some (_, Ckpt_obs.Metrics.Counter n) -> n
    | Some _ -> Alcotest.fail (name ^ " is not a counter")
    | None -> Alcotest.fail (name ^ " not recorded")
  in
  Alcotest.(check int) "one smawk fallback counted" 1 (counter "dp.smawk_fallbacks")

(* [random_problem] with, when [spike], a recovery spike wider than
   any task weight at n / 2, which knocks out the Monge certificate. *)
let maybe_spiked_problem ~seed ~n ~spike =
  let p0 = random_problem (Int64.of_int seed) n in
  if not spike then p0
  else begin
    let tasks =
      List.mapi
        (fun i (t : Task.t) ->
          if i = n / 2 then
            Task.with_costs t ~checkpoint_cost:t.Task.checkpoint_cost
              ~recovery_cost:(t.Task.recovery_cost +. 1_000.0)
          else t)
        (Array.to_list p0.Chain_problem.tasks)
    in
    Chain_problem.make ~downtime:0.3 ~initial_recovery:0.5 ~lambda:p0.Chain_problem.lambda
      tasks
  end

let qcheck_smawk_agreement =
  (* Agreement property: solve_smawk ≡ solve bit for bit, makespan and
     schedule, on random Monge instances and on adversarial non-Monge
     ones (random recovery spikes force the counted fallback path). *)
  QCheck.Test.make ~name:"smawk = iterative DP (Monge and non-Monge)" ~count:120
    QCheck.(triple (int_range 1 80) (int_range 0 10_000) bool)
    (fun (n, seed, spike) ->
      let p = maybe_spiked_problem ~seed:(seed + 314_000) ~n ~spike in
      let dp = Chain_dp.solve p in
      let smawk = Chain_dp.solve_smawk p in
      Float.equal smawk.Chain_dp.expected_makespan dp.Chain_dp.expected_makespan
      && Schedule.equal smawk.Chain_dp.schedule dp.Chain_dp.schedule)

let qcheck_transition_is_segment_cost =
  (* The DP inner loops evaluate the segment cost in Chain_dp's own
     compilation unit. Pin that copy to Segment_cost.cost: every value
     of the table is the leftmost strict-< minimum of the recurrence
     evaluated through the public kernel entry point, bit for bit. *)
  QCheck.Test.make ~name:"DP transitions = Segment_cost.cost (Monge and non-Monge)"
    ~count:120
    QCheck.(triple (int_range 1 60) (int_range 0 10_000) bool)
    (fun (n, seed, spike) ->
      let p = maybe_spiked_problem ~seed:(seed + 271_000) ~n ~spike in
      let kernel = Chain_problem.kernel p in
      let values = Chain_dp.dp_values p in
      let ok = ref true in
      for x = 0 to n - 1 do
        let best = ref infinity in
        for j = x to n - 1 do
          let cur = Ckpt_core.Segment_cost.cost kernel ~first:x ~last:j +. values.(j + 1) in
          if cur < !best then best := cur
        done;
        if not (Float.equal values.(x) !best) then ok := false
      done;
      !ok)

(* --- Allocation contracts ------------------------------------------ *)

(* The solvers' heap traffic is their tables, the schedule and O(1)
   bookkeeping; nothing per transition. Large tables and arrays go
   straight to the major heap, so the minor words of one solve stay
   under a constant whatever n. *)
let minor_word_bound = 4_096.0

let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* λ scaled to the chain length keeps λ·W in the kernel's table range,
   so the certificate holds and solve_smawk takes the SMAWK path. *)
let scaled_problem ~seed n =
  let rng = Rng.create ~seed in
  let dag = Generate.chain rng (Generate.uniform_costs ()) ~n in
  Chain_problem.of_dag ~downtime:0.3 ~initial_recovery:0.5
    ~lambda:(Rng.float_range rng 1.0 20.0 /. float_of_int n)
    dag

let check_allocation name f =
  (* One warm-up call first: metric registration grows its tables
     lazily, once per process. *)
  ignore (Sys.opaque_identity (f ()));
  let words = minor_words f in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f minor words, bound %.0f" name words minor_word_bound)
    true (words < minor_word_bound)

let test_smawk_allocation () =
  List.iter
    (fun n ->
      let p = scaled_problem ~seed:(Int64.of_int (8_800 + n)) n in
      Alcotest.(check bool) (Printf.sprintf "n=%d: SMAWK path" n) true
        (Ckpt_core.Segment_cost.supports_monotone_dc (Chain_problem.kernel p));
      check_allocation
        (Printf.sprintf "solve_smawk n=%d" n)
        (fun () -> Chain_dp.solve_smawk p))
    [ 10_000; 100_000 ]

let test_sweep_and_budget_allocation () =
  let p = scaled_problem ~seed:8_801L 2_000 in
  check_allocation "solve n=2000" (fun () -> Chain_dp.solve p);
  let p = scaled_problem ~seed:8_802L 400 in
  check_allocation "solve_with_budget n=400 k=8" (fun () ->
      Chain_dp.solve_with_budget p ~checkpoints:8)

(* A simulated run of an optimal plan pays a few boxed times per
   segment (failure queries, the commit time) and nothing per task or
   per event: substream, stream and run together stay under 16 minor
   words per segment. *)
let test_chain_run_allocation () =
  let p = scaled_problem ~seed:8_803L 1_000 in
  let segments = Schedule.to_sim_segments (Chain_dp.solve_smawk p).Chain_dp.schedule in
  let root = Rng.create ~seed:8_804L in
  let run r =
    let stream =
      Ckpt_failures.Failure_stream.poisson ~rate:p.Chain_problem.lambda
        (Rng.substream_run root r)
    in
    Ckpt_sim.Sim_run.run_segments ~downtime:p.Chain_problem.downtime
      ~next_failure:(Ckpt_failures.Failure_stream.next_after stream)
      segments
  in
  ignore (Sys.opaque_identity (run 0));
  let runs = 200 in
  let words =
    minor_words (fun () ->
        for r = 1 to runs do
          ignore (Sys.opaque_identity (run r))
        done)
  in
  let per_segment = words /. float_of_int (runs * List.length segments) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per segment (%d segments), bound 16" per_segment
       (List.length segments))
    true (per_segment <= 16.0)

let test_dp_extreme_rates () =
  (* Large lambda: checkpoint after every task is optimal.
     Tiny lambda with costly checkpoints: a single final checkpoint wins. *)
  let works = [ 5.0; 5.0; 5.0; 5.0; 5.0 ] in
  let risky = Chain_problem.uniform ~lambda:2.0 ~checkpoint:0.01 ~recovery:0.01 works in
  let solution = Chain_dp.solve risky in
  Alcotest.(check int) "high lambda: checkpoint everywhere" 5
    (Schedule.checkpoint_count solution.Chain_dp.schedule);
  let safe = Chain_problem.uniform ~lambda:1e-7 ~checkpoint:2.0 ~recovery:2.0 works in
  let solution = Chain_dp.solve safe in
  Alcotest.(check int) "tiny lambda: only the final checkpoint" 1
    (Schedule.checkpoint_count solution.Chain_dp.schedule)

let test_dp_values_structure () =
  let p = sample_problem () in
  let values = Chain_dp.dp_values p in
  Alcotest.(check int) "table length n+1" 5 (Array.length values);
  close "terminal value" 0.0 values.(4);
  let solution = Chain_dp.solve p in
  close "values.(0) is the optimum" solution.Chain_dp.expected_makespan values.(0);
  (* Suffix optima decrease as the suffix shrinks. *)
  for x = 0 to 3 do
    Alcotest.(check bool) "monotone suffix values" true (values.(x) > values.(x + 1))
  done

let test_budget_dp () =
  let p = random_problem 99L 10 in
  let unconstrained = Chain_dp.solve p in
  let k_opt = Schedule.checkpoint_count unconstrained.Chain_dp.schedule in
  (* At the unconstrained optimum's own k, the budget DP matches it. *)
  let at_k = Chain_dp.solve_with_budget p ~checkpoints:k_opt in
  close "budget DP at k* equals the optimum" unconstrained.Chain_dp.expected_makespan
    at_k.Chain_dp.expected_makespan;
  (* Every budget solution uses exactly its budget. *)
  for k = 1 to 10 do
    let solution = Chain_dp.solve_with_budget p ~checkpoints:k in
    Alcotest.(check int)
      (Printf.sprintf "uses exactly %d checkpoints" k)
      k
      (Schedule.checkpoint_count solution.Chain_dp.schedule);
    Alcotest.(check bool) "never beats the unconstrained optimum" true
      (solution.Chain_dp.expected_makespan
       >= unconstrained.Chain_dp.expected_makespan -. 1e-9)
  done;
  Alcotest.check_raises "budget bounds checked"
    (Invalid_argument "Chain_dp.solve_with_budget: need 1 <= checkpoints <= n") (fun () ->
      ignore (Chain_dp.solve_with_budget p ~checkpoints:11))

let test_budget_curve () =
  let p = random_problem 123L 8 in
  let curve = Chain_dp.budget_curve p in
  Alcotest.(check int) "one entry per k" 8 (List.length curve);
  let unconstrained = (Chain_dp.solve p).Chain_dp.expected_makespan in
  let minimum = List.fold_left (fun acc (_, v) -> Float.min acc v) infinity curve in
  close "curve minimum is the unconstrained optimum" unconstrained minimum;
  (* Each curve point matches the dedicated solver. *)
  List.iter
    (fun (k, v) ->
      close
        (Printf.sprintf "curve at k=%d" k)
        (Chain_dp.solve_with_budget p ~checkpoints:k).Chain_dp.expected_makespan v)
    curve

let qcheck_budget_matches_filtered_brute_force =
  QCheck.Test.make ~name:"budget DP equals brute force restricted to k checkpoints"
    ~count:30
    QCheck.(pair (int_range 2 8) (int_range 0 1000))
    (fun (n, seed) ->
      let p = random_problem (Int64.of_int (seed + 60_000)) n in
      let all = Brute_force.chain_all p in
      List.for_all
        (fun k ->
          let best_k =
            List.fold_left
              (fun acc (schedule, cost) ->
                if Schedule.checkpoint_count schedule = k then Float.min acc cost else acc)
              infinity all
          in
          let dp_k = (Chain_dp.solve_with_budget p ~checkpoints:k).Chain_dp.expected_makespan in
          Float.abs (dp_k -. best_k) <= 1e-9 *. best_k)
        (List.init n (fun i -> i + 1)))

let qcheck_dp_optimal =
  QCheck.Test.make ~name:"DP equals exhaustive optimum on random chains" ~count:60
    QCheck.(pair (int_range 1 10) (int_range 0 10_000))
    (fun (n, seed) ->
      let p = random_problem (Int64.of_int (seed + 424_242)) n in
      let dp = Chain_dp.solve p in
      let bf = Brute_force.chain_best p in
      Float.abs (dp.Chain_dp.expected_makespan -. bf.Chain_dp.expected_makespan)
      <= 1e-9 *. bf.Chain_dp.expected_makespan)

let qcheck_dp_below_heuristics =
  QCheck.Test.make ~name:"DP never worse than standard placements" ~count:100
    QCheck.(pair (int_range 1 40) (int_range 0 10_000))
    (fun (n, seed) ->
      let p = random_problem (Int64.of_int (seed + 777)) n in
      let dp = (Chain_dp.solve p).Chain_dp.expected_makespan in
      let heuristics =
        [ Schedule.checkpoint_all p; Schedule.checkpoint_none p; Schedule.every_k p 3;
          Schedule.young p; Schedule.daly p ]
      in
      List.for_all
        (fun s -> dp <= Schedule.expected_makespan s +. 1e-9)
        heuristics)

let qcheck_schedule_segments_cover =
  QCheck.Test.make ~name:"segments partition the chain" ~count:200
    QCheck.(pair (int_range 1 20) (int_range 0 1_000_000))
    (fun (n, mask) ->
      let p =
        Chain_problem.uniform ~lambda:0.05 ~checkpoint:0.5 ~recovery:0.5
          (List.init n (fun i -> 1.0 +. float_of_int i))
      in
      let placement = Array.init n (fun i -> i = n - 1 || (mask lsr i) land 1 = 1) in
      let s = Schedule.make p placement in
      let segments = Schedule.segments s in
      let covered = List.concat_map (fun (a, b) -> List.init (b - a + 1) (fun k -> a + k)) segments in
      covered = List.init n Fun.id)

let suite =
  [
    Alcotest.test_case "problem construction" `Quick test_problem_construction;
    Alcotest.test_case "of_dag requires a chain" `Quick test_of_dag_requires_chain;
    Alcotest.test_case "segment expectation = Prop 1" `Quick
      test_segment_expected_matches_formula;
    Alcotest.test_case "with_lambda" `Quick test_with_lambda;
    Alcotest.test_case "schedule constructors" `Quick test_schedule_constructors;
    Alcotest.test_case "schedule segments" `Quick test_schedule_segments_partition;
    Alcotest.test_case "work-threshold placement" `Quick test_by_work_threshold;
    Alcotest.test_case "makespan is the segment sum" `Quick test_expected_makespan_is_sum;
    Alcotest.test_case "conversion to simulator segments" `Quick test_to_sim_segments;
    Alcotest.test_case "schedule rendering" `Quick test_to_string;
    Alcotest.test_case "DP on a single task" `Quick test_dp_single_task;
    Alcotest.test_case "DP = brute force (fixed)" `Quick test_dp_matches_brute_force_fixed;
    Alcotest.test_case "memoized = iterative" `Quick test_memoized_matches_iterative;
    Alcotest.test_case "memoized at extreme rates" `Quick test_memoized_extreme_rates;
    Alcotest.test_case "SMAWK = iterative DP" `Quick test_smawk_matches_solve;
    Alcotest.test_case "SMAWK ties and block sizes" `Quick test_smawk_ties_and_blocks;
    Alcotest.test_case "SMAWK fallback" `Quick test_smawk_fallback_on_nonmonotone;
    Alcotest.test_case "SMAWK allocates O(1) minor words" `Quick test_smawk_allocation;
    Alcotest.test_case "sweep and budget DP allocate O(1) minor words" `Quick
      test_sweep_and_budget_allocation;
    Alcotest.test_case "simulated chain run allocates O(1) words per segment" `Quick
      test_chain_run_allocation;
    Alcotest.test_case "DP at extreme failure rates" `Quick test_dp_extreme_rates;
    Alcotest.test_case "DP value table" `Quick test_dp_values_structure;
    Alcotest.test_case "budget-constrained DP" `Quick test_budget_dp;
    Alcotest.test_case "budget curve" `Quick test_budget_curve;
    QCheck_alcotest.to_alcotest qcheck_budget_matches_filtered_brute_force;
    QCheck_alcotest.to_alcotest qcheck_dp_optimal;
    QCheck_alcotest.to_alcotest qcheck_smawk_agreement;
    QCheck_alcotest.to_alcotest qcheck_transition_is_segment_cost;
    QCheck_alcotest.to_alcotest qcheck_dp_below_heuristics;
    QCheck_alcotest.to_alcotest qcheck_schedule_segments_cover;
  ]
