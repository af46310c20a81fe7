(* Input generation. Everything here runs before any timed phase: the
   program under test only ever receives the generated chains, request
   payloads and encoded frames. *)

module Rng = Ckpt_prng.Rng
module Task = Ckpt_dag.Task
module Generate = Ckpt_dag.Generate
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Json = Ckpt_json.Json

(* Stratified log-uniform sizes in [lo, hi]: one draw per stratum, then
   shuffled. Stratifying keeps the size mix (hence every latency
   quantile) nearly identical across seeds, while the seed still picks
   the chains and their order. *)
let log_uniform_sizes rng ~count ~lo ~hi =
  let span = float_of_int hi /. float_of_int lo in
  let sizes =
    Array.init count (fun i ->
        let u = (float_of_int i +. Rng.float rng) /. float_of_int count in
        int_of_float (Float.round (float_of_int lo *. (span ** u))))
  in
  Rng.shuffle_in_place rng sizes;
  sizes

(* Task costs of the library's default generator (work in [1, 10],
   C and R in [0.1, 1]): every cost step is below a task weight, so the
   monotonicity certificate holds and solve_smawk never falls back. *)
let spec = Generate.uniform_costs ()

type chain = {
  tasks : Task.t list;
  lambda : float;
  downtime : float;
}

(* A served chain: λ set so that optimal segments hold about [k] tasks
   (Young's period sqrt(2C/λ) ≈ k mean task weights), k in [4, 10]. *)
let served_chain rng ~n =
  let tasks = Generate.task_list rng spec ~n in
  let k = Rng.float_range rng 4.0 10.0 in
  let mean_work = 5.5 and mean_checkpoint = 0.55 in
  let lambda = 2.0 *. mean_checkpoint /. ((k *. mean_work) ** 2.0) in
  let downtime = Rng.float_range rng 0.0 1.0 in
  { tasks; lambda; downtime }

(* The same chain with every time quantity multiplied by [s] and λ
   divided by it: the plan cache's scale-invariant key maps it to the
   same entry. *)
let rescale chain s =
  {
    tasks =
      List.map
        (fun (t : Task.t) ->
          Task.make ~id:t.Task.id ~work:(t.Task.work *. s)
            ~checkpoint_cost:(t.Task.checkpoint_cost *. s)
            ~recovery_cost:(t.Task.recovery_cost *. s) ())
        chain.tasks;
    lambda = chain.lambda /. s;
    downtime = chain.downtime *. s;
  }

let problem chain =
  Chain_problem.make ~downtime:chain.downtime ~lambda:chain.lambda chain.tasks

let params_json chain =
  Json.Obj
    [
      ("lambda", Json.Number chain.lambda);
      ("downtime", Json.Number chain.downtime);
      ( "tasks",
        Json.List
          (List.map
             (fun (t : Task.t) ->
               Json.Obj
                 [
                   ("work", Json.Number t.Task.work);
                   ("checkpoint", Json.Number t.Task.checkpoint_cost);
                   ("recovery", Json.Number t.Task.recovery_cost);
                 ])
             chain.tasks) );
    ]

(* The offline answer a served plan is checked against. Bit-for-bit
   Chain_dp.solve where the O(n^2) sweep is affordable, solve_smawk
   (pinned bit-identical to solve by the test suite) above that. *)
type answer = { makespan : float; checkpoints : int list }

let exact_solve_limit = 400

let offline chain =
  let p = problem chain in
  let s =
    if Chain_problem.size p <= exact_solve_limit then Chain_dp.solve p
    else Chain_dp.solve_smawk p
  in
  {
    makespan = s.Chain_dp.expected_makespan;
    checkpoints = Schedule.checkpoint_indices s.Chain_dp.schedule;
  }

(* A request whose JSON is encoded once, up front, except for its id:
   sending it writes a small id header and then the shared tail, so the
   load generator never runs the JSON encoder inside a timed phase. *)
type request = {
  tail : string;  (** The request JSON after its id field. *)
  answer : answer;
}

let timeout_ms = 1000

let request chain =
  {
    tail =
      Printf.sprintf "\"method\":\"plan_chain\",\"timeout_ms\":%d,\"params\":%s}" timeout_ms
        (Json.to_string (params_json chain));
    answer = offline chain;
  }

(* The frame header up to and including the id field; the frame is
   this header followed by [req.tail]. *)
let frame_head ~id req =
  let head = Printf.sprintf "{\"id\":\"%s\"," id in
  let len = String.length head + String.length req.tail in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.unsafe_to_string b ^ head

let frame ~id req = frame_head ~id req ^ req.tail

(* Offline-planning chains (mc-chain and chain-1e6): the library's
   generator, λ = 10/n and D = 0.2 — the bench suite's shape. *)
let planning_problem rng ~n =
  let dag = Generate.chain rng spec ~n in
  (dag, 10.0 /. float_of_int n, 0.2)
