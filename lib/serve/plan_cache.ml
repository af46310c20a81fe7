module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Metrics = Ckpt_obs.Metrics

let cache_hits = Metrics.counter "serve.cache_hits"
let cache_misses = Metrics.counter "serve.cache_misses"
let cache_evictions = Metrics.counter "serve.cache_evictions"

(* Canonical form: every time quantity divided by the total work W (and
   λ multiplied by it). Power-of-two rescalings of a problem produce
   bit-identical canonical floats — x·2^k / (W·2^k) rounds exactly like
   x/W — so %.17g (exact round-trip) keys them identically without any
   tolerance machinery. *)
let canonical_key problem =
  let w_total = Chain_problem.total_work problem in
  let buf = Buffer.create 256 in
  let add x = Buffer.add_string buf (Printf.sprintf "%.17g;" x) in
  Buffer.add_string buf (string_of_int (Chain_problem.size problem));
  Buffer.add_char buf ';';
  add (problem.Chain_problem.lambda *. w_total);
  add (problem.Chain_problem.downtime /. w_total);
  add (problem.Chain_problem.initial_recovery /. w_total);
  Array.iter
    (fun (task : Ckpt_dag.Task.t) ->
      add (task.Ckpt_dag.Task.work /. w_total);
      add (task.Ckpt_dag.Task.checkpoint_cost /. w_total);
      add (task.Ckpt_dag.Task.recovery_cost /. w_total))
    problem.Chain_problem.tasks;
  Digest.to_hex (Digest.string (Buffer.contents buf))

type entry = {
  checkpoints_after : int list;
  canonical_makespan : float;  (* expectation of the W = 1 rescaling *)
  stored_total_work : float;
  stored_makespan : float;
  mutable last_used : int;
}

type t = {
  lock : Mutex.t;
  table : (string, entry) Hashtbl.t;
  cap : int;
  mutable tick : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity must be >= 1";
  let table =
    (Hashtbl.create capacity
      [@lint.domain_safe "mutex-held: every access is under t.lock"])
  in
  { lock = Mutex.create (); table; cap = capacity; tick = 0 }

type hit = { checkpoints_after : int list; expected_makespan : float; exact : bool }

let find t problem =
  let key = canonical_key problem in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table key with
      | None ->
          Metrics.incr cache_misses;
          None
      | Some entry ->
          Metrics.incr cache_hits;
          t.tick <- t.tick + 1;
          entry.last_used <- t.tick;
          let w_total = Chain_problem.total_work problem in
          let exact = Float.equal w_total entry.stored_total_work in
          let expected_makespan =
            if exact then entry.stored_makespan
            else entry.canonical_makespan *. w_total
          in
          Some { checkpoints_after = entry.checkpoints_after; expected_makespan; exact })

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, best) when best <= entry.last_used -> acc
        | _ -> Some (key, entry.last_used))
      t.table None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      Metrics.incr cache_evictions
  | None -> ()

let store t problem (solution : Chain_dp.solution) =
  let key = canonical_key problem in
  let w_total = Chain_problem.total_work problem in
  Mutex.protect t.lock (fun () ->
      t.tick <- t.tick + 1;
      if not (Hashtbl.mem t.table key) && Hashtbl.length t.table >= t.cap then
        evict_lru t;
      Hashtbl.replace t.table key
        {
          checkpoints_after = Schedule.checkpoint_indices solution.Chain_dp.schedule;
          canonical_makespan = solution.Chain_dp.expected_makespan /. w_total;
          stored_total_work = w_total;
          stored_makespan = solution.Chain_dp.expected_makespan;
          last_used = t.tick;
        })

let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)
