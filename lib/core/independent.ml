module Task = Ckpt_dag.Task
module Rng = Ckpt_prng.Rng

type t = {
  tasks : Task.t array;
  lambda : float;
  downtime : float;
  initial_recovery : float;
}

let make ?(downtime = 0.0) ?(initial_recovery = 0.0) ~lambda task_list =
  if task_list = [] then invalid_arg "Independent.make: empty task list";
  if not (lambda > 0.0) then invalid_arg "Independent.make: lambda must be positive";
  if downtime < 0.0 || initial_recovery < 0.0 then
    invalid_arg "Independent.make: negative durations";
  let tasks = Array.of_list (List.mapi (fun i task -> Task.with_id task i) task_list) in
  { tasks; lambda; downtime; initial_recovery }

let uniform ?(downtime = 0.0) ~lambda ~checkpoint ~recovery works =
  let task_list =
    List.mapi
      (fun i work ->
        Task.make ~id:i ~work ~checkpoint_cost:checkpoint ~recovery_cost:recovery ())
      works
  in
  make ~downtime ~initial_recovery:recovery ~lambda task_list

let chain_of t order =
  if List.length order <> Array.length t.tasks then
    invalid_arg "Independent.chain_of: ordering size mismatch";
  let seen = Array.make (Array.length t.tasks) false in
  List.iter
    (fun (task : Task.t) ->
      if task.Task.id < 0 || task.Task.id >= Array.length t.tasks || seen.(task.Task.id)
      then invalid_arg "Independent.chain_of: not a permutation of the tasks";
      seen.(task.Task.id) <- true)
    order;
  Chain_problem.make ~downtime:t.downtime ~initial_recovery:t.initial_recovery
    ~lambda:t.lambda order

type ordering = As_given | Shortest_first | Longest_first | Random of int

let order_tasks t ordering =
  let tasks = Array.to_list t.tasks in
  match ordering with
  | As_given -> tasks
  | Shortest_first ->
      List.sort (fun (a : Task.t) b -> compare a.Task.work b.Task.work) tasks
  | Longest_first ->
      List.sort (fun (a : Task.t) b -> compare b.Task.work a.Task.work) tasks
  | Random salt ->
      let rng = Rng.create ~seed:(Int64.of_int (0x5eed + salt)) in
      Rng.shuffle rng tasks

let solve_ordered t ordering = Chain_dp.solve (chain_of t (order_tasks t ordering))

let best_ordered t orderings =
  if orderings = [] then invalid_arg "Independent.best_ordered: no orderings";
  let scored =
    List.map (fun ordering -> (ordering, solve_ordered t ordering)) orderings
  in
  List.fold_left
    (fun (best_o, best_s) (o, s) ->
      if s.Chain_dp.expected_makespan < best_s.Chain_dp.expected_makespan then (o, s)
      else (best_o, best_s))
    (List.hd scored) (List.tl scored)

let lpt_grouping t ~groups =
  if groups < 1 then invalid_arg "Independent.lpt_grouping: groups must be >= 1";
  let n = Array.length t.tasks in
  let groups = Stdlib.min groups n in
  (* LPT: heaviest task first into the currently lightest bin. *)
  let order = order_tasks t Longest_first in
  let bin_work = Array.make groups 0.0 in
  let bins = Array.make groups [] in
  List.iter
    (fun (task : Task.t) ->
      let lightest = ref 0 in
      for b = 1 to groups - 1 do
        if bin_work.(b) < bin_work.(!lightest) then lightest := b
      done;
      bin_work.(!lightest) <- bin_work.(!lightest) +. task.Task.work;
      bins.(!lightest) <- task :: bins.(!lightest))
    order;
  let sequence = List.concat_map List.rev (Array.to_list bins |> List.filter (( <> ) [])) in
  (* Re-optimise the placement over the induced order: at least as good
     as checkpointing exactly at bin boundaries. *)
  Chain_dp.solve (chain_of t sequence)

let auto_grouping t =
  let total_work = Array.fold_left (fun acc task -> acc +. task.Task.work) 0.0 t.tasks in
  let n = Array.length t.tasks in
  let mean_checkpoint =
    Array.fold_left (fun acc task -> acc +. task.Task.checkpoint_cost) 0.0 t.tasks
    /. float_of_int n
  in
  let mean_recovery =
    Array.fold_left (fun acc task -> acc +. task.Task.recovery_cost) 0.0 t.tasks
    /. float_of_int n
  in
  let divisible =
    Approximations.optimal_divisible ~total_work ~checkpoint:mean_checkpoint
      ~downtime:t.downtime ~recovery:mean_recovery ~lambda:t.lambda
  in
  lpt_grouping t ~groups:(Stdlib.min n divisible.Approximations.chunks)
