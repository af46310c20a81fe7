module Rng = Ckpt_prng.Rng

type cost_spec = {
  work_range : float * float;
  checkpoint_range : float * float;
  recovery_range : float * float;
}

let check_range ~allow_zero name (lo, hi) =
  let lo_ok = if allow_zero then lo >= 0.0 else lo > 0.0 in
  if not (lo_ok && lo <= hi) then
    invalid_arg (Printf.sprintf "Generate: invalid %s range (%g, %g)" name lo hi)

let uniform_costs ?(work = (1.0, 10.0)) ?(checkpoint = (0.1, 1.0)) ?(recovery = (0.1, 1.0))
    () =
  check_range ~allow_zero:false "work" work;
  check_range ~allow_zero:true "checkpoint" checkpoint;
  check_range ~allow_zero:true "recovery" recovery;
  { work_range = work; checkpoint_range = checkpoint; recovery_range = recovery }

let draw rng (lo, hi) = if lo = hi then lo else Rng.float_range rng lo hi

let task_list rng spec ~n =
  if n < 0 then invalid_arg "Generate.task_list: negative size";
  List.init n (fun id ->
      Task.make ~id ~work:(draw rng spec.work_range)
        ~checkpoint_cost:(draw rng spec.checkpoint_range)
        ~recovery_cost:(draw rng spec.recovery_range) ())

let chain rng spec ~n = Dag.of_chain (task_list rng spec ~n)
let independent rng spec ~n = Dag.of_independent (task_list rng spec ~n)

let fork_join rng spec ~stages ~width =
  if stages <= 0 || width <= 0 then invalid_arg "Generate.fork_join: sizes must be positive";
  let n = stages * (width + 2) in
  let tasks = task_list rng spec ~n in
  let edges = ref [] in
  for stage = 0 to stages - 1 do
    let base = stage * (width + 2) in
    let fork = base and join = base + width + 1 in
    for k = 1 to width do
      edges := (fork, base + k) :: (base + k, join) :: !edges
    done;
    if stage > 0 then edges := (base - 1, fork) :: !edges
  done;
  Dag.create tasks !edges

let diamond rng spec ~width = fork_join rng spec ~stages:1 ~width

let layered rng spec ~layers ~width ~edge_prob =
  if layers <= 0 || width <= 0 then invalid_arg "Generate.layered: sizes must be positive";
  if not (edge_prob >= 0.0 && edge_prob <= 1.0) then
    invalid_arg "Generate.layered: edge_prob out of [0,1]";
  let n = layers * width in
  let tasks = task_list rng spec ~n in
  let id layer pos = (layer * width) + pos in
  let edges = ref [] in
  for layer = 1 to layers - 1 do
    for pos = 0 to width - 1 do
      let dst = id layer pos in
      let attached = ref false in
      for src_pos = 0 to width - 1 do
        if Rng.float rng < edge_prob then begin
          edges := (id (layer - 1) src_pos, dst) :: !edges;
          attached := true
        end
      done;
      if not !attached then
        (* Guarantee layer membership with one random incoming edge. *)
        edges := (id (layer - 1) (Rng.int rng width), dst) :: !edges
    done
  done;
  Dag.create tasks !edges

let random_dag rng spec ~n ~edge_prob =
  if n < 0 then invalid_arg "Generate.random_dag: negative size";
  if not (edge_prob >= 0.0 && edge_prob <= 1.0) then
    invalid_arg "Generate.random_dag: edge_prob out of [0,1]";
  let tasks = task_list rng spec ~n in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.float rng < edge_prob then edges := (i, j) :: !edges
    done
  done;
  Dag.create tasks !edges
