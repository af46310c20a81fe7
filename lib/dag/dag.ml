type t = {
  tasks : Task.t array;  (* index = id *)
  succs : Task.id list array;  (* sorted increasing *)
  preds : Task.id list array;  (* sorted increasing *)
  edges : (Task.id * Task.id) list;
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let check_tasks task_list =
  let n = List.length task_list in
  let slots = Array.make n None in
  List.iter
    (fun (task : Task.t) ->
      if task.Task.id < 0 || task.Task.id >= n then
        invalid "task id %d out of range 0..%d" task.Task.id (n - 1);
      match slots.(task.Task.id) with
      | Some _ -> invalid "duplicate task id %d" task.Task.id
      | None -> slots.(task.Task.id) <- Some task)
    task_list;
  Array.map (fun slot -> match slot with Some t -> t | None -> assert false) slots

let check_acyclic n succs =
  (* Kahn's algorithm: if we cannot consume all vertices, there is a cycle. *)
  let indegree = Array.make n 0 in
  Array.iter (List.iter (fun j -> indegree.(j) <- indegree.(j) + 1)) succs;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indegree;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    incr seen;
    List.iter
      (fun j ->
        indegree.(j) <- indegree.(j) - 1;
        if indegree.(j) = 0 then Queue.add j queue)
      succs.(i)
  done;
  if !seen <> n then invalid "graph contains a cycle"

let create task_list edge_list =
  let tasks = check_tasks task_list in
  let n = Array.length tasks in
  let succs = Array.make n [] and preds = Array.make n [] in
  let seen_edges =
    Hashtbl.create (List.length edge_list)
      [@@lint.domain_safe "construction-local duplicate-edge check; never escapes create"]
  in
  List.iter
    (fun (src, dst) ->
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid "edge (%d,%d) out of range" src dst;
      if src = dst then invalid "self-loop on task %d" src;
      if Hashtbl.mem seen_edges (src, dst) then invalid "duplicate edge (%d,%d)" src dst;
      Hashtbl.add seen_edges (src, dst) ();
      succs.(src) <- dst :: succs.(src);
      preds.(dst) <- src :: preds.(dst))
    edge_list;
  Array.iteri (fun i l -> succs.(i) <- List.sort compare l) succs;
  Array.iteri (fun i l -> preds.(i) <- List.sort compare l) preds;
  check_acyclic n succs;
  { tasks; succs; preds; edges = List.sort compare edge_list }

let reindex task_list =
  List.mapi (fun i task -> Task.with_id task i) task_list

let of_chain task_list =
  let tasks = reindex task_list in
  let n = List.length tasks in
  let edges = List.init (Stdlib.max 0 (n - 1)) (fun i -> (i, i + 1)) in
  create tasks edges

let of_independent task_list = create (reindex task_list) []

let size t = Array.length t.tasks

let task t id =
  if id < 0 || id >= size t then invalid_arg "Dag.task: id out of range";
  t.tasks.(id)

let tasks t = Array.copy t.tasks
let edges t = t.edges
let successors t id = t.succs.(id)
let predecessors t id = t.preds.(id)

let sources t =
  List.filter (fun i -> t.preds.(i) = []) (List.init (size t) Fun.id)

let sinks t =
  List.filter (fun i -> t.succs.(i) = []) (List.init (size t) Fun.id)

let total_work t =
  Array.fold_left (fun acc (task : Task.t) -> acc +. task.Task.work) 0.0 t.tasks

let is_chain t =
  let n = size t in
  if n = 0 then Some []
  else begin
    let degrees_ok = ref true in
    for i = 0 to n - 1 do
      if List.length t.succs.(i) > 1 || List.length t.preds.(i) > 1 then
        degrees_ok := false
    done;
    if not !degrees_ok then None
    else
      match sources t with
      | [ start ] ->
          (* Walk the unique path and check it covers all tasks. *)
          let rec walk acc i =
            match t.succs.(i) with
            | [] -> List.rev (t.tasks.(i) :: acc)
            | [ j ] -> walk (t.tasks.(i) :: acc) j
            | _ :: _ :: _ -> assert false
          in
          let path = walk [] start in
          if List.length path = n then Some path else None
      | _ -> None
  end

let is_independent t = t.edges = []

let topological_order t =
  let n = size t in
  let indegree = Array.make n 0 in
  Array.iter (List.iter (fun j -> indegree.(j) <- indegree.(j) + 1)) t.succs;
  (* A sorted ready-set gives a deterministic order. *)
  let module IntSet = Set.Make (Int) in
  let ready = ref IntSet.empty in
  Array.iteri (fun i d -> if d = 0 then ready := IntSet.add i !ready) indegree;
  let rec loop acc =
    match IntSet.min_elt_opt !ready with
    | None -> List.rev acc
    | Some i ->
        ready := IntSet.remove i !ready;
        List.iter
          (fun j ->
            indegree.(j) <- indegree.(j) - 1;
            if indegree.(j) = 0 then ready := IntSet.add j !ready)
          t.succs.(i);
        loop (i :: acc)
  in
  loop []

let is_linearization t order =
  let n = size t in
  if List.length order <> n then false
  else begin
    let position = Array.make n (-1) in
    let ok = ref true in
    List.iteri
      (fun pos i ->
        if i < 0 || i >= n || position.(i) >= 0 then ok := false else position.(i) <- pos)
      order;
    !ok
    && List.for_all (fun (src, dst) -> position.(src) < position.(dst)) t.edges
  end

let all_linearizations ?(limit = 100_000) t =
  let n = size t in
  let indegree = Array.make n 0 in
  Array.iter (List.iter (fun j -> indegree.(j) <- indegree.(j) + 1)) t.succs;
  let results = ref [] in
  let count = ref 0 in
  let rec extend prefix remaining =
    if remaining = 0 then begin
      incr count;
      if !count > limit then
        invalid_arg "Dag.all_linearizations: too many linearizations";
      results := List.rev prefix :: !results
    end
    else
      for i = 0 to n - 1 do
        if indegree.(i) = 0 then begin
          indegree.(i) <- -1; (* mark used *)
          List.iter (fun j -> indegree.(j) <- indegree.(j) - 1) t.succs.(i);
          extend (i :: prefix) (remaining - 1);
          List.iter (fun j -> indegree.(j) <- indegree.(j) + 1) t.succs.(i);
          indegree.(i) <- 0
        end
      done
  in
  extend [] n;
  List.rev !results

let count_linearizations ?limit t = List.length (all_linearizations ?limit t)

let critical_path t =
  let order = topological_order t in
  let best = Array.make (size t) 0.0 in
  List.iter
    (fun i ->
      let from_preds =
        List.fold_left (fun acc p -> Float.max acc best.(p)) 0.0 t.preds.(i)
      in
      best.(i) <- from_preds +. t.tasks.(i).Task.work)
    order;
  Array.fold_left Float.max 0.0 best

let reachable_from t start =
  let n = size t in
  let visited = Array.make n false in
  let rec dfs i =
    List.iter
      (fun j ->
        if not visited.(j) then begin
          visited.(j) <- true;
          dfs j
        end)
      t.succs.(i)
  in
  dfs start;
  List.filter (fun i -> visited.(i)) (List.init n Fun.id)

let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph workflow {\n";
  Array.iter
    (fun (task : Task.t) ->
      Buffer.add_string buf
        (Printf.sprintf "  t%d [label=\"%s\\nw=%g C=%g\"];\n" task.Task.id task.Task.name
           task.Task.work task.Task.checkpoint_cost))
    t.tasks;
  List.iter
    (fun (src, dst) -> Buffer.add_string buf (Printf.sprintf "  t%d -> t%d;\n" src dst))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp fmt t =
  Format.fprintf fmt "Dag(%d tasks, %d edges)" (size t) (List.length t.edges)
