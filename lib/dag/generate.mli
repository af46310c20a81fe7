(** Random workflow generators used by the tests, the experiments, and
    the examples. All randomness flows through an explicit
    {!Ckpt_prng.Rng.t}, so generated workloads are reproducible. *)

type cost_spec = {
  work_range : float * float;  (** w_i uniform in this range. *)
  checkpoint_range : float * float;  (** C_i uniform in this range. *)
  recovery_range : float * float;  (** R_i uniform in this range. *)
}

val uniform_costs :
  ?work:float * float -> ?checkpoint:float * float -> ?recovery:float * float -> unit ->
  cost_spec
(** Defaults: work in [1, 10], checkpoint in [0.1, 1], recovery in
    [0.1, 1]. Ranges must satisfy 0 <= lo <= hi (work lo > 0). *)

val task_list : Ckpt_prng.Rng.t -> cost_spec -> n:int -> Task.t list
(** [n] tasks with ids 0..n-1 and costs drawn from the spec. *)

val chain : Ckpt_prng.Rng.t -> cost_spec -> n:int -> Dag.t
(** A linear chain of [n] random tasks. *)

val independent : Ckpt_prng.Rng.t -> cost_spec -> n:int -> Dag.t
(** [n] independent random tasks. *)

val fork_join : Ckpt_prng.Rng.t -> cost_spec -> stages:int -> width:int -> Dag.t
(** [stages] fork-join stages: source -> [width] parallel tasks -> sink,
    chained. Size is [stages * (width + 2)]. *)

val diamond : Ckpt_prng.Rng.t -> cost_spec -> width:int -> Dag.t
(** One fork-join stage (a "diamond"): 1 + width + 1 tasks. *)

val layered :
  Ckpt_prng.Rng.t -> cost_spec -> layers:int -> width:int -> edge_prob:float -> Dag.t
(** Layer-by-layer random DAG: tasks in layer k may depend on tasks of
    layer k-1, each potential edge kept with probability [edge_prob];
    every non-first-layer task receives at least one predecessor so the
    layering is genuine. *)

val random_dag : Ckpt_prng.Rng.t -> cost_spec -> n:int -> edge_prob:float -> Dag.t
(** Erdős–Rényi style DAG: each pair (i, j) with i < j becomes an edge
    with probability [edge_prob]. *)
