(** The strongly NP-complete problem of Proposition 2: schedule n
    {e independent} tasks and choose after which ones to checkpoint,
    minimising the expected makespan.

    Any solution is an ordering of the tasks plus a placement, i.e. a
    {!Schedule.t} over the chain induced by the ordering, so heuristics
    here return ordinary schedules and are directly comparable with the
    exact solvers of {!Brute_force}. *)

type t = private {
  tasks : Ckpt_dag.Task.t array;
  lambda : float;
  downtime : float;
  initial_recovery : float;
}

val make :
  ?downtime:float -> ?initial_recovery:float -> lambda:float -> Ckpt_dag.Task.t list -> t
(** [initial_recovery] (default 0) is the recovery cost of a failure
    occurring before the first checkpoint. *)

val uniform :
  ?downtime:float -> lambda:float -> checkpoint:float -> recovery:float ->
  float list -> t
(** The Proposition 2 setting: given works, all checkpoint and recovery
    costs equal (and the initial recovery too, matching the reduction's
    accounting). *)

val chain_of : t -> Ckpt_dag.Task.t list -> Chain_problem.t
(** The chain problem induced by an ordering of the tasks (a permutation
    of them; validated). *)

type ordering =
  | As_given
  | Shortest_first
  | Longest_first
  | Random of int  (** Shuffle with the given salt. *)

val order_tasks : t -> ordering -> Ckpt_dag.Task.t list

val solve_ordered : t -> ordering -> Chain_dp.solution
(** Fix the ordering, then place checkpoints optimally with the chain
    DP — the natural "order then place" heuristic family. *)

val best_ordered : t -> ordering list -> ordering * Chain_dp.solution
(** The best of several orderings (ties broken by list position). *)

val lpt_grouping : t -> groups:int -> Chain_dp.solution
(** Longest-processing-time-first packing into [groups] bins of
    near-equal work (the balance the Proposition 2 convexity argument
    proves optimal), one checkpoint after each bin; placement is then
    re-optimised by the chain DP over the induced order. *)

val auto_grouping : t -> Chain_dp.solution
(** {!lpt_grouping} with the group count chosen by the divisible-load
    analysis ({!Approximations.optimal_divisible}) applied to the total
    work and the mean checkpoint cost. *)
