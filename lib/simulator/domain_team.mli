(** Persistent worker-domain team: the compute pool behind
    {!Parallel_exec}, its only client.

    {!Parallel_exec} keeps one team for the whole process and runs each
    Monte-Carlo campaign (every round of an adaptive one) on it, one
    task per batch. A team spawns its workers once; between rounds they
    park on a condition variable and are woken by a generation bump, so
    a round costs two mutex handshakes rather than thread creation. A
    round may enlist only the first [participants] members, so one wide
    team serves narrower campaigns too.

    {1 Determinism contract}

    [run] hands out task indices [0..tasks-1] through an atomic cursor;
    {e which} domain executes a task, and in what order tasks complete,
    is scheduling-dependent. Results are bit-identical for any domain
    count if and only if the caller keeps this contract, as
    {!Parallel_exec}'s batch grid does:

    - each task writes only state owned by its index (disjoint slots in
      a preallocated array), and
    - the caller merges those slots {e in task order} after [run]
      returns.

    Under that contract the observable result is a pure function of the
    task decomposition — which the caller must keep independent of the
    domain count (fixed chunk grids, never [tasks / domains]-sized
    chunks). *)

type t

val create : ?domains:int -> unit -> t
(** [create ?domains ()] spawns [domains − 1] worker domains (the
    caller is the remaining participant). Default:
    {!default_domains}. [domains = 1] creates a team with no workers
    whose [run] is purely sequential. Raises [Invalid_argument] if
    [domains < 1]. If a spawn fails (the runtime caps live domains),
    the workers already spawned are shut down and joined before the
    exception is re-raised, so a failed [create] leaks no domain. *)

val size : t -> int
(** Total participants including the calling domain. *)

val run : t -> ?participants:int -> tasks:int -> (participant:int -> int -> unit) -> unit
(** [run t ~tasks fn] executes [fn ~participant i] once for every [i]
    in [0..tasks-1], work-stealing across the first [participants]
    members of the team (default: all of them); the calling domain
    participates. [participant] names the domain running the task: 0
    for the caller, [1..participants - 1] for the workers, each
    worker's index fixed for the team's lifetime — so per-domain state
    (telemetry probes, busy time) can live in a slot per participant.
    Returns when every task has run. If a task raises, remaining
    unclaimed tasks are abandoned (already-claimed ones finish), and
    the first exception recorded is re-raised here after the round
    drains — the team stays usable. One round at a time: [run] is not
    reentrant, and callers on different domains must serialise their
    rounds (as {!Parallel_exec} does with a lock); the caller of a
    round may be any domain. Raises [Invalid_argument] after
    {!shutdown}, or if [participants] is outside [1 .. size t]. *)

val shutdown : t -> unit
(** Wake and join the workers. Idempotent. The team cannot be used
    afterwards. *)

val default_domains : unit -> int
(** The default team size ([min 8 (Domain.recommended_domain_count ())]),
    also {!Parallel_exec}'s when [?domains] is omitted. *)
