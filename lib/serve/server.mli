(** The ckpt-serve daemon: one event-loop domain doing non-blocking
    accept + frame reassembly, a {!Bounded_queue} with explicit
    backpressure, and a fixed pool of worker domains solving through
    {!Engine} (the {!Ckpt_sim.Parallel_exec} discipline: domains live
    for the server's lifetime, work arrives over a queue).

    Flow control and shutdown guarantees (tested in [test_serve]):
    - a request that does not fit in the queue is answered immediately
      with [queue_full] carrying [retry_after_ms] — never dropped
      silently, and the event loop never blocks on a full queue;
    - a request popped after its [timeout_ms] deadline is answered with
      [deadline_exceeded] without solving;
    - {!stop} closes the listener, stops reading, closes the queue and
      joins the workers — every request accepted before the stop is
      still answered (drain), then the connections are closed. *)

type config = {
  host : string;  (** Default ["127.0.0.1"]. *)
  port : int;  (** [0] picks a free port (see {!port}). *)
  workers : int;  (** Worker-domain count, >= 1. *)
  queue_capacity : int;  (** Bound on queued (not in-flight) requests. *)
  cache_capacity : int;  (** {!Plan_cache} entries. *)
  max_frame : int;  (** Per-frame payload bound, bytes. *)
  retry_after_ms : int;  (** Backoff hint carried by [queue_full]. *)
  worker_hook : (unit -> unit) option;
      (** Test gate run by a worker before each solve; [None] in
          production. Lets tests hold workers to fill the queue
          deterministically. *)
}

val default_config : config
(** localhost, ephemeral port, 2 workers, queue 64, cache 1024,
    1 MiB frames, retry-after 25 ms, no hook. *)

type t

val start : config -> t
(** Binds, spawns the event loop and the workers, returns immediately.
    Raises [Unix.Unix_error] if the bind fails. *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val pending : t -> int
(** Requests accepted but not yet answered (queued + in-flight). *)

val stop : t -> unit
(** Graceful drain as described above; blocks until all domains have
    joined and every socket is closed. Idempotent. *)
