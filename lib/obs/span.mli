(** Monotonic-clock timing scopes with parent/child nesting.

    Spans are disabled by default: {!with_} then just runs its callback
    (one atomic read of overhead), so the simulator can be instrumented
    unconditionally. CLI tools enable recording when the user asks for a
    trace. Each domain records into its own buffer (domain-local
    storage, no locks); {!records} merges the buffers sorted by start
    time.

    Three exports: a human summary table aggregated by span name, JSON
    Lines (one record per line), and the Chrome [trace_event] format
    that [about://tracing] and {{:https://ui.perfetto.dev}Perfetto}
    load directly — spans appear as one track per domain, nested by
    depth. *)

val set_enabled : bool -> unit

val enabled : unit -> bool

type span_kind = Complete | Instant

type record = {
  name : string;
  span_kind : span_kind;
  start_ns : int64;  (** Monotonic stamp ({!Clock.now_ns}). *)
  dur_ns : int64;  (** 0 for [Instant]. *)
  tid : int;  (** Recording domain's id. *)
  depth : int;  (** Nesting depth within that domain at entry. *)
  args : (string * string) list;
}

val with_ : ?args:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** [with_ ~name f] times [f ()] as a span. Nesting depth is tracked
    per domain and restored even when [f] raises; a span closed by an
    exception carries an extra [("raised", "true")] argument and the
    exception is re-raised. When disabled, runs [f] with no recording.
    It is the only way to open a span, so a scope cannot leak. *)

val instant : ?args:(string * string) list -> string -> unit
(** A zero-duration marker (e.g. one adaptive-sampling CI report). *)

val records : unit -> record list
(** All recorded spans, sorted by start time (then domain, then depth).
    Call at quiescent points only. *)

val reset : unit -> unit

val summary_table : record list -> string
(** Aggregate by name: calls, total/mean/max milliseconds, sorted by
    total descending. *)

val to_jsonl : record list -> string
(** One JSON object per line. *)

val to_chrome : record list -> string
(** Chrome [trace_event] JSON: complete ("ph":"X") and instant
    ("ph":"i") events, timestamps in microseconds rebased to the
    earliest record. Deterministic given the records. *)
