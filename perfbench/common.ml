(* Shared plumbing of the benchmark: timing, sample statistics, the
   metric record, peak RSS, and the per-layer probe helper that wraps a
   call into the library in a benchmark-side span and reads its time
   and allocation from outside. *)

module Clock = Ckpt_obs.Clock
module Span = Ckpt_obs.Span
module Metrics = Ckpt_obs.Metrics

let now_ns = Clock.now_ns
let since_s t0 = Clock.elapsed_s t0
let since_ms t0 = 1e3 *. Clock.elapsed_s t0

let nproc () = Domain.recommended_domain_count ()

(* ---- sample statistics ---------------------------------------------- *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [q] of the
   samples at or below it. *)
let percentile values q =
  match sorted values with
  | [||] -> invalid_arg "percentile: no samples"
  | a ->
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let median values =
  match sorted values with
  | [||] -> invalid_arg "median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let mean values =
  match values with
  | [] -> invalid_arg "mean: no samples"
  | _ -> List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)

(* ---- the result record ---------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; samples : int }

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (** Answers that failed their check. *)
  mutable notes : string list;  (** Human-readable check failures / flags. *)
}

let outcome () = { attempted = 0; failed = 0; wrong = 0; notes = [] }

let note o fmt = Printf.ksprintf (fun s -> o.notes <- s :: o.notes) fmt

(* A wrong answer is a failed operation and makes the run incorrect. *)
let wrong o fmt =
  Printf.ksprintf
    (fun s ->
      o.wrong <- o.wrong + 1;
      o.failed <- o.failed + 1;
      if o.wrong <= 5 then o.notes <- ("check failed: " ^ s) :: o.notes)
    fmt

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

(* ---- process-level measurements --------------------------------------- *)

(* VmHWM of this process in MiB: the process runs exactly one workload. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM not found in /proc/self/status"
      in
      scan ())

(* Counter value from the library's metrics snapshot (a delta source:
   read before and after the call under measurement). *)
let counter_value name =
  match Metrics.find (Metrics.snapshot ()) name with
  | Some (_, Metrics.Counter n) -> n
  | _ -> 0

(* Whole-process minor collections: a global event counted once, unlike
   the per-domain gc.* telemetry rows. *)
let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections

(* ---- repeated operations ------------------------------------------------ *)

(* Runs [op] back to back until [seconds] have passed, at least three
   times. [op] returns its own latency in ms, so the untimed checks of
   its output can follow the timed part. Prints the latencies in order. *)
let repeat_for ~seconds op =
  let t_end = Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let rec loop acc count =
    if count >= 3 && Int64.compare (now_ns ()) t_end >= 0 then List.rev acc
    else loop (op () :: acc) (count + 1)
  in
  let times = loop [] 0 in
  Printf.printf "latency ms of %d operations: %s\n" (List.length times)
    (String.concat " " (List.map (Printf.sprintf "%.1f") times));
  times

(* The end-to-end metrics of a workload whose operation does [work]
   units (runs, tasks) in the latency [times] reports. *)
let op_metrics ~setup ~times ~work =
  let n = List.length times and p50 = percentile times 0.5 in
  [
    metric ~samples:(List.length setup) "setup_s" "s" (median setup);
    metric ~samples:n "latency_p50_ms" "ms" p50;
    metric ~samples:n "throughput_per_s" "1/s" (work /. (p50 /. 1e3));
    metric "peak_rss_mb" "MiB" (peak_rss_mb ());
  ]

(* ---- per-layer probes -------------------------------------------------- *)

(* One probe per layer metric: per-call durations (ns) and allocated
   minor words on the calling domain. *)
type probe = { mutable ns : float list; mutable words : float list }

let probe () = { ns = []; words = [] }

let layer p ~name ~args f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = Span.with_ ~name ~args f in
  let dt = Int64.to_float (Int64.sub (now_ns ()) t0) in
  let w1 = Gc.minor_words () in
  p.ns <- dt :: p.ns;
  p.words <- (w1 -. w0) :: p.words;
  r

let median_us p = median p.ns /. 1e3
let median_words p = median p.words

(* Runs [f] with span recording on, from empty span buffers. *)
let with_spans f =
  Span.reset ();
  Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Span.set_enabled false) f
