(* The two serving workloads against a live in-process ckpt-serve on
   loopback, and the traced replay of their requests through each layer
   of the request path.

   Both measure end to end in a closed loop on one connection. The
   traced run of serve-repeat drives the same requests as an open loop
   at a fixed rate instead: on a 2-core box an open loop's latencies are
   dominated by scheduling stalls of the server's domains and spread too
   much between runs to bound (p50 2.1-3.3 ms over five seeds, against
   1.17-1.26 ms closed-loop), so the open loop's queueing, deadlines and
   generator lag are reported as per-layer metrics. *)

open Common
module Rng = Ckpt_prng.Rng
module Task = Ckpt_dag.Task
module Json = Ckpt_json.Json
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Segment_cost = Ckpt_core.Segment_cost
module Server = Ckpt_serve.Server
module Protocol = Ckpt_serve.Protocol
module Framing = Protocol.Framing
module Engine = Ckpt_serve.Engine
module Plan_cache = Ckpt_serve.Plan_cache

(* The offered load of serve-repeat's open loop (traced run), fixed here
   and quoted in BENCHMARK.json: about half the closed-loop capacity of
   a 2-core box for this mix (~600 req/s). *)
let repeat_rate_per_s = 300.0

let distinct_pool = 512
let distinct_cache = 128
let repeat_bases = 32
let repeat_scales = [| -3; -2; -1; 0; 1; 2; 3 |]
let repeat_cache = 256
let setups = 3

exception Transport of string

(* ---- one client connection --------------------------------------------- *)

(* The load generator's side of the socket is the benchmark's own, on
   Unix directly: a reused read buffer and a request written as a small
   header plus the shared pre-encoded tail, so the client allocates
   little and never competes with the server for the collector. *)
type conn = { fd : Unix.file_descr; dec : Framing.decoder; buf : Bytes.t }

let connect server =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  { fd; dec = Framing.decoder (); buf = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_string c s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring c.fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) -> raise (Transport (Unix.error_message e))
  in
  go 0

let send_request c ~id req =
  write_string c (Gen.frame_head ~id req);
  write_string c req.Gen.tail

(* Reads once (blocking) and feeds the decoder; false on EOF. *)
let read_some c =
  match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
  | 0 -> false
  | n ->
      Framing.feed c.dec (Bytes.sub_string c.buf 0 n);
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error (e, _, _) -> raise (Transport (Unix.error_message e))

let rec recv c =
  match Framing.next c.dec with
  | Some (Framing.Frame f) -> f
  | Some (Framing.Oversized n) -> raise (Transport (Printf.sprintf "oversized frame %d" n))
  | None -> if read_some c then recv c else raise (Transport "connection closed by server")

(* ---- checking one response --------------------------------------------- *)

type verdict = {
  ok : bool;  (** Answered with the right plan. *)
  tag : string;  (** Cache tag on success, error code on refusal. *)
  inexact : bool;  (** A rescaled hit off the exact rescaled makespan. *)
}

let refused code = { ok = false; tag = code; inexact = false }

let ulps a b = Int64.abs (Int64.sub (Int64.bits_of_float a) (Int64.bits_of_float b))

(* The makespan must equal the offline answer bit for bit. The one
   exception is a cache hit at another power-of-two scale than the
   stored entry: the cache documents that answer as the stored one
   times 2^k, and rebuilds it as (stored / W) * W', which can land one
   rounding step away. Those are accepted within 2 ulps and counted, so
   the deviation stays visible (plan_cache.rescaled_inexact). *)
let check o ~id ~(answer : Gen.answer) ~rescaled frame =
  let fail fmt = Printf.ksprintf (fun s -> wrong o "request %s: %s" id s; refused "wrong") fmt in
  match Json.parse_result frame with
  | Error msg -> fail "unparsable response (%s)" msg
  | Ok json -> (
      let field name j = Json.member name j in
      match (Option.bind (field "id" json) Json.to_str, field "ok" json) with
      | rid, _ when rid <> Some id -> fail "answered id %s" (Option.value ~default:"(none)" rid)
      | _, Some (Json.Bool true) -> (
          let tag = Option.value ~default:"" (Option.bind (field "cache" json) Json.to_str) in
          let result = Option.value ~default:Json.Null (field "result" json) in
          let makespan = Option.bind (field "expected_makespan" result) Json.to_float in
          let checkpoints =
            Option.map
              (List.map (fun v -> Option.value ~default:(-1) (Json.to_int v)))
              (Option.bind (field "checkpoints_after" result) Json.to_list)
          in
          match (makespan, checkpoints) with
          | Some _, Some cps when cps <> answer.Gen.checkpoints ->
              fail "placement differs from the offline plan"
          | Some m, Some _ when Float.equal m answer.Gen.makespan ->
              { ok = true; tag; inexact = false }
          | Some m, Some _
            when rescaled && tag = "hit" && Int64.compare (ulps m answer.Gen.makespan) 2L <= 0 ->
              { ok = true; tag; inexact = true }
          | Some m, Some _ -> fail "makespan %.17g, offline %.17g" m answer.Gen.makespan
          | _ -> fail "malformed result")
      | _, _ ->
          o.failed <- o.failed + 1;
          let code =
            Option.bind (field "error" json) (fun e -> Option.bind (field "code" e) Json.to_str)
          in
          refused (Option.value ~default:"unknown" code))

(* ---- inputs -------------------------------------------------------------- *)

(* One request of a run: what to send, when it is due (open
   loop only), and whether it is a rescaled resend. *)
type item = { req : Gen.request; due_s : float; rescaled : bool }

type inputs = {
  warmup : Gen.request array;  (** Sent closed-loop during set-up. *)
  items : item array;  (** The measured sequence (cycled when closed-loop). *)
  cache_capacity : int;
}

let distinct_inputs ?(pool = distinct_pool) ?(lo = 50) ?(hi = 2000) rng =
  let sizes = Gen.log_uniform_sizes (Rng.substream rng "sizes") ~count:pool ~lo ~hi in
  let chains = Rng.substream rng "chains" in
  let items =
    Array.map
      (fun n -> { req = Gen.request (Gen.served_chain chains ~n); due_s = 0.0; rescaled = false })
      sizes
  in
  let warm_sizes = Gen.log_uniform_sizes (Rng.substream rng "warm") ~count:16 ~lo ~hi in
  let warmup = Array.map (fun n -> Gen.request (Gen.served_chain chains ~n)) warm_sizes in
  { warmup; items; cache_capacity = Stdlib.min distinct_cache (pool / 4) }

(* Poisson arrivals at [rate] for [seconds] (the closed loop sends the
   same sequence, cycled). About 90% resend one of 32
   base chains, half exactly and half rescaled by 2^k; these hit by
   construction once set-up has stored every base. The rest are fresh
   chains that miss. *)
let repeat_inputs ~rate ~seconds rng =
  let base_sizes =
    Gen.log_uniform_sizes (Rng.substream rng "base-sizes") ~count:repeat_bases ~lo:50 ~hi:500
  in
  let chains = Rng.substream rng "chains" in
  let bases = Array.map (fun n -> Gen.served_chain chains ~n) base_sizes in
  let scaled =
    Array.map
      (fun chain ->
        Array.map (fun k -> Gen.request (Gen.rescale chain (Float.ldexp 1.0 k))) repeat_scales)
      bases
  in
  let arrivals = Rng.substream rng "arrivals" in
  let rec schedule t acc =
    let t = t -. (log (Rng.float_pos arrivals) /. rate) in
    if t > seconds then List.rev acc
    else
      let kind =
        if Rng.float arrivals < 0.1 then `Fresh
        else
          let b = Rng.int arrivals repeat_bases in
          let k = if Rng.bool arrivals then 3 else if Rng.bool arrivals then Rng.int arrivals 3 else 4 + Rng.int arrivals 3 in
          `Base (b, k)
      in
      schedule t ((t, kind) :: acc)
  in
  let plan = schedule 0.0 [] in
  let fresh_count = List.length (List.filter (fun (_, k) -> k = `Fresh) plan) in
  let fresh_sizes =
    Gen.log_uniform_sizes (Rng.substream rng "fresh-sizes") ~count:(Stdlib.max 1 fresh_count)
      ~lo:50 ~hi:500
  in
  let next_fresh = ref 0 in
  let items =
    Array.of_list
      (List.map
         (fun (due_s, kind) ->
           match kind with
           | `Fresh ->
               let n = fresh_sizes.(!next_fresh) in
               incr next_fresh;
               { req = Gen.request (Gen.served_chain chains ~n); due_s; rescaled = false }
           | `Base (b, k) -> { req = scaled.(b).(k); due_s; rescaled = repeat_scales.(k) <> 0 })
         plan)
  in
  {
    warmup = Array.map (fun row -> row.(3)) scaled;
    items;
    cache_capacity = repeat_cache;
  }

(* ---- set-up ----------------------------------------------------------------- *)

let start_server inputs =
  Server.start
    { Server.default_config with workers = nproc (); cache_capacity = inputs.cache_capacity }

(* Server start, connect and the closed-loop warm-up; the last of
   [setups] servers stays up for the measured phase. *)
let set_up o inputs =
  let one () =
    let t0 = now_ns () in
    let server = start_server inputs in
    let c = connect server in
    Array.iteri
      (fun i req ->
        let id = Printf.sprintf "w%d" i in
        o.attempted <- o.attempted + 1;
        send_request c ~id req;
        let v = check o ~id ~answer:req.Gen.answer ~rescaled:false (recv c) in
        if (not v.ok) && v.tag <> "wrong" then note o "warm-up request %s refused: %s" id v.tag)
      inputs.warmup;
    (since_s t0, server, c)
  in
  let rec loop k acc =
    let s, server, c = one () in
    if k = 1 then (List.rev (s :: acc), server, c)
    else begin
      close c;
      Server.stop server;
      loop (k - 1) (s :: acc)
    end
  in
  loop setups []

(* ---- the measured phase ------------------------------------------------------ *)

(* The answers of one live phase, as they are checked. *)
type tally = {
  mutable lat : float list;  (** One per attempted request; failures at the deadline. *)
  mutable successes : int;
  mutable inexact : int;
  mutable codes : (string * int) list;  (** Refusals by error code. *)
}

type live = {
  answers : tally;
  wall_s : float;
  lag_ms : float list;  (** Open loop: how late each send was against when it was due. *)
  peak_in_flight : int;
  flags : string list;
}

let new_tally () = { lat = []; successes = 0; inexact = 0; codes = [] }

(* Checks one answer ([None]: none arrived). A refused or missing answer
   counts at the deadline, as a request that missed any latency limit. *)
let judge o t ~id (it : item) ~ms answer =
  o.attempted <- o.attempted + 1;
  let v =
    match answer with
    | None ->
        o.failed <- o.failed + 1;
        refused "no_answer"
    | Some f -> check o ~id ~answer:it.req.Gen.answer ~rescaled:it.rescaled f
  in
  if v.ok then begin
    t.successes <- t.successes + 1;
    if v.inexact then t.inexact <- t.inexact + 1;
    t.lat <- ms :: t.lat
  end
  else begin
    let n = try List.assoc v.tag t.codes with Not_found -> 0 in
    t.codes <- (v.tag, n + 1) :: List.remove_assoc v.tag t.codes;
    t.lat <- Float.max ms (float_of_int Gen.timeout_ms) :: t.lat
  end

(* Closed loop on one connection: each request is sent when the previous
   answer has arrived, cycling through the items (ids repeat across
   cycles, never while in flight). *)
let closed_loop o inputs c ~seconds =
  let pool = Array.length inputs.items in
  let t_start = now_ns () in
  let deadline = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  let rec loop i acc =
    if Int64.compare (now_ns ()) deadline >= 0 then acc
    else begin
      let k = i mod pool in
      let t0 = now_ns () in
      match
        send_request c ~id:(string_of_int k) inputs.items.(k).req;
        recv c
      with
      | frame -> loop (i + 1) ((k, since_ms t0, Some frame) :: acc)
      | exception Transport msg ->
          note o "transport: %s" msg;
          (k, float_of_int Gen.timeout_ms, None) :: acc
    end
  in
  let records = List.rev (loop 0 []) in
  let wall_s = since_s t_start in
  let answers = new_tally () in
  List.iter
    (fun (k, ms, frame) -> judge o answers ~id:(string_of_int k) inputs.items.(k) ~ms frame)
    records;
  { answers; wall_s; lag_ms = []; peak_in_flight = 1; flags = [] }

(* Open loop on one connection, pipelined: each request is sent when it
   is due, whatever is still in flight, and answers are read and
   timestamped while waiting for the next due time. One thread does
   both, so no lock hand-off between a sender and a receiver thread
   delays either. Latency runs from the scheduled send time, so a stall
   is charged to every request queued behind it. *)
let open_loop o inputs c =
  let items = inputs.items in
  let n = Array.length items in
  let received = ref 0 and arrivals = ref [] in
  (* Waits up to [timeout_s] for an answer, reads and timestamps what
     arrived; false once the server closed the connection. *)
  let poll timeout_s =
    match Unix.select [ c.fd ] [] [] timeout_s with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
    | [], _, _ -> true
    | _ ->
        read_some c
        &&
        let t = now_ns () in
        let rec drain () =
          match Framing.next c.dec with
          | Some (Framing.Frame f) ->
              arrivals := (t, f) :: !arrivals;
              incr received;
              drain ()
          | Some (Framing.Oversized _) | None -> true
        in
        drain ()
  in
  let t_start = Int64.add (now_ns ()) 5_000_000L in
  let due i = Int64.add t_start (Int64.of_float (items.(i).due_s *. 1e9)) in
  let lag = Array.make n 0.0 in
  let in_flight = Array.make n 0 in
  let peak = ref 0 in
  (try
     for i = 0 to n - 1 do
       let d = due i in
       let rec wait () =
         let ahead = Int64.sub d (now_ns ()) in
         if Int64.compare ahead 0L > 0 then
           if poll (Int64.to_float ahead /. 1e9) then wait ()
           else raise (Transport "connection closed by server")
       in
       wait ();
       lag.(i) <- Int64.to_float (Int64.sub (now_ns ()) d) /. 1e6;
       send_request c ~id:(string_of_int i) items.(i).req;
       let q = i + 1 - !received in
       in_flight.(i) <- q;
       if q > !peak then peak := q
     done;
     let give_up = Int64.add (now_ns ()) 10_000_000_000L in
     while !received < n && Int64.compare (now_ns ()) give_up < 0 do
       if not (poll 0.05) then raise (Transport "connection closed by server")
     done
   with Transport msg -> note o "transport: %s" msg);
  let answered = Hashtbl.create n in
  let last = ref t_start in
  List.iter
    (fun (t, f) ->
      if Int64.compare t !last > 0 then last := t;
      match Option.bind (Result.to_option (Json.parse_result f)) (Json.member "id") with
      | Some (Json.String id) -> (
          match int_of_string_opt id with
          | Some i when i >= 0 && i < n -> Hashtbl.replace answered i (t, f)
          | _ -> wrong o "answer with unknown id %s" id)
      | _ -> wrong o "answer without an id")
    !arrivals;
  let answers = new_tally () in
  for i = 0 to n - 1 do
    let answer = Hashtbl.find_opt answered i in
    let ms =
      match answer with
      | Some (t, _) -> Int64.to_float (Int64.sub t (due i)) /. 1e6
      | None -> float_of_int Gen.timeout_ms
    in
    judge o answers ~id:(string_of_int i) items.(i) ~ms (Option.map snd answer)
  done;
  (* Validity of the open loop: the sender must keep to its schedule,
     and the backlog must not keep growing over the run. *)
  let lags = Array.to_list lag in
  let flags = ref [] in
  let lag_p50 = percentile lags 0.5 and lag_p99 = percentile lags 0.99 in
  if lag_p50 > 1.0 || lag_p99 > 50.0 then
    flags :=
      Printf.sprintf "sender fell behind: lag p50 %.2f ms, p99 %.2f ms" lag_p50 lag_p99 :: !flags;
  let decile = Stdlib.max 1 (n / 10) in
  let mean_q lo = mean (List.init decile (fun j -> float_of_int in_flight.(lo + j))) in
  let first_q = mean_q 0 and last_q = mean_q (n - decile) in
  if last_q > (4.0 *. first_q) +. 8.0 then
    flags := Printf.sprintf "backlog kept growing: in flight %.1f -> %.1f" first_q last_q :: !flags;
  {
    answers;
    wall_s = Int64.to_float (Int64.sub !last t_start) /. 1e9;
    lag_ms = lags;
    peak_in_flight = !peak;
    flags = !flags;
  }

let inputs_of ~workload ~seconds rng =
  match workload with
  | `Distinct -> distinct_inputs rng
  | `Repeat -> repeat_inputs ~rate:repeat_rate_per_s ~seconds rng

(* Set-up, then the measured phase; also returns the deltas of the
   cache counters over the measured phase alone. *)
let measure_live o inputs ~open_loop:is_open ~seconds =
  let setup, server, c = set_up o inputs in
  let names = [ "serve.cache_hits"; "serve.cache_misses"; "serve.cache_evictions" ] in
  let before = List.map counter_value names in
  let live =
    Fun.protect
      ~finally:(fun () ->
        close c;
        Server.stop server)
      (fun () -> if is_open then open_loop o inputs c else closed_loop o inputs c ~seconds)
  in
  let counts = List.map2 (fun name b -> counter_value name - b) names before in
  List.iter (fun f -> note o "FLAG open loop: %s" f) live.flags;
  (setup, live, counts)

let end_to_end ~workload ~seconds ~seed =
  let o = outcome () in
  let rng = Rng.create ~seed in
  let inputs = inputs_of ~workload ~seconds rng in
  let setup, live, _ = measure_live o inputs ~open_loop:false ~seconds in
  let n = List.length live.answers.lat in
  Printf.printf "latency ms over %d requests: %s\n" n
    (String.concat ", "
       (List.map
          (fun q -> Printf.sprintf "p%g %.3f" (100.0 *. q) (percentile live.answers.lat q))
          [ 0.1; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ]));
  let metrics =
    [
      metric ~samples:(List.length setup) "setup_s" "s" (median setup);
      metric ~samples:n "latency_p50_ms" "ms" (percentile live.answers.lat 0.5);
      metric ~samples:live.answers.successes "throughput_per_s" "1/s"
        (float_of_int live.answers.successes /. live.wall_s);
      metric "peak_rss_mb" "MiB" (peak_rss_mb ());
    ]
  in
  (o, metrics)

(* ---- traced replay: each layer of the request path -------------------------- *)

(* Chain_problem from validated request params, field for field as the
   engine reads them. *)
let build_problem params =
  let num name j =
    Option.value ~default:0.0 (Option.bind (Json.member name j) Json.to_float)
  in
  let tasks = Option.value ~default:[] (Option.bind (Json.member "tasks" params) Json.to_list) in
  let tasks =
    List.mapi
      (fun i t ->
        Task.make ~id:i ~work:(num "work" t) ~checkpoint_cost:(num "checkpoint" t)
          ~recovery_cost:(num "recovery" t) ())
      tasks
  in
  Chain_problem.make ~downtime:(num "downtime" params)
    ~initial_recovery:(num "initial_recovery" params) ~lambda:(num "lambda" params) tasks

type probes = {
  decode : probe;
  parse : probe;
  validate : probe;
  build : probe;
  key : probe;
  find : probe;
  store : probe;
  certificate : probe;
  solve : probe;
  encode : probe;
  fencode : probe;
  handle : probe;
  mutable self_ns : float list;
  mutable path_ns : float list;  (** decode + parse + validate + handle + encode. *)
  mutable transitions : int;
  mutable solved_tasks : int;
}

let new_probes () =
  {
    decode = probe ();
    parse = probe ();
    validate = probe ();
    build = probe ();
    key = probe ();
    find = probe ();
    store = probe ();
    certificate = probe ();
    solve = probe ();
    encode = probe ();
    fencode = probe ();
    handle = probe ();
    self_ns = [];
    path_ns = [];
    transitions = 0;
    solved_tasks = 0;
  }

let last p = List.hd p.ns

(* Replays [frames] in order through every layer on a fresh plan cache,
   then through Engine.handle on a fresh engine: both see the same
   sequence, hence the same cache states, as the live server. The two
   passes are separate so neither runs on caches the other warmed. *)
let replay ~workload ~cache_capacity frames =
  let p = new_probes () in
  let cache = Plan_cache.create ~capacity:cache_capacity in
  let parsed =
    List.map
      (fun (id, frame) ->
        let base = [ ("workload", workload); ("request", id) ] in
        Span.with_ ~name:"replay.request" ~args:base (fun () ->
            let dec = Framing.decoder () in
            let payload =
              layer p.decode ~name:"framing.decode" ~args:base (fun () ->
                  Framing.feed dec frame;
                  match Framing.next dec with
                  | Some (Framing.Frame f) -> f
                  | _ -> failwith "replay: frame did not decode")
            in
            let json = layer p.parse ~name:"json.parse" ~args:base (fun () -> Json.parse payload) in
            let request =
              match
                layer p.validate ~name:"protocol.validate" ~args:base (fun () ->
                    Protocol.parse_request json)
              with
              | Ok r -> r
              | Error e -> failwith ("replay: invalid request: " ^ e.Protocol.message)
            in
            let problem =
              layer p.build ~name:"chain_problem.build" ~args:base (fun () ->
                  build_problem request.Protocol.params)
            in
            let args = ("n", string_of_int (Chain_problem.size problem)) :: base in
            ignore (layer p.key ~name:"plan_cache.key" ~args (fun () -> Plan_cache.canonical_key problem));
            let inner = ref 0.0 in
            let checkpoints, makespan, tag =
              match layer p.find ~name:"plan_cache.find" ~args (fun () -> Plan_cache.find cache problem) with
              | Some hit ->
                  inner := last p.find;
                  (hit.Plan_cache.checkpoints_after, hit.Plan_cache.expected_makespan, "hit")
              | None ->
                  ignore
                    (layer p.certificate ~name:"segment_cost.certificate" ~args (fun () ->
                         Segment_cost.supports_monotone_dc (Chain_problem.kernel problem)));
                  let t0 = counter_value "dp.smawk_transitions" in
                  let s = layer p.solve ~name:"chain_dp.solve" ~args (fun () -> Chain_dp.solve_smawk problem) in
                  p.transitions <- p.transitions + counter_value "dp.smawk_transitions" - t0;
                  p.solved_tasks <- p.solved_tasks + Chain_problem.size problem;
                  layer p.store ~name:"plan_cache.store" ~args (fun () -> Plan_cache.store cache problem s);
                  inner := last p.find +. last p.solve +. last p.store;
                  ( Schedule.checkpoint_indices s.Chain_dp.schedule,
                    s.Chain_dp.expected_makespan,
                    "miss" )
            in
            inner := !inner +. last p.build;
            let response =
              Protocol.ok_response ~id:request.Protocol.id ~cache:tag
                (Json.Obj
                   [
                     ("n", Json.Number (float_of_int (Chain_problem.size problem)));
                     ("expected_makespan", Json.Number makespan);
                     ("checkpoints_after", Json.List (List.map (fun c -> Json.Number (float_of_int c)) checkpoints));
                   ])
            in
            let text = layer p.encode ~name:"json.encode" ~args (fun () -> Json.to_string response) in
            ignore (layer p.fencode ~name:"framing.encode" ~args (fun () -> Framing.encode text));
            (id, payload, !inner, last p.decode +. last p.parse +. last p.validate +. last p.encode)))
      frames
  in
  let engine = Engine.create ~cache_capacity in
  List.iter
    (fun (id, payload, inner, outside) ->
      let args = [ ("workload", workload); ("request", id) ] in
      (* Parsed again here rather than kept from the first pass: holding
         every request tree alive would tax this pass's collections. *)
      let request = Result.get_ok (Protocol.parse_request (Json.parse payload)) in
      ignore (layer p.handle ~name:"engine.handle" ~args (fun () -> Engine.handle engine request));
      p.self_ns <- (last p.handle -. inner) :: p.self_ns;
      p.path_ns <- (last p.handle +. outside) :: p.path_ns)
    parsed;
  p

(* What one benchmark span costs, measured on a no-op: the tracing
   overhead of the replay is this cost times the spans it recorded. *)
let span_cost_ns () =
  let calls = 100_000 in
  let p = probe () in
  let time () =
    let t0 = now_ns () in
    for _ = 1 to calls do
      p.ns <- [];
      p.words <- [];
      layer p ~name:"noop" ~args:[] ignore
    done;
    Int64.to_float (Int64.sub (now_ns ()) t0) /. float_of_int calls
  in
  let was = Span.enabled () in
  Span.set_enabled false;
  let off = time () in
  Span.set_enabled true;
  let on = time () in
  Span.set_enabled was;
  Span.reset ();
  on -. off

let replay_limit = 600

(* Per-layer metrics of the serving path, with spans on (the library's
   serve.* spans included): the end-to-end closed loop again, for the
   cache counts and the share of latency outside the engine; the open
   loop; then the replay. [small] is the probe run on the other
   workloads. *)
let layers ~workload ~seconds ~seed ~small =
  let o = outcome () in
  (* First, while no other span is recorded: it resets the buffers. *)
  let span_ns = span_cost_ns () in
  let rng = Rng.create ~seed in
  let inputs =
    if small then distinct_inputs ~pool:64 ~lo:50 ~hi:500 rng
    else inputs_of ~workload ~seconds rng
  in
  let name = match workload with `Distinct -> "serve-distinct" | `Repeat -> "serve-repeat" in
  (* The closed loop of the end-to-end run, now with spans on. *)
  let _setup, live, counts = measure_live o inputs ~open_loop:false ~seconds:(if small then 1.0 else seconds) in
  let hits, misses, evictions =
    match counts with [ h; m; e ] -> (h, m, e) | _ -> assert false
  in
  (* The open loop at the fixed rate: serve-repeat's own requests, or a
     2 s repeat-style probe on the other workloads. *)
  let open_inputs =
    if workload = `Repeat && not small then inputs
    else repeat_inputs ~rate:repeat_rate_per_s ~seconds:2.0 (Rng.substream rng "open-probe")
  in
  let _, opened, _ = measure_live o open_inputs ~open_loop:true ~seconds in
  let sequence =
    let warm = Array.to_list (Array.mapi (fun i r -> (Printf.sprintf "w%d" i, r)) inputs.warmup) in
    let count = Stdlib.min replay_limit (List.length live.answers.lat) in
    let items = inputs.items in
    let measured =
      List.init count (fun i -> (string_of_int i, items.(i mod Array.length items).req))
    in
    List.map (fun (id, req) -> (id, Gen.frame ~id req)) (warm @ measured)
  in
  let spans0 = List.length (Span.records ()) in
  let t_replay = now_ns () in
  let p = replay ~workload:name ~cache_capacity:inputs.cache_capacity sequence in
  let replay_ns = Int64.to_float (Int64.sub (now_ns ()) t_replay) in
  let spans = List.length (Span.records ()) - spans0 in
  let requests = List.length sequence in
  let or0 pr f = if pr.ns = [] then 0.0 else f pr in
  let code c = float_of_int (try List.assoc c opened.answers.codes with Not_found -> 0) in
  let live_p50 = percentile live.answers.lat 0.5 in
  ( o,
    [
      metric ~samples:requests "framing.decode_us" "us" (median_us p.decode);
      metric ~samples:requests "framing.encode_us" "us" (median_us p.fencode);
      metric ~samples:requests "json.parse_us" "us" (median_us p.parse);
      metric ~samples:requests "json.parse_words" "words" (median_words p.parse);
      metric ~samples:requests "protocol.validate_us" "us" (median_us p.validate);
      metric ~samples:requests "chain_problem.build_us" "us" (median_us p.build);
      metric ~samples:requests "plan_cache.key_us" "us" (median_us p.key);
      metric ~samples:requests "plan_cache.key_words" "words" (median_words p.key);
      metric ~samples:requests "plan_cache.find_us" "us" (median_us p.find);
      metric ~samples:(List.length p.store.ns) "plan_cache.store_us" "us" (or0 p.store median_us);
      metric ~samples:(hits + misses) "plan_cache.hit_share" "ratio"
        (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses));
      metric "plan_cache.evictions" "count" (float_of_int evictions);
      metric "plan_cache.rescaled_inexact" "count" (float_of_int (live.answers.inexact + opened.answers.inexact));
      metric ~samples:(List.length p.certificate.ns) "segment_cost.certificate_us" "us"
        (or0 p.certificate median_us);
      metric ~samples:(List.length p.solve.ns) "chain_dp.solve_us" "us" (or0 p.solve median_us);
      metric ~samples:(List.length p.solve.ns) "chain_dp.request_transitions_per_task" "count"
        (if p.solved_tasks = 0 then 0.0
         else float_of_int p.transitions /. float_of_int p.solved_tasks);
      metric ~samples:requests "json.encode_us" "us" (median_us p.encode);
      metric ~samples:requests "engine.handle_us" "us" (median_us p.handle);
      metric ~samples:requests "engine.handle_words" "words" (median_words p.handle);
      metric ~samples:requests "engine.self_us" "us" (median p.self_ns /. 1e3);
      metric ~samples:requests "server.outside_engine_ms" "ms" (live_p50 -. (median p.path_ns /. 1e6));
      metric "serve.queue_full" "count" (code "queue_full");
      metric "serve.deadline_exceeded" "count" (code "deadline_exceeded");
      metric ~samples:(List.length opened.lag_ms) "generator.lag_p50_ms" "ms" (percentile opened.lag_ms 0.5);
      metric ~samples:(List.length opened.lag_ms) "generator.lag_p99_ms" "ms" (percentile opened.lag_ms 0.99);
      metric "generator.peak_in_flight" "count" (float_of_int opened.peak_in_flight);
      metric ~samples:(List.length opened.answers.lat) "serve.open_loop_p50_ms" "ms"
        (percentile opened.answers.lat 0.5);
      metric ~samples:(List.length opened.answers.lat) "serve.open_loop_p99_ms" "ms"
        (percentile opened.answers.lat 0.99);
      metric ~samples:(List.length live.answers.lat) "trace.live_latency_p50_ms" "ms" live_p50;
      metric ~samples:(List.length live.answers.lat) "serve.latency_p99_ms" "ms"
        (percentile live.answers.lat 0.99);
      metric "trace.span_cost_ns" "ns" span_ns;
      metric ~samples:spans "trace.replay_overhead_share" "ratio"
        (float_of_int spans *. span_ns /. (replay_ns -. (float_of_int spans *. span_ns)));
    ] )
