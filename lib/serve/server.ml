module Json = Ckpt_json.Json
module Metrics = Ckpt_obs.Metrics
module Clock = Ckpt_obs.Clock

(* Wall-clock-dependent by nature (load, scheduling), so Timing kind:
   the engine-metric drift gate must not see them. *)
let connections_total = Metrics.counter ~kind:Metrics.Timing "serve.connections"
let rejects_total = Metrics.counter ~kind:Metrics.Timing "serve.rejects"
let timeouts_total = Metrics.counter ~kind:Metrics.Timing "serve.timeouts"

let write_failures_total =
  Metrics.counter ~kind:Metrics.Timing "serve.write_failures"

let queue_depth = Metrics.gauge ~kind:Metrics.Timing "serve.queue_depth"

let latency_ms =
  Metrics.histogram ~kind:Metrics.Timing "serve.latency_ms"
    ~buckets:[| 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0 |]

type config = {
  host : string;
  port : int;
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  max_frame : int;
  retry_after_ms : int;
  worker_hook : (unit -> unit) option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 2;
    queue_capacity = 64;
    cache_capacity = 1024;
    max_frame = Protocol.Framing.default_max_frame;
    retry_after_ms = 25;
    worker_hook = None;
  }

type conn = {
  fd : Net.fd;
  decoder : Protocol.Framing.decoder;
  write_lock : Mutex.t;
      (* Workers finish out of order; frames must not interleave. *)
  mutable alive : bool;
}

type item = { conn : conn; request : Protocol.request; accepted_ns : int64 }

type t = {
  config : config;
  engine : Engine.t;
  listener : Net.fd;
  actual_port : int;
  wake_r : Net.fd;
  wake_w : Net.fd;
  queue : item Bounded_queue.t;
  stop_flag : bool Atomic.t;
  pending_count : int Atomic.t;
  conns : (conn list ref[@lint.domain_safe "mutex-held: guarded by conns_lock"]);
  conns_lock : Mutex.t;
  mutable worker_domains : unit Domain.t list;
  mutable loop_domain : unit Domain.t option;
  stop_lock : Mutex.t;
  mutable stopped : bool;
}

let send conn payload =
  let framed = Protocol.Framing.encode payload in
  let ok =
    Mutex.protect conn.write_lock (fun () ->
        conn.alive && Net.write_all conn.fd framed)
  in
  if not ok then begin
    Metrics.incr write_failures_total;
    conn.alive <- false
  end

let send_json conn json = send conn (Json.to_string json)

(* --- worker domains --------------------------------------------------- *)

let answer t { conn; request; accepted_ns } =
  (match t.config.worker_hook with Some hook -> hook () | None -> ());
  let elapsed_ms = Clock.elapsed_s accepted_ns *. 1e3 in
  let response =
    match request.Protocol.timeout_ms with
    | Some budget when elapsed_ms > float_of_int budget ->
        Metrics.incr timeouts_total;
        Protocol.error_response ~id:(Some request.Protocol.id)
          (Protocol.deadline_exceeded
             (Printf.sprintf "deadline of %d ms passed before processing" budget))
    | _ -> Engine.handle t.engine request
  in
  send_json conn response;
  Metrics.observe latency_ms (Clock.elapsed_s accepted_ns *. 1e3)

let worker_loop t () =
  let rec go () =
    match Bounded_queue.pop t.queue with
    | None -> ()
    | Some item ->
        (try answer t item
         with _ ->
           (* answer never raises through Engine.handle; belt and braces
              so a worker domain cannot die and strand the queue. *)
           ());
        Atomic.decr t.pending_count;
        go ()
  in
  go ()

(* --- event loop ------------------------------------------------------- *)

let reject conn ~id error =
  Metrics.incr rejects_total;
  send_json conn (Protocol.error_response ~id error)

let handle_frame t conn payload =
  match Json.parse_result payload with
  | Error msg ->
      send_json conn
        (Protocol.error_response ~id:None (Protocol.parse_error msg))
  | Ok json -> (
      match Protocol.parse_request json with
      | Error error -> send_json conn (Protocol.error_response ~id:None error)
      | Ok request ->
          let id = Some request.Protocol.id in
          if Atomic.get t.stop_flag then
            reject conn ~id (Protocol.shutting_down ())
          else begin
            let item = { conn; request; accepted_ns = Clock.now_ns () } in
            Atomic.incr t.pending_count;
            match Bounded_queue.try_push t.queue item with
            | Bounded_queue.Pushed ->
                Metrics.set queue_depth (float_of_int (Bounded_queue.length t.queue))
            | Bounded_queue.Full ->
                Atomic.decr t.pending_count;
                reject conn ~id
                  (Protocol.queue_full ~retry_after_ms:t.config.retry_after_ms)
            | Bounded_queue.Closed ->
                Atomic.decr t.pending_count;
                reject conn ~id (Protocol.shutting_down ())
          end)

let handle_readable t conn =
  match Net.read_chunk conn.fd with
  | None -> conn.alive <- false
  | Some "" -> ()
  | Some chunk ->
      Protocol.Framing.feed conn.decoder chunk;
      let rec pump () =
        match Protocol.Framing.next conn.decoder with
        | None -> ()
        | Some (Protocol.Framing.Frame payload) ->
            handle_frame t conn payload;
            if conn.alive then pump ()
        | Some (Protocol.Framing.Oversized size) ->
            send_json conn
              (Protocol.error_response ~id:None
                 (Protocol.oversized_frame ~size ~max_frame:t.config.max_frame));
            (* The stream is desynchronized; nothing sane can follow. *)
            conn.alive <- false
      in
      pump ()

let event_loop t () =
  let rec go conns =
    if Atomic.get t.stop_flag then
      Mutex.protect t.conns_lock (fun () -> t.conns := conns)
    else begin
      let fds = t.wake_r :: t.listener :: List.map (fun c -> c.fd) conns in
      let readable = Net.select_read fds ~timeout_s:0.5 in
      let is_ready fd = List.exists (Net.equal fd) readable in
      if is_ready t.wake_r then Net.drain t.wake_r;
      let conns =
        if is_ready t.listener then begin
          let rec accept_all acc =
            match Net.accept t.listener with
            | None -> acc
            | Some fd ->
                Metrics.incr connections_total;
                let conn =
                  {
                    fd;
                    decoder =
                      Protocol.Framing.decoder ~max_frame:t.config.max_frame ();
                    write_lock = Mutex.create ();
                    alive = true;
                  }
                in
                accept_all (conn :: acc)
          in
          accept_all conns
        end
        else conns
      in
      List.iter (fun conn -> if is_ready conn.fd then handle_readable t conn) conns;
      let live, dead = List.partition (fun c -> c.alive) conns in
      List.iter
        (fun conn ->
          Mutex.protect conn.write_lock (fun () -> Net.close conn.fd))
        dead;
      go live
    end
  in
  go []

(* --- lifecycle -------------------------------------------------------- *)

let start config =
  if config.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  Net.ignore_sigpipe ();
  let listener, actual_port = Net.listen ~host:config.host ~port:config.port in
  let wake_r, wake_w = Net.pipe () in
  let t =
    {
      config;
      engine = Engine.create ~cache_capacity:config.cache_capacity;
      listener;
      actual_port;
      wake_r;
      wake_w;
      queue = Bounded_queue.create ~capacity:config.queue_capacity;
      stop_flag = Atomic.make false;
      pending_count = Atomic.make 0;
      conns = ref [];
      conns_lock = Mutex.create ();
      worker_domains = [];
      loop_domain = None;
      stop_lock = Mutex.create ();
      stopped = false;
    }
  in
  t.worker_domains <-
    List.init config.workers (fun _ -> Domain.spawn (worker_loop t));
  t.loop_domain <- Some (Domain.spawn (event_loop t));
  t

let port t = t.actual_port

let pending t = Atomic.get t.pending_count

let stop t =
  let already = Mutex.protect t.stop_lock (fun () ->
      let was = t.stopped in
      t.stopped <- true;
      was)
  in
  if not already then begin
    (* 1. Stop the intake: flag + wake, event loop parks its conns. *)
    Atomic.set t.stop_flag true;
    Net.notify t.wake_w;
    (match t.loop_domain with Some d -> Domain.join d | None -> ());
    Net.close t.listener;
    (* 2. Drain: closing the queue lets workers finish every accepted
       item, then pop returns None and they exit. *)
    Bounded_queue.close t.queue;
    List.iter Domain.join t.worker_domains;
    (* 3. Only now tear the connections down — every response is out. *)
    Mutex.protect t.conns_lock (fun () ->
        List.iter (fun conn -> Net.close conn.fd) !(t.conns);
        t.conns := []);
    Net.close t.wake_r;
    Net.close t.wake_w
  end
