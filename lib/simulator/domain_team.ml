(* Persistent team of worker domains: the compute pool behind
   Parallel_exec's Monte-Carlo campaigns (see the mli for the
   determinism contract). Workers are spawned once per team, park on a
   condition variable between rounds and are woken by a generation
   bump, so the campaigns of a process pay Domain.spawn once, not once
   per campaign or per round. A round may use only the first
   [participants] of them; the others wake, see they are not needed
   and park again. *)

type t = {
  domains : int;  (* total participants, including the calling domain *)
  mutable workers : unit Domain.t array;  (* the domains-1 spawned ones *)
  mutex : Mutex.t;
  wake : Condition.t;  (* workers park here between rounds *)
  round_done : Condition.t;  (* master parks here while workers drain *)
  mutable generation : int;  (* bumped per round; workers key off it *)
  mutable live : bool;
  mutable job : (participant:int -> int -> unit) option;
  mutable tasks : int;
  mutable participants : int;  (* of the current round, caller included *)
  next : int Atomic.t;  (* task claim cursor for the current round *)
  cancelled : bool Atomic.t;  (* a task raised: stop claiming *)
  mutable failure : exn option;  (* first exception, re-raised by run *)
  mutable finished : int;  (* participating workers done with the round *)
}

let default_domains () = Stdlib.min 8 (Domain.recommended_domain_count ())
let size t = t.domains

(* Claim-execute loop shared by master and workers. The claim order is
   racy by design; determinism comes from tasks writing disjoint state
   (the contract in the mli), never from claim order. *)
let claim_loop t ~participant fn tasks =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add t.next 1 in
    if i >= tasks || Atomic.get t.cancelled then continue := false
    else
      match fn ~participant i with
      | () -> ()
      | exception e ->
          Atomic.set t.cancelled true;
          Mutex.lock t.mutex;
          (match t.failure with None -> t.failure <- Some e | Some _ -> ());
          Mutex.unlock t.mutex;
          continue := false
  done

let rec worker_loop t ~participant last_gen =
  Mutex.lock t.mutex;
  while t.live && t.generation = last_gen do
    Condition.wait t.wake t.mutex
  done;
  let live = t.live in
  let gen = t.generation in
  let job = t.job in
  let tasks = t.tasks in
  let takes_part = participant < t.participants in
  Mutex.unlock t.mutex;
  if live then begin
    if takes_part then begin
      (match job with Some fn -> claim_loop t ~participant fn tasks | None -> ());
      Mutex.lock t.mutex;
      t.finished <- t.finished + 1;
      if t.finished = t.participants - 1 then Condition.broadcast t.round_done;
      Mutex.unlock t.mutex
    end;
    worker_loop t ~participant gen
  end

let shutdown t =
  Mutex.lock t.mutex;
  let was_live = t.live in
  t.live <- false;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  if was_live then begin
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let create ?domains () =
  let domains = match domains with Some d -> d | None -> default_domains () in
  if domains < 1 then invalid_arg "Domain_team.create: domains must be >= 1";
  let t =
    {
      domains;
      workers = [||];
      mutex = Mutex.create ();
      wake = Condition.create ();
      round_done = Condition.create ();
      generation = 0;
      live = true;
      job = None;
      tasks = 0;
      participants = domains;
      next = Atomic.make 0;
      cancelled = Atomic.make false;
      failure = None;
      finished = 0;
    }
  in
  (* A failed spawn (the runtime caps the number of live domains) must
     not strand the workers already spawned: park-forever domains would
     hold their slots and break every later team in the process. *)
  (try
     for participant = 1 to domains - 1 do
       let d = Domain.spawn (fun () -> worker_loop t ~participant 0) in
       t.workers <- Array.append t.workers [| d |]
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     shutdown t;
     Printexc.raise_with_backtrace e bt);
  t

let run t ?participants ~tasks fn =
  let participants = match participants with Some p -> p | None -> t.domains in
  if tasks < 0 then invalid_arg "Domain_team.run: negative task count";
  if participants < 1 || participants > t.domains then
    invalid_arg "Domain_team.run: participants must be in 1 .. size";
  if tasks > 0 then begin
    Mutex.lock t.mutex;
    if not t.live then begin
      Mutex.unlock t.mutex;
      invalid_arg "Domain_team.run: team already shut down"
    end;
    t.job <- Some fn;
    t.tasks <- tasks;
    t.participants <- participants;
    t.failure <- None;
    t.finished <- 0;
    Atomic.set t.next 0;
    Atomic.set t.cancelled false;
    t.generation <- t.generation + 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    (* The master participates: with domains = 1 this is the whole
       round and the code path is purely sequential. *)
    claim_loop t ~participant:0 fn tasks;
    Mutex.lock t.mutex;
    while t.finished < participants - 1 do
      Condition.wait t.round_done t.mutex
    done;
    t.job <- None;
    let failure = t.failure in
    Mutex.unlock t.mutex;
    match failure with None -> () | Some e -> raise e
  end
