module Task = Ckpt_dag.Task
module Metrics = Ckpt_obs.Metrics

(* Engine metrics, emitted into the caller's current collector: under
   the parallel pool each run's events land in its batch's collector,
   so the report-time totals are bit-identical for any domain count
   (see Ckpt_obs.Metrics on the merge order). *)
let m_failures = Metrics.counter "sim.failures"
let m_checkpoints = Metrics.counter "sim.checkpoints"

(* Productive work re-executed because of failures: the work elapsed in
   an interrupted work phase, plus the whole segment's work when the
   checkpoint that would have made it durable is interrupted. Checkpoint
   and recovery time are not work; they land in sim.lost_time. *)
let m_lost_work = Metrics.sum "sim.lost_work"

(* Wall-clock wiped out by failures: the elapsed portion of every
   interrupted work/checkpoint/recovery window, measured from the last
   commit point (attempt or recovery start). Downtime windows are not
   included — they are sim.failures * D by construction. *)
let m_lost_time = Metrics.sum "sim.lost_time"

let m_failures_per_run =
  Metrics.histogram "sim.failures_per_run"
    ~buckets:[| 0.; 1.; 2.; 5.; 10.; 20.; 50.; 100. |]

type segment = { work : float; checkpoint : float; recovery : float }

let segment ~work ~checkpoint ~recovery =
  (* [not (x >= 0)] also rejects NaN, which [x < 0] would admit. *)
  if not (work >= 0.0 && checkpoint >= 0.0 && recovery >= 0.0) then
    invalid_arg "Sim_run.segment: durations must be non-negative";
  { work; checkpoint; recovery }

exception Livelock of int

let default_max_failures = 10_000_000

type run_stats = { makespan : float; failures : int }

type phase = Work_phase | Checkpoint_phase | Downtime_phase | Recovery_phase

type event = {
  phase : phase;
  segment : int;
  start : float;
  finish : float;
  interrupted : bool;
}

(* One run's fixed inputs and its failure count. The hooks are options
   so that a run without observers builds no event and calls nothing.
   The clock never lives here, where every update would box it: the
   segment executor passes it as an argument, the chain executor keeps
   it in local refs that no closure captures (so they stay unboxed).
   [last_failure] is read only by the chain executor's policy
   context. *)
type run_state = {
  max_failures : int;
  downtime : float;
  next_failure : float -> float;
  emit : (event -> unit) option;
  on_phase : (phase -> float -> unit) option;
  mutable failures : int;
  mutable last_failure : float;
}

let run_state ~max_failures ~emit ~on_phase ~downtime ~next_failure =
  { max_failures; downtime; next_failure; emit; on_phase; failures = 0; last_failure = 0.0 }

let[@inline] log_event st phase segment start finish interrupted =
  match st.emit with
  | None -> ()
  | Some emit -> emit { phase; segment; start; finish; interrupted }

let[@inline] enter st phase t = match st.on_phase with None -> () | Some f -> f phase t

let count_failure st =
  st.failures <- st.failures + 1;
  Metrics.incr m_failures;
  if st.failures > st.max_failures then raise (Livelock st.failures)

(* A NaN failure time would silently read as "no failure" under every
   [<] comparison below, turning a broken injector into an invisible
   optimistic engine; fail fast instead. *)
let query st t =
  let fail = st.next_failure t in
  if Float.is_nan fail then invalid_arg "Sim_run: next_failure returned NaN";
  fail

(* A recovery of length [recovery] from [t0]: failures restart
   downtime + recovery; returns the completion time. Events carry
   [segment], the index the recovery will resume. The executors recurse
   on the time rather than keeping it in a ref, so each failure query
   passes on the time value it was given instead of boxing a copy. *)
let rec run_recovery st ~segment ~recovery t0 =
  enter st Recovery_phase t0;
  let finish = t0 +. recovery in
  let fail = query st t0 in
  if fail >= finish then begin
    if recovery > 0.0 then log_event st Recovery_phase segment t0 finish false;
    finish
  end
  else begin
    count_failure st;
    Metrics.add m_lost_time (fail -. t0);
    st.last_failure <- fail;
    log_event st Recovery_phase segment t0 fail true;
    enter st Downtime_phase fail;
    log_event st Downtime_phase segment fail (fail +. st.downtime) false;
    run_recovery st ~segment ~recovery (fail +. st.downtime)
  end

(* The downtime that follows a failure at [fail], then the recovery. *)
let recover st ~segment ~recovery fail =
  enter st Downtime_phase fail;
  log_event st Downtime_phase segment fail (fail +. st.downtime) false;
  run_recovery st ~segment ~recovery (fail +. st.downtime)

(* An attempt at segment [index] from [t0], retried until its
   checkpoint commits; returns the commit time. *)
let rec run_segment st ~index seg t0 =
  let work_end = t0 +. seg.work in
  let ckpt_end = work_end +. seg.checkpoint in
  (* Each phase makes its own failure query (as the chain executor
     always has), so phase-aware injectors see the right phase. The
     split is behaviour-preserving for the stream sources: a pending
     failure strictly later than the query time is stable across
     non-decreasing queries. *)
  let fail =
    if seg.work > 0.0 then begin
      enter st Work_phase t0;
      query st t0
    end
    else infinity
  in
  (* A failure at the exact work/checkpoint boundary interrupts the work
     phase — unless the whole attempt completes there (zero
     checkpoint), in which case completion wins. *)
  if seg.work > 0.0 && fail < ckpt_end && fail <= work_end then begin
    count_failure st;
    (* Boxed once for both sums (a plain float let is re-boxed at each
       use). *)
    let lost = Sys.opaque_identity (fail -. t0) in
    Metrics.add m_lost_work lost;
    Metrics.add m_lost_time lost;
    log_event st Work_phase index t0 fail true;
    run_segment st ~index seg (recover st ~segment:index ~recovery:seg.recovery fail)
  end
  else begin
    if seg.work > 0.0 then log_event st Work_phase index t0 work_end false;
    if seg.checkpoint > 0.0 then begin
      enter st Checkpoint_phase work_end;
      let fail = query st work_end in
      if fail < ckpt_end then begin
        count_failure st;
        (* The checkpoint failed: the segment's work is lost in full,
           but the checkpoint time elapsed is lost *time*, not lost
           work. *)
        Metrics.add m_lost_work seg.work;
        Metrics.add m_lost_time (fail -. t0);
        log_event st Checkpoint_phase index work_end fail true;
        run_segment st ~index seg (recover st ~segment:index ~recovery:seg.recovery fail)
      end
      else begin
        log_event st Checkpoint_phase index work_end ckpt_end false;
        Metrics.incr m_checkpoints;
        ckpt_end
      end
    end
    else begin
      Metrics.incr m_checkpoints;
      work_end
    end
  end

let rec run_from st index t = function
  | [] -> t
  | seg :: rest -> run_from st (index + 1) (run_segment st ~index seg t) rest

(* Runs the segments from time 0 and returns the makespan; the failure
   count is left in [st]. *)
let execute_segments st segments =
  if not (st.downtime >= 0.0) then invalid_arg "Sim_run.run_segments: negative downtime";
  let makespan = run_from st 0 0.0 segments in
  Metrics.observe m_failures_per_run (float_of_int st.failures);
  makespan

let execute_stats ~max_failures ~emit ~on_phase ~downtime ~next_failure segments =
  let st = run_state ~max_failures ~emit ~on_phase ~downtime ~next_failure in
  let makespan = execute_segments st segments in
  { makespan; failures = st.failures }

let run_segments_emitting ?(max_failures = default_max_failures) ?on_phase ~emit ~downtime
    ~next_failure segments =
  execute_stats ~max_failures ~emit:(Some emit) ~on_phase ~downtime ~next_failure segments

let run_segments_stats ?(max_failures = default_max_failures) ?on_phase ~downtime
    ~next_failure segments =
  execute_stats ~max_failures ~emit:None ~on_phase ~downtime ~next_failure segments

let run_segments ?(max_failures = default_max_failures) ~downtime ~next_failure segments =
  execute_segments
    (run_state ~max_failures ~emit:None ~on_phase:None ~downtime ~next_failure)
    segments

let run_segments_traced ?max_failures ~downtime ~next_failure segments =
  let events = ref [] in
  let emit e = events := e :: !events in
  let stats = run_segments_emitting ?max_failures ~emit ~downtime ~next_failure segments in
  (stats, List.rev !events)

type chain_context = {
  task_index : int;
  last_checkpoint : int;
  now : float;
  since_last_failure : float;
  work_since_checkpoint : float;
}

(* A failure at [fail] rolls the chain back to the task after
   [last_ckpt]; returns the time the recovery completes. Downtime and
   recovery events carry the index of the task execution resumes with,
   mirroring the segment executor's convention (the recovery
   re-establishes that task's starting state). *)
let rollback st tasks ~initial_recovery ~last_ckpt ~lost_work ~lost_time fail =
  count_failure st;
  Metrics.add m_lost_work lost_work;
  Metrics.add m_lost_time lost_time;
  st.last_failure <- fail;
  let recovery =
    if last_ckpt < 0 then initial_recovery else tasks.(last_ckpt).Task.recovery_cost
  in
  recover st ~segment:(last_ckpt + 1) ~recovery fail

let run_chain_policy_stats ?(max_failures = default_max_failures) ?emit ?on_phase
    ~initial_recovery ~downtime ~decide ~next_failure tasks =
  if not (initial_recovery >= 0.0) then
    invalid_arg "Sim_run.run_chain_policy: negative initial recovery";
  if not (downtime >= 0.0) then invalid_arg "Sim_run.run_chain_policy: negative downtime";
  let st = run_state ~max_failures ~emit ~on_phase ~downtime ~next_failure in
  let n = Array.length tasks in
  (* Tasks [!i..] remain to run from time [!t], with [!acc_work] work
     accumulated since the checkpoint after task [!last_ckpt]. Tasks
     run back to back after a commit point (recovery end or checkpoint
     end), so the wall-clock elapsed since that point is [!acc_work]
     plus the elapsed portion of the current phase. *)
  let t = ref 0.0 and last_ckpt = ref (-1) and i = ref 0 and acc_work = ref 0.0 in
  while !i < n do
    let task = tasks.(!i) and start = !t in
    let finish = start +. task.Task.work in
    enter st Work_phase start;
    let fail = query st start in
    if fail < finish then begin
      log_event st Work_phase !i start fail true;
      (* Everything elapsed since the commit point is work, so lost
         work and lost time coincide here. *)
      let lost = !acc_work +. (fail -. start) in
      t := rollback st tasks ~initial_recovery ~last_ckpt:!last_ckpt ~lost_work:lost
             ~lost_time:lost fail;
      i := !last_ckpt + 1;
      acc_work := 0.0
    end
    else begin
      log_event st Work_phase !i start finish false;
      let acc = !acc_work +. task.Task.work in
      let wants_checkpoint =
        !i = n - 1
        || decide
             {
               task_index = !i;
               last_checkpoint = !last_ckpt;
               now = finish;
               since_last_failure = finish -. st.last_failure;
               work_since_checkpoint = acc;
             }
      in
      if not wants_checkpoint then begin
        t := finish;
        i := !i + 1;
        acc_work := acc
      end
      else begin
        let ckpt_finish = finish +. task.Task.checkpoint_cost in
        let committed =
          if task.Task.checkpoint_cost > 0.0 then begin
            enter st Checkpoint_phase finish;
            let fail = query st finish in
            if fail < ckpt_finish then begin
              log_event st Checkpoint_phase !i finish fail true;
              (* Only the work since the last checkpoint is lost work;
                 the checkpoint time elapsed is lost time. *)
              t := rollback st tasks ~initial_recovery ~last_ckpt:!last_ckpt ~lost_work:acc
                     ~lost_time:(acc +. (fail -. finish)) fail;
              i := !last_ckpt + 1;
              acc_work := 0.0;
              false
            end
            else begin
              log_event st Checkpoint_phase !i finish ckpt_finish false;
              true
            end
          end
          else true
        in
        if committed then begin
          Metrics.incr m_checkpoints;
          t := ckpt_finish;
          last_ckpt := !i;
          i := !i + 1;
          acc_work := 0.0
        end
      end
    end
  done;
  Metrics.observe m_failures_per_run (float_of_int st.failures);
  { makespan = !t; failures = st.failures }

let run_chain_policy ?max_failures ?emit ?on_phase ~initial_recovery ~downtime ~decide
    ~next_failure tasks =
  (run_chain_policy_stats ?max_failures ?emit ?on_phase ~initial_recovery ~downtime
     ~decide ~next_failure tasks)
    .makespan
