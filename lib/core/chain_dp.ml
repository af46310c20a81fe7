type solution = { expected_makespan : float; schedule : Schedule.t }

module Metrics = Ckpt_obs.Metrics
module T = Dp_tables

(* Solver metrics: totals are deterministic for a given problem (and,
   under the parallel Monte-Carlo pool, for a given seed) whatever the
   domain count — integer counters merge commutatively. *)
let m_memo_hits = Metrics.counter "dp.memo_hits"
let m_memo_misses = Metrics.counter "dp.memo_misses"
let m_states = Metrics.counter "dp.states_expanded"
let m_transitions = Metrics.counter "dp.transitions"
let m_smawk_states = Metrics.counter "dp.smawk_states"
let m_smawk_transitions = Metrics.counter "dp.smawk_transitions"
let m_smawk_fallbacks = Metrics.counter "dp.smawk_fallbacks"

(* Shared post-processing: turn a table of "end of first segment"
   choices into a Schedule. The choice table is abstracted as a
   function so the Bigarray-backed solvers need no intermediate
   boxed-array copy. *)
let schedule_of_choice_fn problem choice =
  let n = Chain_problem.size problem in
  let placement = Array.make n false in
  let rec mark x =
    if x < n then begin
      let j = choice x in
      placement.(j) <- true;
      mark (j + 1)
    end
  in
  mark 0;
  Schedule.make problem placement

let schedule_of_choices problem choices =
  schedule_of_choice_fn problem (Array.get choices)

(* The exhaustive O(n²) sweep behind `solve` and `dp_values`.
   value.(x) = optimal expected time for the suffix x..n-1; choice.(x) =
   index of the last task of its first segment (leftmost argmin). Both
   live in flat Bigarray SoA tables (Dp_tables) so million-task solves
   stay off the OCaml heap; the transition cost goes through the
   precomputed Segment_cost tables, and bounds are established by the
   loop structure, so the inner loop carries no per-call validation. *)
let sweep problem =
  let n = Chain_problem.size problem in
  let kernel = Chain_problem.kernel problem in
  let value = T.floats (n + 1) in
  let choice = T.ints n in
  for x = n - 1 downto 0 do
    Metrics.incr m_states;
    Metrics.incr ~by:(n - x) m_transitions;
    let best = ref infinity and best_j = ref x in
    for j = x to n - 1 do
      let cur =
        Segment_cost.cost_unsafe kernel ~first:x ~last:j +. T.fget value (j + 1)
      in
      if cur < !best then begin
        best := cur;
        best_j := j
      end
    done;
    T.fset value x !best;
    T.iset choice x !best_j
  done;
  (value, choice)

let solve problem =
  let value, choice = sweep problem in
  {
    expected_makespan = T.fget value 0;
    schedule = schedule_of_choice_fn problem (T.iget choice);
  }

(* Faithful transcription of Algorithm 1 (DPMAKESPAN), with 0-based
   indices: DPMAKESPAN(x) treats tasks x..n-1 and returns the couple
   (optimal expectation, index of the task preceding the first
   checkpoint). Memoization makes each instance computed once. Kept on
   the reference segment-cost evaluation (fresh exp/expm1 per call) and
   on plain boxed tables, so it doubles as the correctness oracle for
   the Bigarray-backed solvers. *)
let solve_memoized problem =
  let n = Chain_problem.size problem in
  let kernel = Chain_problem.kernel problem in
  let memo : (float * int) option array = Array.make n None in
  let rec dpmakespan x =
    match memo.(x) with
    | Some result ->
        Metrics.incr m_memo_hits;
        result
    | None ->
        Metrics.incr m_memo_misses;
        Metrics.incr m_states;
        (* n − x segment evaluations: the initial no-further-checkpoint
           candidate plus the n − 1 − x loop iterations (just the base
           segment when x = n − 1) — the same count `solve` reports, and
           the observability test asserts the two stay equal. *)
        Metrics.incr ~by:(n - x) m_transitions;
        let result =
          if x = n - 1 then (Segment_cost.reference_cost kernel ~first:x ~last:x, x)
          else begin
            (* Initial candidate: no further checkpoint, one segment to
               the end (checkpointed after the final task). *)
            let best = ref (Segment_cost.reference_cost kernel ~first:x ~last:(n - 1)) in
            let num_task = ref (n - 1) in
            for j = x to n - 2 do
              let exp_succ, _ = dpmakespan (j + 1) in
              let cur = exp_succ +. Segment_cost.reference_cost kernel ~first:x ~last:j in
              if cur < !best then begin
                best := cur;
                num_task := j
              end
            done;
            (!best, !num_task)
          end
        in
        memo.(x) <- Some result;
        result
  in
  let expected_makespan, _ = dpmakespan 0 in
  let choice = Array.init n (fun x -> snd (dpmakespan x)) in
  { expected_makespan; schedule = schedule_of_choices problem choice }

let dp_values problem = T.to_float_array (fst (sweep problem))

(* --- SMAWK linear-transition solver --------------------------------- *)

(* Offline row minima of a totally monotone matrix [eval row col] over
   explicit index sets, O(rows + cols) evaluations (SMAWK). Writes this
   call's minimum for every row r of [rows] into loc_val.(r) and its
   leftmost argmin into loc_arg.(r) (indexed by global row id; the
   caller folds them into the global tables afterwards).

   Tie discipline, load-bearing for the bit-for-bit contract with
   `solve`: REDUCE pops a stacked column only when the new (larger)
   column is {e strictly} better at the stack-depth row — on an exact
   float tie the earlier column survives — and a column arriving at a
   full stack is dropped (it cannot be a leftmost minimum anywhere);
   INTERPOLATE scans its window left-to-right with strict <. Under the
   total-monotonicity certificate both rules preserve the leftmost
   argmin of every row exactly. *)
let rec smawk ~eval ~loc_val ~loc_arg rows cols =
  let nr = Array.length rows in
  if nr > 0 && Array.length cols > 0 then begin
    (* REDUCE: keep at most nr columns that can still carry a minimum. *)
    let nc0 = Array.length cols in
    let stack = Array.make nr 0 in
    let top = ref 0 in
    for ci = 0 to nc0 - 1 do
      let c = Array.unsafe_get cols ci in
      let continue = ref true in
      while !continue && !top > 0 do
        let r = Array.unsafe_get rows (!top - 1) in
        if eval r c < eval r (Array.unsafe_get stack (!top - 1)) then decr top
        else continue := false
      done;
      if !top < nr then begin
        Array.unsafe_set stack !top c;
        incr top
      end
    done;
    let cols = Array.sub stack 0 !top in
    let nc = !top in
    (* Recurse on the odd-position rows with the surviving columns,
       then interpolate the even-position rows: each minimum lies
       between the neighbouring odd rows' argmins (inclusive), and
       those argmins are members of [cols], so one monotone pointer
       covers all even rows in O(nr + nc). *)
    let odd = Array.init (nr / 2) (fun i -> rows.((2 * i) + 1)) in
    smawk ~eval ~loc_val ~loc_arg odd cols;
    let k = ref 0 in
    let i = ref 0 in
    while !i < nr do
      let r = rows.(!i) in
      let stop_col = if !i + 1 < nr then loc_arg.(rows.(!i + 1)) else cols.(nc - 1) in
      let best = ref (eval r cols.(!k)) and best_j = ref cols.(!k) in
      let j = ref (!k + 1) in
      while !j < nc && cols.(!j) <= stop_col do
        let v = eval r cols.(!j) in
        if v < !best then begin
          best := v;
          best_j := cols.(!j)
        end;
        incr j
      done;
      loc_val.(r) <- !best;
      loc_arg.(r) <- !best_j;
      k := !j - 1;
      i := !i + 2
    done
  end

(* Blocked SMAWK chain solve; see docs/KERNELS.md for the sketch. The
   DP is "online" (f(x, j) needs the already-final value.(j+1)), which
   plain SMAWK cannot handle; blocks of [block] states processed right
   to left restore an offline shape: one far combine over the block's
   rows × the decision window [u+1, hi] (all values final), then an
   intra-block divide and conquer (right half first, then the right
   half's decisions for the left half's states) with SMAWK row
   minima. After a block, the window shrinks to hi = choice.(l) —
   exact, because leftmost argmins are non-decreasing in x under the
   certificate. Total evaluations: O(n log block + Σ window spans),
   linear in n for the checkpoint instances (optimal segment lengths
   grow like √n, so windows stay narrow — the bench linearity gate
   pins this). *)
let block = 256

let solve_smawk problem =
  let n = Chain_problem.size problem in
  let kernel = Chain_problem.kernel problem in
  if not (Segment_cost.supports_monotone_dc kernel) then begin
    (* Without the total-monotonicity certificate (a cost spike larger
       than a task weight, or the kernel in overflow-reference mode)
       SMAWK's pruning is unsound: fall back to the exhaustive sweep. *)
    Metrics.incr m_smawk_fallbacks;
    solve problem
  end
  else begin
    let value = T.floats (n + 1) in
    let best = T.floats ~init:infinity n in
    let choice = T.ints n in
    let evals = ref 0 in
    let eval x j =
      incr evals;
      Segment_cost.cost_unsafe kernel ~first:x ~last:j +. T.fget value (j + 1)
    in
    (* Per-combine scratch, indexed by global row id: combines run
       sequentially, and smawk rewrites every row it is given. *)
    let loc_val = Array.make n infinity in
    let loc_arg = Array.make n 0 in
    (* Fold one combine's row minima into the global tables. The tie
       rule (strictly better, or equal with a smaller index) makes the
       final choice the globally leftmost argmin whatever order the
       combines ran in — `solve`'s single left-to-right scan semantics,
       which a plain `<` fold would not guarantee. *)
    let fold_row r v j =
      let bv = T.fget best r in
      if v < bv || (Float.equal v bv && j < T.iget choice r) then begin
        T.fset best r v;
        T.iset choice r j
      end
    in
    let fold_rows rows = Array.iter (fun r -> fold_row r loc_val.(r) loc_arg.(r)) rows in
    let hi = ref (n - 1) in
    let l = ref ((n - 1) / block * block) in
    while !l >= 0 do
      let lo = !l in
      let up = Stdlib.min (n - 1) (lo + block - 1) in
      (* Far decisions [up+1, hi]: value.(j+1) final for all of them. *)
      if up + 1 <= !hi then begin
        let rows = Array.init (up - lo + 1) (fun i -> lo + i) in
        let cols = Array.init (!hi - up) (fun i -> up + 1 + i) in
        smawk ~eval ~loc_val ~loc_arg rows cols;
        fold_rows rows
      end;
      (* Intra-block decisions [x, up], right half first so value is
         final on the columns each combine reads. *)
      let rec rec_solve a b =
        if a = b then begin
          fold_row a (eval a a) a;
          T.fset value a (T.fget best a)
        end
        else begin
          let m = (a + b) / 2 in
          rec_solve (m + 1) b;
          let rows = Array.init (m - a + 1) (fun i -> a + i) in
          let cols = Array.init (b - m + 1) (fun i -> m + i) in
          smawk ~eval ~loc_val ~loc_arg rows cols;
          fold_rows rows;
          rec_solve a m
        end
      in
      rec_solve lo up;
      hi := T.iget choice lo;
      l := lo - block
    done;
    Metrics.incr ~by:n m_states;
    Metrics.incr ~by:n m_smawk_states;
    Metrics.incr ~by:!evals m_transitions;
    Metrics.incr ~by:!evals m_smawk_transitions;
    {
      expected_makespan = T.fget value 0;
      schedule = schedule_of_choice_fn problem (T.iget choice);
    }
  end

(* value.(k·(n+1) + x): optimal expectation for the suffix x..n-1 using
   exactly k further checkpoints; infinity when infeasible. Flat SoA
   layout (row-major in k) like the other solvers. *)
let budget_tables problem max_k =
  let n = Chain_problem.size problem in
  let kernel = Chain_problem.kernel problem in
  let width = n + 1 in
  let value = T.floats ~init:infinity ((max_k + 1) * width) in
  let choice = T.ints ~init:(-1) ((max_k + 1) * n) in
  T.fset value n 0.0;
  for k = 1 to max_k do
    let vk = k * width and vk1 = (k - 1) * width and ck = k * n in
    for x = n - 1 downto 0 do
      Metrics.incr m_states;
      Metrics.incr ~by:(n - x) m_transitions;
      let best = ref infinity and best_j = ref (-1) in
      for j = x to n - 1 do
        let rest = T.fget value (vk1 + j + 1) in
        if rest < infinity then begin
          let cur = Segment_cost.cost_unsafe kernel ~first:x ~last:j +. rest in
          if cur < !best then begin
            best := cur;
            best_j := j
          end
        end
      done;
      T.fset value (vk + x) !best;
      T.iset choice (ck + x) !best_j
    done
  done;
  (value, choice, width)

let solve_with_budget problem ~checkpoints =
  let n = Chain_problem.size problem in
  if checkpoints < 1 || checkpoints > n then
    invalid_arg "Chain_dp.solve_with_budget: need 1 <= checkpoints <= n";
  let value, choice, width = budget_tables problem checkpoints in
  let placement = Array.make n false in
  let rec mark k x =
    if x < n then begin
      let j = T.iget choice ((k * n) + x) in
      assert (j >= 0);
      placement.(j) <- true;
      mark (k - 1) (j + 1)
    end
  in
  mark checkpoints 0;
  {
    expected_makespan = T.fget value (checkpoints * width);
    schedule = Schedule.make problem placement;
  }

let budget_curve problem =
  let n = Chain_problem.size problem in
  let value, _, width = budget_tables problem n in
  List.init n (fun i -> (i + 1, T.fget value ((i + 1) * width)))
