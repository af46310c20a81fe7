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

(* Segment_cost.cost over the kernel's tables, unchecked, evaluated in
   this compilation unit. The same float expression as
   Segment_cost.cost, bit for bit — the solvers' agreement contracts
   depend on it, and a property test pins it. Inlined into every DP
   inner loop: a cross-module call returning a float would box it on
   every transition under -opaque. Bounds: 0 <= x <= j < n. *)
let[@inline] seg_cost (k : Segment_cost.t) x j =
  let a =
    Array.unsafe_get k.lam_prefix (j + 1)
    -. Array.unsafe_get k.lam_prefix x
    +. Array.unsafe_get k.lam_ckpt j
  in
  let growth =
    if k.tables && a >= k.small_threshold then
      Array.unsafe_get k.e_prefix (j + 1)
      *. Array.unsafe_get k.e_ckpt j
      *. Array.unsafe_get k.inv_e_prefix x
      -. 1.0
    else Float.expm1 a
  in
  Array.unsafe_get k.pre x *. growth

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
    let best = ref infinity and best_j = ref x in
    for j = x to n - 1 do
      let cur = seg_cost kernel x j +. T.fget value (j + 1) in
      if cur < !best then begin
        best := cur;
        best_j := j
      end
    done;
    T.fset value x !best;
    T.iset choice x !best_j
  done;
  (* Counted once per solve: a metric update per state would allocate. *)
  Metrics.incr ~by:n m_states;
  Metrics.incr ~by:(n * (n + 1) / 2) m_transitions;
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

(* Per-solve state. Every index set a combine needs — its rows and
   columns, each recursion level's REDUCE stack and odd rows — is an
   (offset, length) slice of the one [ws] workspace: a combine has at
   most [block] rows and at most n columns, and the stack and odd
   rows of all recursion levels together take at most 3·[block]
   slots, so n + 4·[block] slots cover every combine. The row minima
   of the running combine are indexed by row − [lo] (every row of a
   combine lies in the block [lo, lo + block)). *)
type smawk_state = {
  kernel : Segment_cost.t;
  value : T.floats;  (* n + 1 *)
  best : T.floats;  (* n: best candidate over the combines so far *)
  choice : T.ints;  (* n: its leftmost argmin *)
  ws : int array;
  loc_val : float array;  (* block *)
  loc_arg : int array;  (* block *)
  mutable lo : int;
  mutable evals : int;
}

let[@inline] eval st x j =
  st.evals <- st.evals + 1;
  seg_cost st.kernel x j +. T.fget st.value (j + 1)

(* Offline row minima of a totally monotone matrix [eval row col] over
   the rows ws.(rows .. rows + nr − 1) and the columns
   ws.(cols .. cols + nc0 − 1), O(nr + nc0) evaluations (SMAWK), with
   ws.(free ..) as scratch. Writes this call's minimum for every row r
   into loc_val.(r − lo) and its leftmost argmin into loc_arg.(r − lo)
   (the caller folds them into the global tables afterwards).

   Tie discipline, load-bearing for the bit-for-bit contract with
   `solve`: REDUCE pops a stacked column only when the new (larger)
   column is {e strictly} better at the stack-depth row — on an exact
   float tie the earlier column survives — and a column arriving at a
   full stack is dropped (it cannot be a leftmost minimum anywhere);
   INTERPOLATE scans its window left-to-right with strict <. Under the
   total-monotonicity certificate both rules preserve the leftmost
   argmin of every row exactly. *)
let rec smawk st ~rows ~nr ~cols ~nc0 ~free =
  if nr > 0 && nc0 > 0 then begin
    let ws = st.ws in
    (* REDUCE: keep at most nr columns that can still carry a minimum,
       stacked in ws.(free .. free + nr − 1); they become the columns
       of the recursion and of the interpolation. *)
    let stack = free in
    let top = ref 0 in
    for ci = 0 to nc0 - 1 do
      let c = ws.(cols + ci) in
      let continue = ref true in
      while !continue && !top > 0 do
        let r = ws.(rows + !top - 1) in
        if eval st r c < eval st r ws.(stack + !top - 1) then decr top
        else continue := false
      done;
      if !top < nr then begin
        ws.(stack + !top) <- c;
        incr top
      end
    done;
    let nc = !top in
    (* Recurse on the odd-position rows with the surviving columns,
       then interpolate the even-position rows: each minimum lies
       between the neighbouring odd rows' argmins (inclusive), and
       those argmins are members of the stack, so one monotone pointer
       covers all even rows in O(nr + nc). *)
    let odd = stack + nr in
    let n_odd = nr / 2 in
    for i = 0 to n_odd - 1 do
      ws.(odd + i) <- ws.(rows + (2 * i) + 1)
    done;
    smawk st ~rows:odd ~nr:n_odd ~cols:stack ~nc0:nc ~free:(odd + n_odd);
    let lo = st.lo in
    let k = ref 0 in
    let i = ref 0 in
    while !i < nr do
      let r = ws.(rows + !i) in
      let stop_col =
        if !i + 1 < nr then st.loc_arg.(ws.(rows + !i + 1) - lo) else ws.(stack + nc - 1)
      in
      let best = ref (eval st r ws.(stack + !k)) and best_j = ref ws.(stack + !k) in
      let j = ref (!k + 1) in
      while !j < nc && ws.(stack + !j) <= stop_col do
        let v = eval st r ws.(stack + !j) in
        if v < !best then begin
          best := v;
          best_j := ws.(stack + !j)
        end;
        incr j
      done;
      st.loc_val.(r - lo) <- !best;
      st.loc_arg.(r - lo) <- !best_j;
      k := !j - 1;
      i := !i + 2
    done
  end

(* Fold one candidate into the global tables. The tie rule (strictly
   better, or equal with a smaller index) makes the final choice the
   globally leftmost argmin whatever order the combines ran in —
   `solve`'s single left-to-right scan semantics, which a plain `<`
   fold would not guarantee. *)
let[@inline] fold_row st r v j =
  let bv = T.fget st.best r in
  if v < bv || (Float.equal v bv && j < T.iget st.choice r) then begin
    T.fset st.best r v;
    T.iset st.choice r j
  end

(* SMAWK over rows [r0, r1] × columns [c0, c1], folded into the global
   tables. Rows and columns are laid out at the head of the workspace. *)
let combine st ~r0 ~r1 ~c0 ~c1 =
  let ws = st.ws in
  let nr = r1 - r0 + 1 and nc = c1 - c0 + 1 in
  for i = 0 to nr - 1 do
    ws.(i) <- r0 + i
  done;
  for i = 0 to nc - 1 do
    ws.(nr + i) <- c0 + i
  done;
  smawk st ~rows:0 ~nr ~cols:nr ~nc0:nc ~free:(nr + nc);
  for r = r0 to r1 do
    fold_row st r st.loc_val.(r - st.lo) st.loc_arg.(r - st.lo)
  done

(* Intra-block decisions [a, b], right half first so value is final on
   the columns each combine reads. *)
let rec rec_solve st a b =
  if a = b then begin
    fold_row st a (eval st a a) a;
    T.fset st.value a (T.fget st.best a)
  end
  else begin
    let m = (a + b) / 2 in
    rec_solve st (m + 1) b;
    combine st ~r0:a ~r1:m ~c0:m ~c1:b;
    rec_solve st a m
  end

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
    let st =
      {
        kernel;
        value = T.floats (n + 1);
        best = T.floats ~init:infinity n;
        choice = T.ints n;
        ws = Array.make (n + (4 * block)) 0;
        loc_val = Array.make block infinity;
        loc_arg = Array.make block 0;
        lo = 0;
        evals = 0;
      }
    in
    let hi = ref (n - 1) in
    let l = ref ((n - 1) / block * block) in
    while !l >= 0 do
      let lo = !l in
      let up = Stdlib.min (n - 1) (lo + block - 1) in
      st.lo <- lo;
      (* Far decisions [up+1, hi]: value.(j+1) final for all of them. *)
      if up + 1 <= !hi then combine st ~r0:lo ~r1:up ~c0:(up + 1) ~c1:!hi;
      rec_solve st lo up;
      hi := T.iget st.choice lo;
      l := lo - block
    done;
    Metrics.incr ~by:n m_states;
    Metrics.incr ~by:n m_smawk_states;
    Metrics.incr ~by:st.evals m_transitions;
    Metrics.incr ~by:st.evals m_smawk_transitions;
    {
      expected_makespan = T.fget st.value 0;
      schedule = schedule_of_choice_fn problem (T.iget st.choice);
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
      let best = ref infinity and best_j = ref (-1) in
      for j = x to n - 1 do
        let rest = T.fget value (vk1 + j + 1) in
        if rest < infinity then begin
          let cur = seg_cost kernel x j +. rest in
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
  Metrics.incr ~by:(max_k * n) m_states;
  Metrics.incr ~by:(max_k * (n * (n + 1) / 2)) m_transitions;
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
