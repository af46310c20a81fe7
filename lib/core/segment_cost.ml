(* Precomputed segment-cost kernel (see the mli for the factorization
   and the accuracy guards). All tables are built once per chain; the
   per-transition entry points are straight-line float code. *)

type t = {
  lambda : float;
  downtime : float;
  prefix_work : float array;  (* n+1, raw durations for the reference path *)
  checkpoint_costs : float array;  (* n *)
  recovery_costs : float array;  (* n; index i = recovery of a segment starting at i *)
  lam_prefix : float array;  (* n+1: λ·prefix_work *)
  lam_ckpt : float array;  (* n: λ·C_j *)
  e_prefix : float array;  (* n+1: e^(λ·prefix_work); empty in reference mode *)
  inv_e_prefix : float array;  (* n+1: e^(−λ·prefix_work); empty in reference mode *)
  e_ckpt : float array;  (* n: e^(λ·C_j); empty in reference mode *)
  pre : float array;  (* n: e^(λ·R_i)·(1/λ + D) *)
  tables : bool;
  small_threshold : float;
}

let overflow_cutoff = 690.0

let create ~lambda ~downtime ~prefix_work ~checkpoint_costs ~recovery_costs =
  let n = Array.length checkpoint_costs in
  if n = 0 then invalid_arg "Segment_cost.create: empty chain";
  if Array.length prefix_work <> n + 1 then
    invalid_arg "Segment_cost.create: prefix_work must have length n + 1";
  if Array.length recovery_costs <> n then
    invalid_arg "Segment_cost.create: recovery_costs must have length n";
  (* Tables are filled by plain loops: an [Array.map]/[Array.init]
     closure returns each element boxed. *)
  let lam_prefix = Array.create_float (n + 1) in
  for i = 0 to n do
    lam_prefix.(i) <- lambda *. prefix_work.(i)
  done;
  let lam_ckpt = Array.create_float n in
  let pre = Array.create_float n in
  let inv_lambda_plus_d = (1.0 /. lambda) +. downtime in
  let max_lam_ckpt = ref 0.0 in
  for i = 0 to n - 1 do
    lam_ckpt.(i) <- lambda *. checkpoint_costs.(i);
    max_lam_ckpt := Float.max !max_lam_ckpt lam_ckpt.(i);
    pre.(i) <- exp (lambda *. recovery_costs.(i)) *. inv_lambda_plus_d
  done;
  let lam_span = lam_prefix.(n) +. !max_lam_ckpt in
  let tables = lam_span <= overflow_cutoff in
  (* The product form computes e^a − 1 from three table entries whose
     combined relative error is O(lam_span·ε); dividing by a bounds the
     relative error of the difference, so a cutoff proportional to
     lam_span keeps the kernel within ~1e-10 of the expm1 reference
     (floored at 1e-6 so tiny chains still take the cheap path only
     where it is exact enough). *)
  let small_threshold = Float.max 1e-6 (lam_span *. 1e-5) in
  let e_prefix, inv_e_prefix, e_ckpt =
    if not tables then ([||], [||], [||])
    else begin
      let e_prefix = Array.create_float (n + 1) in
      let inv_e_prefix = Array.create_float (n + 1) in
      for i = 0 to n do
        e_prefix.(i) <- exp lam_prefix.(i);
        inv_e_prefix.(i) <- exp (-.lam_prefix.(i))
      done;
      let e_ckpt = Array.create_float n in
      for i = 0 to n - 1 do
        e_ckpt.(i) <- exp lam_ckpt.(i)
      done;
      (e_prefix, inv_e_prefix, e_ckpt)
    end
  in
  {
    lambda;
    downtime;
    prefix_work;
    checkpoint_costs;
    recovery_costs;
    lam_prefix;
    lam_ckpt;
    e_prefix;
    inv_e_prefix;
    e_ckpt;
    pre;
    tables;
    small_threshold;
  }

let size t = Array.length t.checkpoint_costs
let uses_tables t = t.tables
let small_threshold t = t.small_threshold

let growth t ~first ~last =
  let a = t.lam_prefix.(last + 1) -. t.lam_prefix.(first) +. t.lam_ckpt.(last) in
  if t.tables && a >= t.small_threshold then
    (t.e_prefix.(last + 1) *. t.e_ckpt.(last) *. t.inv_e_prefix.(first)) -. 1.0
  else Float.expm1 a

let cost t ~first ~last = t.pre.(first) *. growth t ~first ~last

(* Unchecked variant for DP inner loops whose loop structure already
   establishes 0 <= first <= last < n. Same float expression as
   {!growth}, only the bounds checks are elided. *)
let growth_unsafe t ~first ~last =
  let a =
    Array.unsafe_get t.lam_prefix (last + 1)
    -. Array.unsafe_get t.lam_prefix first
    +. Array.unsafe_get t.lam_ckpt last
  in
  if t.tables && a >= t.small_threshold then
    Array.unsafe_get t.e_prefix (last + 1)
    *. Array.unsafe_get t.e_ckpt last
    *. Array.unsafe_get t.inv_e_prefix first
    -. 1.0
  else Float.expm1 a

let reference_cost t ~first ~last =
  Expected_time.expected_unchecked
    ~work:(t.prefix_work.(last + 1) -. t.prefix_work.(first))
    ~checkpoint:t.checkpoint_costs.(last) ~downtime:t.downtime
    ~recovery:t.recovery_costs.(first) ~lambda:t.lambda

let supports_monotone_dc t =
  t.tables
  &&
  let n = size t in
  let ok = ref true in
  for i = 0 to n - 2 do
    let w_next = t.prefix_work.(i + 2) -. t.prefix_work.(i + 1) in
    (* a(x) non-increasing: R_x − R_(x−1) ≤ w_x, i.e. the recovery table
       may only grow as fast as the work separating two starts. *)
    if t.recovery_costs.(i + 1) -. t.recovery_costs.(i)
       > t.prefix_work.(i + 1) -. t.prefix_work.(i)
    then ok := false;
    (* E(j) non-decreasing: C_(j+1) − C_j ≥ −w_(j+1). *)
    if t.checkpoint_costs.(i + 1) -. t.checkpoint_costs.(i) < -.w_next then ok := false
  done;
  !ok
