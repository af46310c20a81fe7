(* All fields are floats, so the record is stored flat and [add] updates
   it without boxing. The count is exact as a float below 2^53. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () = { n = 0.0; mean = 0.0; m2 = 0.0; min_v = infinity; max_v = neg_infinity }

let add t x =
  t.n <- t.n +. 1.0;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = int_of_float t.n

let mean t =
  if Float.equal t.n 0.0 then invalid_arg "Welford.mean: empty accumulator";
  t.mean

let variance t = if t.n < 2.0 then 0.0 else t.m2 /. (t.n -. 1.0)
let stddev t = sqrt (variance t)

let std_error t =
  if Float.equal t.n 0.0 then invalid_arg "Welford.std_error: empty accumulator";
  stddev t /. sqrt t.n

let min t = t.min_v
let max t = t.max_v

let confidence_interval t ~level =
  if level <= 0.0 || level >= 1.0 then invalid_arg "confidence_interval: level must lie in (0,1)";
  let z = Normal.quantile (1.0 -. ((1.0 -. level) /. 2.0)) in
  let half = z *. std_error t in
  (mean t -. half, mean t +. half)

let copy t = { n = t.n; mean = t.mean; m2 = t.m2; min_v = t.min_v; max_v = t.max_v }

(* Both degenerate branches must return a fresh record: returning an
   input aliased would let a later [add] on the merge result mutate the
   argument behind the caller's back. *)
let merge x y =
  if Float.equal x.n 0.0 then copy y
  else if Float.equal y.n 0.0 then copy x
  else begin
    let n = x.n +. y.n in
    let delta = y.mean -. x.mean in
    let mean = x.mean +. (delta *. y.n /. n) in
    let m2 = x.m2 +. y.m2 +. (delta *. delta *. x.n *. y.n /. n) in
    { n; mean; m2; min_v = Float.min x.min_v y.min_v; max_v = Float.max x.max_v y.max_v }
  end
