type t = {
  lo : float;
  hi : float;
  width : float;
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
  mutable total : int;
}

let create ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
  {
    lo;
    hi;
    width = (hi -. lo) /. float_of_int bins;
    counts = Array.make bins 0;
    underflow = 0;
    overflow = 0;
    total = 0;
  }

let add t x =
  t.total <- t.total + 1;
  if x < t.lo then t.underflow <- t.underflow + 1
  else if x >= t.hi then t.overflow <- t.overflow + 1
  else begin
    let i = int_of_float ((x -. t.lo) /. t.width) in
    let i = Stdlib.min i (Array.length t.counts - 1) in
    t.counts.(i) <- t.counts.(i) + 1
  end

let total t = t.total
let counts t = Array.copy t.counts
let underflow t = t.underflow
let overflow t = t.overflow
let bin_center t i = t.lo +. ((float_of_int i +. 0.5) *. t.width)

let render t ~width =
  let max_count = Array.fold_left Stdlib.max 1 t.counts in
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i c ->
      let bar_len = c * width / max_count in
      Buffer.add_string buf (Printf.sprintf "%10.4g | %s %d\n" (bin_center t i) (String.make bar_len '#') c))
    t.counts;
  Buffer.contents buf
