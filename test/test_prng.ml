(* Tests for the deterministic PRNG substrate. *)

module Splitmix64 = Ckpt_prng.Splitmix64
module Xoshiro256 = Ckpt_prng.Xoshiro256
module Rng = Ckpt_prng.Rng

let check_int64 = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

let splitmix_words seed n =
  let buf = Bytes.make (8 * n) '\000' in
  Splitmix64.fill_words seed buf ~words:n;
  List.init n (fun i -> Bytes.get_int64_ne buf (8 * i))

let test_splitmix_deterministic () =
  Alcotest.(check (list check_int64))
    "same seed, same stream" (splitmix_words 1234L 100) (splitmix_words 1234L 100);
  (* The reference SplitMix64 output for seed 0 (Steele, Lea & Flood). *)
  Alcotest.check check_int64 "first output for seed 0" 0xE220A8397B1DCDAFL
    (List.hd (splitmix_words 0L 1))

let test_splitmix_seed_sensitivity () =
  Alcotest.(check bool) "different seeds diverge" false
    (splitmix_words 1L 10 = splitmix_words 2L 10)

let test_of_label () =
  Alcotest.check check_int64 "label derivation is deterministic"
    (Splitmix64.of_label 7L "alpha") (Splitmix64.of_label 7L "alpha");
  Alcotest.(check bool) "labels distinguish" false
    (Splitmix64.of_label 7L "alpha" = Splitmix64.of_label 7L "beta");
  Alcotest.(check bool) "prefix labels distinguish" false
    (Splitmix64.of_label 7L "ab" = Splitmix64.of_label 7L "abc");
  Alcotest.(check bool) "seed matters" false
    (Splitmix64.of_label 7L "alpha" = Splitmix64.of_label 8L "alpha")

let test_xoshiro_deterministic () =
  let a = Xoshiro256.create 99L and b = Xoshiro256.create 99L in
  for _ = 1 to 100 do
    Alcotest.check check_int64 "same seed, same stream" (Xoshiro256.next_int64 a)
      (Xoshiro256.next_int64 b)
  done

let test_xoshiro_copy () =
  let a = Xoshiro256.create 5L in
  ignore (Xoshiro256.next_int64 a);
  let b = Xoshiro256.copy a in
  Alcotest.check check_int64 "copy continues identically" (Xoshiro256.next_int64 a)
    (Xoshiro256.next_int64 b);
  ignore (Xoshiro256.next_int64 a);
  (* advancing one does not affect the other *)
  let a1 = Xoshiro256.next_int64 a and b1 = Xoshiro256.next_int64 b in
  Alcotest.(check bool) "streams now independent" false (a1 = b1)

let test_xoshiro_split_disjoint () =
  let parent = Xoshiro256.create 11L in
  let child = Xoshiro256.split parent in
  let child_outputs = List.init 64 (fun _ -> Xoshiro256.next_int64 child) in
  let parent_outputs = List.init 64 (fun _ -> Xoshiro256.next_int64 parent) in
  List.iter
    (fun c ->
      Alcotest.(check bool) "child output not in parent prefix" false
        (List.mem c parent_outputs))
    child_outputs

let test_float_range_unit () =
  let rng = Rng.create ~seed:3L in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "float in [0,1)" true (x >= 0.0 && x < 1.0)
  done;
  for _ = 1 to 10_000 do
    let x = Rng.float_pos rng in
    Alcotest.(check bool) "float_pos in (0,1]" true (x > 0.0 && x <= 1.0)
  done

let test_float_uniformity () =
  let rng = Rng.create ~seed:17L in
  let bins = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let x = Rng.float rng in
    bins.(int_of_float (x *. 10.0)) <- bins.(int_of_float (x *. 10.0)) + 1
  done;
  Array.iteri
    (fun i count ->
      let expected = float_of_int n /. 10.0 in
      Alcotest.(check bool)
        (Printf.sprintf "bin %d within 5%% of uniform" i)
        true
        (Float.abs (float_of_int count -. expected) < 0.05 *. expected))
    bins

let test_int_bounds () =
  let rng = Rng.create ~seed:23L in
  let seen = Array.make 7 false in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 7 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 7);
    seen.(x) <- true
  done;
  Array.iteri
    (fun i hit -> Alcotest.(check bool) (Printf.sprintf "value %d reached" i) true hit)
    seen

let test_bool_balanced () =
  let rng = Rng.create ~seed:29L in
  let trues = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bool rng then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int n in
  Alcotest.(check bool) "bool roughly fair" true (ratio > 0.48 && ratio < 0.52)

let test_shuffle_multiset () =
  let rng = Rng.create ~seed:31L in
  let original = List.init 50 Fun.id in
  let shuffled = Rng.shuffle rng original in
  Alcotest.(check (list int)) "same multiset" original (List.sort compare shuffled);
  Alcotest.(check bool) "actually permuted" false (original = shuffled)

let test_substream_independent_of_consumption () =
  (* The substream depends only on seed and label, not on draws made on
     the parent before derivation. *)
  let a = Rng.create ~seed:41L in
  ignore (Rng.float a);
  ignore (Rng.float a);
  let sub_a = Rng.substream a "worker" in
  let b = Rng.create ~seed:41L in
  let sub_b = Rng.substream b "worker" in
  for _ = 1 to 20 do
    Alcotest.check check_int64 "substream reproducible" (Rng.int64 sub_a) (Rng.int64 sub_b)
  done

let test_substream_labels_distinct () =
  let rng = Rng.create ~seed:43L in
  let a = Rng.substream rng "x" and b = Rng.substream rng "y" in
  Alcotest.(check bool) "distinct labels give distinct streams" false
    (List.init 5 (fun _ -> Rng.int64 a) = List.init 5 (fun _ -> Rng.int64 b))

let qcheck_int_in_range =
  QCheck.Test.make ~name:"Rng.int is always within bounds" ~count:1000
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, n) ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let x = Rng.int rng n in
      x >= 0 && x < n)

let qcheck_float_range =
  QCheck.Test.make ~name:"Rng.float_range stays in its interval" ~count:1000
    QCheck.(triple small_int (float_range (-1000.0) 1000.0) (float_range 0.0 1000.0))
    (fun (seed, lo, width) ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let hi = lo +. width in
      let x = Rng.float_range rng lo hi in
      x >= lo && (x < hi || hi = lo))

let first_draws rng = List.init 8 (fun _ -> Rng.int64 rng)

(* The string-free substream_run must absorb exactly the bytes of the
   "run-<r>" label: the digit-count boundaries are where a hand-rolled
   decimal expansion goes wrong. *)
let substream_run_edges =
  let pow10 k = List.fold_left (fun acc _ -> acc * 10) 1 (List.init k Fun.id) in
  [ 0; 9; 10; 99; 100; max_int; max_int - 1 ]
  @ List.concat_map (fun k -> [ pow10 k - 1; pow10 k; pow10 k + 1 ]) (List.init 18 (fun k -> k + 1))

let substream_run_matches_label seed r =
  let root = Rng.create ~seed in
  first_draws (Rng.substream_run root r)
  = first_draws (Rng.substream root ("run-" ^ string_of_int r))

let test_substream_run_edges () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "substream_run %d = substream \"run-%d\"" r r)
        true
        (substream_run_matches_label 20_260_806L r))
    (substream_run_edges @ [ -1; -10; min_int ])

let qcheck_substream_run_label =
  QCheck.Test.make ~name:"substream_run r = substream (\"run-\" ^ string_of_int r)" ~count:500
    QCheck.(pair int64 (oneof [ small_nat; int_range 0 max_int ]))
    (fun (seed, r) -> substream_run_matches_label seed r)

(* Golden draws pinned from the record-of-int64 generator this one
   replaced: the storage of the state may change, the stream may not. *)
let test_xoshiro_split_golden () =
  let parent = Xoshiro256.create 11L in
  ignore (Xoshiro256.next_int64 parent);
  let child = Xoshiro256.split parent in
  let child2 = Xoshiro256.split parent in
  let draws g = List.init 4 (fun _ -> Xoshiro256.next_int64 g) in
  Alcotest.(check (list check_int64))
    "first split child"
    [ 0x1654FE5F5C55A081L; 0x3EC96828463614ADL; 0x719B3CAECE494E38L; 0x15D312CE905FFE56L ]
    (draws child);
  Alcotest.(check (list check_int64))
    "second split child"
    [ 0x4E5B478C63354EEEL; 0x422D97856E69FE95L; 0x48563A38D90DDBA8L; 0x14E17A5A8F0E71D5L ]
    (draws child2);
  Alcotest.(check (list check_int64))
    "parent after two jumps"
    [ 0xD0567CC5824AC56CL; 0x7B5D0728628C258BL; 0x5BB4E02BE5C8FA6BL; 0x5B3E8383D6F3FD1CL ]
    (draws parent);
  let r = Rng.create ~seed:77L in
  let s = Rng.split r in
  Alcotest.check check_int64 "Rng.split child" 0x7075F9263CEA6413L (Rng.int64 s);
  Alcotest.check check_int64 "Rng.split parent" 0x171D6345D57CA653L (Rng.int64 r)

(* One fixed-seed Monte Carlo mean, bit for bit: a change to the stream
   (substream derivation, generator, float conversion, exponential
   draw) fails here even if it keeps the cross-domain identity. *)
let test_estimate_golden_bits () =
  let e =
    Ckpt_sim.Monte_carlo.estimate_segments ~domains:1
      ~model:(Ckpt_sim.Monte_carlo.Poisson_rate 0.01) ~downtime:1.0 ~runs:100_000
      ~rng:(Rng.create ~seed:20_260_806L)
      [ Ckpt_sim.Sim_run.segment ~work:100.0 ~checkpoint:5.0 ~recovery:5.0 ]
  in
  Alcotest.(check string) "mean bits" "0x1.8a8d636c13f1ep+7"
    (Printf.sprintf "%h" e.Ckpt_sim.Monte_carlo.mean);
  Alcotest.(check string) "stddev bits" "0x1.e66156c5375c5p+6"
    (Printf.sprintf "%h" e.Ckpt_sim.Monte_carlo.stddev)

let suite =
  [
    Alcotest.test_case "splitmix64 determinism" `Quick test_splitmix_deterministic;
    Alcotest.test_case "splitmix64 seed sensitivity" `Quick test_splitmix_seed_sensitivity;
    Alcotest.test_case "label-derived sub-seeds" `Quick test_of_label;
    Alcotest.test_case "xoshiro determinism" `Quick test_xoshiro_deterministic;
    Alcotest.test_case "xoshiro copy semantics" `Quick test_xoshiro_copy;
    Alcotest.test_case "xoshiro split disjoint" `Quick test_xoshiro_split_disjoint;
    Alcotest.test_case "float ranges" `Quick test_float_range_unit;
    Alcotest.test_case "float uniformity" `Quick test_float_uniformity;
    Alcotest.test_case "int bounds and coverage" `Quick test_int_bounds;
    Alcotest.test_case "bool balance" `Quick test_bool_balanced;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_multiset;
    Alcotest.test_case "substream reproducibility" `Quick
      test_substream_independent_of_consumption;
    Alcotest.test_case "substream label separation" `Quick test_substream_labels_distinct;
    QCheck_alcotest.to_alcotest qcheck_int_in_range;
    QCheck_alcotest.to_alcotest qcheck_float_range;
    Alcotest.test_case "substream_run digit boundaries" `Quick test_substream_run_edges;
    QCheck_alcotest.to_alcotest qcheck_substream_run_label;
    Alcotest.test_case "xoshiro split golden draws" `Quick test_xoshiro_split_golden;
    Alcotest.test_case "Monte Carlo mean golden bits" `Quick test_estimate_golden_bits;
  ]
