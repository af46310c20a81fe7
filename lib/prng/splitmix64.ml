let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let fill_words seed buf ~words =
  if words < 0 || 8 * words > Bytes.length buf then invalid_arg "Splitmix64.fill_words";
  let state = ref seed in
  for i = 0 to words - 1 do
    state := Int64.add !state golden_gamma;
    set64 buf (8 * i) (mix !state)
  done

(* Absorb one label byte FNV-style into the accumulator, then mix it
   through the SplitMix64 finalizer so that labels sharing a prefix
   still diverge completely. *)
let[@inline] absorb acc byte = mix (Int64.mul (Int64.logxor acc (Int64.of_int byte)) 0x100000001B3L)

let[@inline] absorb_string acc s =
  let acc = ref acc in
  for i = 0 to String.length s - 1 do
    acc := absorb !acc (Char.code (String.unsafe_get s i))
  done;
  !acc

let of_label seed label = mix (absorb_string seed label)

(* The bytes of [prefix ^ string_of_int n], absorbed without building
   the string: the prefix, then the decimal digits of [n], most
   significant first. *)
let of_label_nat seed prefix n =
  if n < 0 then invalid_arg "Splitmix64.of_label_nat: negative number";
  let acc = ref (absorb_string seed prefix) in
  (* [n / 10 >= place] rather than [10 * place <= n]: no overflow at max_int. *)
  let place = ref 1 in
  while n / 10 >= !place do
    place := !place * 10
  done;
  while !place > 0 do
    acc := absorb !acc (Char.code '0' + (n / !place mod 10));
    place := !place / 10
  done;
  mix !acc
