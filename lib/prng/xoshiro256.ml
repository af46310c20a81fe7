(* The four state words live unboxed in 32 bytes: reads and writes
   through the bytes primitives keep [next_int64] free of int64 boxes
   (a record of four mutable int64 fields boxes on every update). *)
type t = bytes

external get : bytes -> int -> int64 = "%caml_bytes_get64u"
external set : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let t = Bytes.create 32 in
  Splitmix64.fill_words seed t ~words:4;
  t

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] step t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 tmp in
  let s3 = rotl s3 45 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  result

let next_int64 t = step t

let next_top53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)

let jump_table = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let s0 = ref 0L and s1 = ref 0L and s2 = ref 0L and s3 = ref 0L in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.logand word (Int64.shift_left 1L b) <> 0L then begin
          s0 := Int64.logxor !s0 (get t 0);
          s1 := Int64.logxor !s1 (get t 8);
          s2 := Int64.logxor !s2 (get t 16);
          s3 := Int64.logxor !s3 (get t 24)
        end;
        ignore (step t)
      done)
    jump_table;
  set t 0 !s0;
  set t 8 !s1;
  set t 16 !s2;
  set t 24 !s3

let split t =
  (* The child takes over the current position; the parent jumps 2^128
     steps ahead, so child and parent (and any further splits) draw from
     pairwise disjoint segments of the sequence. *)
  let child = copy t in
  jump t;
  child
