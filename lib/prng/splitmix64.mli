(** SplitMix64: a tiny, fast, well-distributed 64-bit generator.

    Used here mainly to expand user-supplied seeds into full generator
    states, and to derive independent sub-seeds from string labels.
    Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
    generators", OOPSLA 2014. *)

val fill_words : int64 -> bytes -> words:int -> unit
(** [fill_words seed buf ~words] writes the first [words] outputs of
    the generator seeded with [seed] into consecutive 64-bit slots of
    [buf] (native byte order), without allocating. Output [i] (from 0)
    is the finalizer applied to [seed + (i + 1) * 0x9E3779B97F4A7C15].
    Raises [Invalid_argument] if [buf] is shorter than [8 * words]
    bytes. *)

val of_label : int64 -> string -> int64
(** [of_label seed label] deterministically derives a 64-bit sub-seed
    from [seed] and a human-readable [label]. Distinct labels give
    (with overwhelming probability) unrelated sub-seeds. *)

val of_label_nat : int64 -> string -> int -> int64
(** [of_label_nat seed prefix n] is [of_label seed (prefix ^ string_of_int n)]
    for [n >= 0], computed without building the string. Raises
    [Invalid_argument] if [n < 0]. *)
