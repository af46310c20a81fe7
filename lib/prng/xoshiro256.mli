(** xoshiro256**: the main 64-bit generator used throughout the library.

    Fast, passes BigCrush, and jumps 2^128 steps ({!split}) for cheaply
    creating independent sequences from a single seed.
    Reference: Blackman & Vigna, "Scrambled linear pseudorandom number
    generators", ACM TOMS 2021. *)

type t
(** Mutable generator state (256 bits). *)

val create : int64 -> t
(** [create seed] expands [seed] through SplitMix64 into a full state. *)

val copy : t -> t
(** [copy t] is an independent clone of the current state. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val next_top53 : t -> int
(** The top 53 bits of the next {!next_int64} output, as a non-negative
    [int] (an immediate: no int64 box on the way out). *)

val split : t -> t
(** [split t] returns a generator at [t]'s current position and jumps
    [t] itself by 2^128 steps, so repeated splits yield pairwise
    non-overlapping streams. *)
