(** Fixed-width histograms, used to sanity-check sampled distributions
    against analytic densities and to render textual distribution plots
    in the examples. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** [create ~lo ~hi ~bins] covers [lo, hi) with [bins] equal cells;
    values outside the range are counted in overflow/underflow.
    Raises [Invalid_argument] if [bins <= 0] or [hi <= lo]. *)

val add : t -> float -> unit

val total : t -> int
(** All observations, including out-of-range ones. *)

val counts : t -> int array
(** In-range bin counts (a copy). *)

val underflow : t -> int
val overflow : t -> int

val bin_center : t -> int -> float
(** Midpoint of bin [i]. *)

val render : t -> width:int -> string
(** ASCII rendering, one line per bin. *)
