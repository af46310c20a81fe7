(** Compact textual law descriptions, shared by the CLI tools:

    - ["exp:<mtbf>"] — Exponential with the given mean;
    - ["weibull:<shape>:<mean>"] — Weibull rescaled to the given mean;
    - ["lognormal:<sigma>:<mean>"] — log-normal with the given sigma and
      mean;
    - ["uniform:<lo>:<hi>"];
    - ["gamma:<shape>:<mean>"]. *)

val parse : string -> (Law.t, string) result
(** Parse a description; [Error] carries a usage message. *)

val parse_exn : string -> Law.t
(** Like {!parse}, raising [Invalid_argument]. *)

val to_spec : Law.t -> string
(** Render a law back to a parsable description (inverse of {!parse} up
    to floating-point formatting). *)
