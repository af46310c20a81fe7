(** Cascading downtimes (the technical remark below Equation 6 of the
    paper).

    With several processors, a processor can fail while another one is
    down, so the platform-level downtime after a failure is not the
    constant D but a random variable D(p): the platform is back up only
    once a full D-length window has passed with no further failure.

    For an Exponential platform (rate λ) this is the classical waiting
    time for the first gap of length D in a Poisson process, measured
    from the initial failure:

    {v E(D_eff) = (e^(λD) − 1) / λ v}

    which tends to the paper's constant-D model as λD → 0 — this module
    quantifies exactly how accurate that lower bound is. *)

val expected_effective : lambda:float -> downtime:float -> float
(** E(D_eff) = (e^(λD) − 1)/λ. Requires λ > 0, D >= 0. *)

val expected_excess : lambda:float -> downtime:float -> float
(** E(D_eff) − D: the error made by the constant-downtime model. *)

val expected_cascade_failures : lambda:float -> downtime:float -> float
(** Expected number of {e additional} failures absorbed into one
    effective downtime window: e^(λD) − 1 (the count of failures until
    the first gap >= D is geometric with success probability e^(−λD)). *)

val simulate :
  lambda:float -> downtime:float -> runs:int -> Ckpt_prng.Rng.t ->
  Ckpt_stats.Welford.t
(** Monte-Carlo samples of D_eff (used in the tests and in experiment
    E12 to validate the closed form). *)
