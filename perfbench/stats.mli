(** Quartiles and spread over float samples, for the repeat mode's
    summary.  Percentiles of latencies use {!Util.Stats}. *)

val quartiles : float list -> float * float * float
(** First, second and third quartile exactly as Python's
    [statistics.quantiles(xs, n=4)] computes them (its default
    "exclusive" method).  Needs at least two samples. *)

val spread : float list -> float
(** Interquartile distance as a share of the median ({!quartiles}):
    [(q3 - q1) / |q2|]; [0.] when the median is [0.]. *)
