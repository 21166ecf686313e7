(** A fixed CPU-bound computation whose running time tracks the host's
    current speed.

    On a shared host the CPU speed drifts by tens of percent over
    seconds to minutes.  Dividing an op's latency by the time of this
    kernel, measured just before the op, cancels most of that drift.
    The kernel allocates nothing, so the program's heap and GC state do
    not change its cost. *)

val run_ms : unit -> float
(** Run the kernel once; its wall time in milliseconds. *)

val median_ms : int -> float
(** [median_ms n] runs the kernel [n] times; the median wall time in
    milliseconds. *)
