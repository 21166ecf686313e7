(** Self-time fold over {!Obs.Span} trees.

    A span's self time is its duration minus the part of its interval
    that its children cover (the union of the children's intervals,
    clipped to the parent's), so nested layers are not counted twice and
    the self times of one tree add up to the root's duration. *)

type t

val create : unit -> t

val add : t -> Obs.Span.t -> unit
(** Fold one root span and all its descendants in. *)

val add_all : t -> Obs.Span.t list -> unit

val self_ms : t -> string -> float
(** Total self time, in milliseconds, of every span with this name;
    [0.] for a name never seen. *)

val count : t -> string -> int
(** Number of spans with this name. *)

val names : t -> string list
(** Every span name seen, by descending self time. *)

val total_self_ms : t -> float
(** Sum of {!self_ms} over every name (= sum of the root durations). *)
