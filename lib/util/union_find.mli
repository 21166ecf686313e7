(** Union-find over strings, used to cluster co-occurring attribute names
    in the corpus statistics and to equate query variables when a
    rewriting is assembled. *)

type t

val create : ?size:int -> unit -> t
(** [size] is the expected number of elements (default 64). *)

val find : t -> string -> string
val union : t -> string -> string -> unit
val connected : t -> string -> string -> bool

val groups : t -> string list list
(** All classes with at least one recorded element. *)
