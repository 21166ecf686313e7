(** Counting-based incremental maintenance of materialised conjunctive
    views under updategrams — "when a view is recomputed on a Piazza
    node, the query optimizer decides which updategrams to use"
    (Section 3.1.2). Each output tuple carries its derivation count, so
    deletions are exact without recomputation. *)

type t

val create : ?exec:Exec.t -> Relalg.Database.t -> Cq.Query.t -> t
(** Materialise the view over the database. The database is captured by
    reference: all subsequent updates must flow through {!apply} (or be
    followed by {!refresh}). The execution context (default
    {!Exec.default}) governs later {!apply} calls that don't override
    it. Raises [Invalid_argument] on unsafe queries. *)

val query : t -> Cq.Query.t
val tuples : t -> Relalg.Relation.tuple list
val cardinality : t -> int

val apply : ?exec:Exec.t -> t -> Updategram.t -> unit
(** Apply the updategram to the underlying database {e and} maintain
    the view (deletes processed before inserts): the view's derivation
    counts are patched per touched tuple under a [view.maintain] span,
    ending with the contents {!refresh} would compute.  [exec] defaults
    to the context given at {!create}. *)

val refresh : t -> unit
(** Full recomputation from the current database state. *)

(** {2 Maintenance without mutating the database}

    For several views sharing one database (update propagation), the
    caller owns the mutation and invokes these around it. *)

val maintain_insert : t -> rel:string -> Relalg.Relation.tuple -> unit
(** Count the new derivations using the tuple. Call {e after} the tuple
    was (distinctly) inserted into the shared database. *)

val maintain_delete : t -> rel:string -> Relalg.Relation.tuple -> unit
(** Discount the derivations using the tuple. Call {e before} the tuple
    is removed from the shared database. *)

val delta_bindings_processed : t -> int
(** Total satisfying assignments enumerated by incremental maintenance —
    the work metric the E9 benchmark reports against recomputation. *)
