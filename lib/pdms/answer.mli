(** End-to-end PDMS query answering: reformulate onto stored relations,
    then evaluate the union of rewritings over the peers' stored data.
    "The moment a peer establishes mappings to other sources, it can pose
    queries using its native schema, which will return answers from all
    mapped peers" (Example 3.1). *)

type result = {
  answers : Relalg.Relation.t;
  outcome : Reformulate.outcome;
}

val answer : ?exec:Exec.t -> Catalog.t -> Cq.Query.t -> result
(** [exec] ({!Exec.default} when omitted) carries pruning, the domain
    count and the span tracer. [exec.jobs > 1] parallelises both
    the reformulation's final subsumption sweep
    ({!Reformulate.reformulate}) and the union evaluation: the
    {!Cq.Plan} trie walk is sharded across top-level branches over the
    live global database, frozen first (as {!Distributed.execute}
    does), and the partial answers merge through a shared dedup set.
    The rewriting list and the answer {e set} are identical for every
    [exec.jobs]. Opens an ["answer"] span on [exec.trace] with
    ["reformulate"] (and its ["sweep"]) and ["eval"] children; records
    [pdms.answer.*] metrics. *)

val eval_union :
  ?exec:Exec.t -> Relalg.Database.t -> Cq.Query.t list -> Relalg.Relation.t
(** Evaluate a union of rewritings over [db] through one shared-prefix
    {!Cq.Plan} trie (a single rewriting is a one-leaf trie), optionally
    in parallel.
    With [exec.jobs > 1] the database is frozen
    ({!Relalg.Database.freeze}) and must not be mutated concurrently.
    Raises on an empty list. Opens an ["eval"] span and records
    [pdms.eval.*] metrics (per-rewriting pre-dedup tuple counts and the
    union dedup rate — both independent of [exec.jobs]). *)

val answers_list : result -> string list list
(** Answer tuples rendered as strings, sorted lexicographically with
    [String.compare] — convenient for tests and examples. *)

val reachable_peers : Catalog.t -> string -> string list
(** Peers whose data is reachable from the given peer through the
    mapping graph (including itself) — the "web of data" the paper's
    Figure 2 caption describes. *)
