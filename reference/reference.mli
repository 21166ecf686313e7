(** Baselines the production paths are checked and benchmarked against:
    the evaluators, scorers and rebuild-from-scratch maintenance that the
    batched, indexed and delta-patched paths replaced.  Every function
    here must agree with its production counterpart — answer sets, hit
    lists (bit-identical scores and tie-breaks included), index and
    statistics contents.  Linked by the tests and the bench only. *)

val eval_union : Relalg.Database.t -> Cq.Query.t list -> Relalg.Relation.t
(** Per-rewriting union: every rewriting evaluated on its own by
    {!Cq.Eval}, the answers deduplicated through one accumulator — no
    shared-prefix trie.  Raises on an empty list. *)

val answer : ?exec:Pdms.Exec.t -> Pdms.Catalog.t -> Cq.Query.t -> Pdms.Answer.result
(** {!Pdms.Answer.answer} with the union evaluated by {!eval_union}.
    [exec] drives the reformulation only. *)

val search :
  ?limit:int -> ?exec:Pdms.Exec.t -> ?network:Pdms.Network.t ->
  Pdms.Catalog.t -> string -> Pdms.Keyword.hit list
(** {!Pdms.Keyword.search} by brute force: rebuild the TF/IDF corpus
    and re-vectorize and cosine-score every reachable live tuple per
    call.  Tokenisation still comes from the shared {!Pdms.Kwindex}
    entries, so comparing against it measures indexing proper, not
    tokenisation caching.  [exec.jobs] shards the scoring; opens
    ["score"] and ["rank"] spans on [exec.trace]. *)

val rebuild_index : rel_name:string -> Relalg.Relation.t -> Pdms.Kwindex.entry
(** Reindex one relation from scratch instead of patching its entry
    from the retained deltas; the rebuilt entry replaces the cached
    one. *)

val rebuild_stats : Relalg.Relation.t -> Relalg.Stats.t
(** Rescan one relation's statistics instead of patching them; the
    rescanned entry replaces the cached one. *)
