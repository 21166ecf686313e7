(** Version-guarded, delta-patched inverted index for keyword search.

    One {!entry} per stored relation, keyed on {!Relalg.Relation.uid}
    and guarded by {!Relalg.Relation.version} (the {!Relalg.Stats}
    discipline): postings lists [token -> (slot_id, tf)], per-slot
    term-frequency vectors in ascending token order, and lazily
    computed per-slot norms.  When the relation's version moves, the
    entry is {e patched} from {!Relalg.Relation.deltas_since} — removed
    tuples are tombstoned in place (postings spliced, slot marked
    dead), inserted tuples take fresh ascending slots — counted in
    [pdms.delta.patched_postings].  Once dead slots outnumber live
    ones the entry is compacted: live slots are renumbered densely in
    ascending order, with postings, norms and dirty slots remapped
    ([pdms.kwindex.compactions]).  A full reindex of the relation
    happens only on a cold entry or when the delta log was truncated
    past the cached version ([pdms.delta.rebuild_fallbacks]); the
    bounded store evicts its least-recently-used entry on overflow
    instead of resetting wholesale.

    Corpus statistics are patched too.  Each entry patch logs the
    tokens it touched (keyed by version) and the slots it added or
    killed.  The merged corpus is memoised per reachable uid set in a
    small table; when only versions moved and every moved entry's log
    reaches back to the memo, df is recomputed for the touched tokens
    only ([pdms.kwindex.df_patched]).  When [n] (the reachable live
    document count) is also unchanged, an entry whose norms belong to
    the memo's previous corpus re-norms only its dirty slots and the
    live slots posted under tokens whose idf changed bitwise
    ([pdms.kwindex.norms_patched]).  A cold or rebuilt entry, a new
    reachable set or a changed [n] takes the full df merge or the full
    re-norm.  [pdms.kwindex.df_merges] counts every corpus recompute,
    patched or full.

    Scoring through {!probe} is bit-identical to vectorizing every
    tuple and taking {!Util.Tfidf.cosine} against the query vector —
    term frequencies, norms, and partial dot products replay the exact
    floating-point op order of that scan, and patched or
    compacted entries preserve live-doc enumeration order (tie-breaks
    included) relative to a rebuild (see the implementation header for
    the argument).

    Instrumented with
    [pdms.kwindex.{builds,postings,df_merges,df_patched,norms_patched,compactions}]
    counters and a [pdms.kwindex.posting_len] histogram; the search
    layer adds the per-query counters. *)

type posting = {
  mutable ids : int array;
  mutable tfs : float array;
  mutable len : int;
  mutable max_tf : float;
}
(** One token's postings within a relation: parallel arrays (capacity
    may exceed [len]; cells [0 .. len-1] are meaningful) of ascending
    live slot ids and term frequencies, plus the largest live tf
    (feeds the early-termination bound). *)

type entry = {
  uid : int;
  mutable version : int;  (** the relation version the entry reflects *)
  peer : string;  (** owner per {!Distributed.owner_of_pred}, "" if unqualified *)
  rel_name : string;
  mutable tuples : Relalg.Relation.tuple array;
      (** slot -> tuple; meaningful for slots [0 .. n_slots-1] *)
  mutable token_tfs : (string * float) array array;
      (** per slot: (token, tf) ascending by token; [[||]] on dead slots *)
  mutable live : bool array;  (** tombstone map over slots *)
  mutable n_slots : int;  (** allocated slots, live or dead *)
  postings : (string, posting) Hashtbl.t;
  mutable doc_count : int;  (** live slots only *)
  mutable norms : (int * float array * float) option;
      (** (corpus stamp, per-slot norms, min positive norm) — managed
          by {!probe}; treat as private *)
  mutable dirty : int list;
      (** slots added or killed since [norms] was computed — private *)
  mutable log : (int * string list) list;
      (** newest first: (version a patch started from, tokens it
          touched), the last few patches — private *)
  mutable last_used : int;  (** LRU clock — managed by {!get} *)
}

type probe = {
  source : entry;
  scores : float array;  (** indexed by slot id; only candidates valid *)
  candidates : int array;  (** ascending live slot ids sharing >= 1 query token *)
  bound : float;
      (** upper bound on any candidate's score in this relation; if it
          cannot beat the current top-k floor the whole relation is
          skippable without changing the result *)
}

val tuple_tokens : Relalg.Relation.tuple -> string list
(** Tokenised + stemmed values of a tuple, in value order. *)

val get : rel_name:string -> Relalg.Relation.t -> entry * bool
(** [get ~rel_name rel] returns the index entry for [rel].  A cached
    entry at the current version is served as-is; a stale one is
    delta-patched under the store lock when the relation's delta log
    still reaches back — otherwise it is rebuilt from scratch.  The
    flag is [true] only when a full (re)build happened.  Thread-safe;
    concurrent searches serialise their patching on the store lock. *)

val corpus : entry list -> int * Util.Tfidf.corpus
(** [corpus entries] merges the per-relation df counts of the given
    (reachable) entries into a global corpus, memoised per reachable
    uid list (a small table of the most recently computed): an unchanged set of
    versions reuses the memo, moved versions whose patch logs reach
    back to it patch the touched tokens' df, anything else merges in
    full. Returns a stamp identifying the corpus; per-entry norm caches
    are keyed on it. *)

val probe :
  entry -> stamp:int -> Util.Tfidf.corpus -> Util.Tfidf.vector -> probe
(** [probe entry ~stamp corpus query_vec] accumulates partial dot
    products for the query's tokens over this relation's postings
    only. [query_vec] must be token-ascending (as
    {!Util.Tfidf.vectorize} output is). Computes and caches the
    entry's norms for [stamp] on first use — re-norming only dirty and
    idf-changed slots when [stamp]'s corpus was patched from the one
    the cached norms belong to — safe to call from parallel shards as
    long as each entry is probed by one shard. *)

val drop : Relalg.Relation.t -> unit
(** Forget [rel]'s entry, so the next {!get} rebuilds it from scratch. *)

val store_size : unit -> int
(** Number of relations currently indexed (bounded by {!max_entries}). *)

val max_entries : int
(** Store capacity; overflow evicts the least-recently-used entry. *)

val reset : unit -> unit
(** Drop every cached entry and every corpus memo (tests/benchmarks). *)
