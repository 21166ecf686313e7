(** PDMS generation over arbitrary topologies — the workload of the E1
    and E2 reformulation-scalability benchmarks. Every peer carries a
    course relation (and, for join workloads, an instructor relation);
    equality mappings are authored along each topology edge. *)

type generated = {
  catalog : Pdms.Catalog.t;
  peers : Pdms.Peer.t array;
  topology : Pdms.Topology.t;
}

val generate :
  Util.Prng.t ->
  topology:Pdms.Topology.t ->
  tuples_per_peer:int ->
  ?with_join:bool ->
  unit ->
  generated
(** [with_join] adds a second relation per peer plus its mappings
    (default false). *)

val course_query : generated -> at:int -> Cq.Query.t
(** Select-all over the course relation of peer [at]. *)

val join_query : generated -> at:int -> Cq.Query.t
(** Course-instructor join at peer [at]; requires [with_join]. *)

val keyword_query : generated -> Util.Prng.t -> string
(** One keyword query of 1–3 words sampled from the values of a random
    stored course tuple — guaranteed to have matching postings. *)

val keyword_queries : generated -> Util.Prng.t -> n:int -> string list

val chain_query : generated -> at:int -> Cq.Query.t
(** Three-atom chain at peer [at]: course joined to instr on code,
    joined to a second course atom on person ("titles of course pairs
    sharing an instructor"). Requires [with_join]. Rewritings of this
    query share two-atom join prefixes, which is what the batch
    evaluator exploits. *)
