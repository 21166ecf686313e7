(** Text serialisation of the triple store in an N-Triples-flavoured
    line format, with provenance carried in a trailing comment — the
    paper calls MANGROVE's annotation language "syntactic sugar for
    basic RDF", and this is the RDF-facing exchange format:

    {v
    <u/alice#person0> <phone> "206-543-1695" . # <http://u/alice> 3 bob
    v}

    (source URL, timestamp, optional author). *)

val export : Triple_store.t -> string
(** One line per triple, deterministic order. *)

val import : string -> (Triple_store.t, string) result
(** Inverse of [export]; blank lines and [#]-only comment lines are
    skipped.  An object is typed by {!Relalg.Value.of_string} only when
    the typed value renders back to the same text, so re-exporting an
    import reproduces it byte for byte. *)

val import_exn : string -> Triple_store.t
