(* Incremental inverted index over stored relations.

   One entry per relation, keyed on {!Relalg.Relation.uid} and guarded
   by {!Relalg.Relation.version} — the same discipline as
   {!Relalg.Stats} and the token memo this module replaces, except the
   store evicts a single least-recently-used entry on overflow instead
   of dumping everything (a reset would force a thundering rebuild of
   every live relation on the next search).

   Since the delta pipeline landed, a stale entry is {e patched} from
   the relation's retained {!Relalg.Relation.deltas_since} instead of
   rebuilt: removed tuples are tombstoned (their slot stays, marked
   dead, their postings spliced out) and inserted tuples take fresh
   ascending slots, so postings stay id-ascending without renumbering.
   A full rebuild happens only on a cold entry or when the delta log
   was truncated past the cached version (counted in
   [pdms.delta.rebuild_fallbacks]).
   Once dead slots outnumber live ones, the entry is compacted: live
   slots are renumbered densely in ascending order and postings, norms
   and dirty slots are remapped ([pdms.kwindex.compactions]).

   The corpus statistics follow the same patch-not-rebuild rule.
   - Each patch logs the tokens it touched, keyed by the version it
     started from, and marks the slots it added or killed dirty.  A
     rebuilt entry starts with an empty log.
   - The merged corpus is memoised per reachable uid set (a small
     table, so searches over different catalogs or fault-toggled
     reachable sets do not evict each other).  When only versions
     moved and every moved entry's log reaches back to the memo's
     version, df is recomputed for the touched tokens alone and
     patched into the memo's corpus ([pdms.kwindex.df_patched]); the
     patched corpus remembers its parent stamp and which tokens' idf
     changed bitwise — all of them when [n] changed.
   - An entry whose norms belong to the parent stamp re-norms only its
     dirty slots and the live slots posted under idf-changed tokens
     ([pdms.kwindex.norms_patched]), and only when [n] is unchanged.
     Every other case (cold entry, rebuilt entry, new reachable set,
     changed [n]) merges df and computes norms in full, as before.

   Byte-identity with brute-force scoring (vectorize every tuple, take
   the cosine) is load-bearing: indexed hit lists must equal it bit for
   bit. Three invariants keep it:
   - per-tuple term frequencies are accumulated with the same
     [+. 1.0] folds as {!Util.Tfidf.vectorize} and stored in ascending
     token order, so norms fold in the exact op order of [vectorize];
   - a tuple's weight is computed as [(tf *. idf) /. norm] — the two
     rounding steps [vectorize] performs, in the same order;
   - [probe] walks the query vector in ascending token order, so each
     candidate's partial dot products arrive in the order
     {!Util.Tfidf.cosine}'s merge would add them.
   Document frequencies merge as exact integer counts; converting with
   [float_of_int] equals [build]'s repeated [+. 1.0] for any count
   below 2^53.

   Patching preserves all three: live docs keep their tf vectors
   bit-for-bit, df counts stay exact integers ([len] per posting,
   summed afresh over every reachable entry for each touched token),
   a re-normed slot runs the same [slot_norm] fold over the same idf
   bits, a slot whose tokens' idf bits did not move keeps a norm equal
   to recomputing it, and candidate enumeration stays ascending by
   slot — dead slots are skipped and compaction keeps live slots in
   order, so the relative order of live docs (hence every Topk
   tie-break) equals a compacting rebuild's. *)

module Smap = Map.Make (String)

type posting = {
  mutable ids : int array;
  mutable tfs : float array;
  mutable len : int;
  mutable max_tf : float;
}
(* [ids.(0 .. len-1)] ascending live slot ids; [tfs.(i)] is the term
   frequency of the token in slot [ids.(i)].  Arrays are capacities —
   only the first [len] cells are meaningful. *)

type entry = {
  uid : int;
  mutable version : int;
  peer : string;
  rel_name : string;
  mutable tuples : Relalg.Relation.tuple array;
  mutable token_tfs : (string * float) array array;
      (* per slot, ascending token order; [[||]] on dead slots *)
  mutable live : bool array;
  mutable n_slots : int;
  postings : (string, posting) Hashtbl.t;
  mutable doc_count : int;  (* live slots *)
  mutable norms : (int * float array * float) option;
      (* (corpus stamp, per-slot norm, min positive norm) *)
  mutable dirty : int list;  (* slots added or killed since [norms] *)
  mutable log : (int * string list) list;
      (* newest first: (version a patch started from, tokens it
         touched); contiguous up to [version] *)
  mutable last_used : int;
}

type probe = {
  source : entry;
  scores : float array;
  candidates : int array;
  bound : float;
}

let m_builds = Obs.Metrics.counter "pdms.kwindex.builds"
let m_postings = Obs.Metrics.counter "pdms.kwindex.postings"
let m_df_merges = Obs.Metrics.counter "pdms.kwindex.df_merges"
let m_df_patched = Obs.Metrics.counter "pdms.kwindex.df_patched"
let m_norms_patched = Obs.Metrics.counter "pdms.kwindex.norms_patched"
let m_compactions = Obs.Metrics.counter "pdms.kwindex.compactions"
let h_posting_len = Obs.Metrics.histogram "pdms.kwindex.posting_len"
let m_patched = Obs.Metrics.counter "pdms.delta.patched_postings"
let m_fallbacks = Obs.Metrics.counter "pdms.delta.rebuild_fallbacks"

let tuple_tokens tuple =
  Array.to_list tuple
  |> List.concat_map (fun v -> Util.Tokenize.words (Relalg.Value.to_string v))
  |> List.map Util.Stemmer.stem

(* The tf map fold below is shared verbatim between [build] and
   [add_doc] — same op order, same rounding. *)
let tuple_tfs tuple =
  let tf =
    List.fold_left
      (fun acc tok ->
        Smap.update tok
          (function None -> Some 1.0 | Some x -> Some (x +. 1.0))
          acc)
      Smap.empty (tuple_tokens tuple)
  in
  Array.of_list (Smap.bindings tf)

let build ~rel_name rel =
  let peer =
    match Distributed.owner_of_pred rel_name with Some p -> p | None -> ""
  in
  let tuples = Array.of_list (Relalg.Relation.tuples rel) in
  let token_tfs = Array.map tuple_tfs tuples in
  let acc : (string, (int * float) list) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun id tfs ->
      Array.iter
        (fun (tok, tf) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt acc tok) in
          Hashtbl.replace acc tok ((id, tf) :: prev))
        tfs)
    token_tfs;
  let postings = Hashtbl.create (max 16 (Hashtbl.length acc)) in
  Hashtbl.iter
    (fun tok rev ->
      let l = List.rev rev in
      let ids = Array.of_list (List.map fst l) in
      let tfs = Array.of_list (List.map snd l) in
      let max_tf = Array.fold_left Float.max 0.0 tfs in
      Obs.Metrics.observe h_posting_len (float_of_int (Array.length ids));
      Hashtbl.replace postings tok { ids; tfs; len = Array.length ids; max_tf })
    acc;
  Obs.Metrics.incr m_builds;
  Obs.Metrics.add m_postings (Hashtbl.length postings);
  let n = Array.length tuples in
  {
    uid = Relalg.Relation.uid rel;
    version = Relalg.Relation.version rel;
    peer;
    rel_name;
    tuples;
    token_tfs;
    live = Array.make (max 1 n) true;
    n_slots = n;
    postings;
    doc_count = n;
    norms = None;
    dirty = [];
    log = [];
    last_used = 0;
  }

(* {2 Delta patching}  (caller holds [lock]) *)

let find_live_slot e tuple =
  let rec go i =
    if i >= e.n_slots then None
    else if e.live.(i) && Relalg.Relation.tuple_equal e.tuples.(i) tuple then
      Some i
    else go (i + 1)
  in
  go 0

(* Dirty slots only matter against cached norms; past [n_slots] of them
   a full renorm is as cheap, so the cache is dropped instead. *)
let mark_dirty e slot =
  if Option.is_some e.norms then
    if List.compare_length_with e.dirty e.n_slots > 0 then begin
      e.norms <- None;
      e.dirty <- []
    end
    else e.dirty <- slot :: e.dirty

(* Tombstone the lowest live slot holding [tuple]: splice its id out of
   every posting it appears in (recomputing max_tf by scan) and blank
   its tf vector so norms see a zero-norm dead doc. *)
let remove_doc e touched tuple =
  match find_live_slot e tuple with
  | None -> ()
  | Some slot ->
      Array.iter
        (fun (tok, _) ->
          Hashtbl.replace touched tok ();
          match Hashtbl.find_opt e.postings tok with
          | None -> ()
          | Some p ->
              let j = ref (-1) in
              for i = 0 to p.len - 1 do
                if p.ids.(i) = slot then j := i
              done;
              if !j >= 0 then begin
                for i = !j to p.len - 2 do
                  p.ids.(i) <- p.ids.(i + 1);
                  p.tfs.(i) <- p.tfs.(i + 1)
                done;
                p.len <- p.len - 1;
                if p.len = 0 then Hashtbl.remove e.postings tok
                else begin
                  let m = ref 0.0 in
                  for i = 0 to p.len - 1 do
                    m := Float.max !m p.tfs.(i)
                  done;
                  p.max_tf <- !m
                end
              end)
        e.token_tfs.(slot);
      e.token_tfs.(slot) <- [||];
      e.live.(slot) <- false;
      e.doc_count <- e.doc_count - 1;
      mark_dirty e slot

(* Append [tuple] at a fresh slot; since the new slot id exceeds every
   existing one, pushing it onto each posting keeps ids ascending. *)
let add_doc e touched tuple =
  let tfs = tuple_tfs tuple in
  let slot = e.n_slots in
  if slot >= Array.length e.tuples then begin
    let cap = max 4 (2 * Array.length e.tuples) in
    let grow blank a =
      let a' = Array.make cap blank in
      Array.blit a 0 a' 0 e.n_slots;
      a'
    in
    e.tuples <- grow [||] e.tuples;
    e.token_tfs <- grow [||] e.token_tfs;
    e.live <- grow false e.live
  end;
  e.tuples.(slot) <- tuple;
  e.token_tfs.(slot) <- tfs;
  e.live.(slot) <- true;
  e.n_slots <- e.n_slots + 1;
  e.doc_count <- e.doc_count + 1;
  mark_dirty e slot;
  Array.iter
    (fun (tok, tf) ->
      Hashtbl.replace touched tok ();
      match Hashtbl.find_opt e.postings tok with
      | Some p ->
          if p.len >= Array.length p.ids then begin
            let cap = max 4 (2 * Array.length p.ids) in
            let ids' = Array.make cap 0 in
            Array.blit p.ids 0 ids' 0 p.len;
            p.ids <- ids';
            let tfs' = Array.make cap 0.0 in
            Array.blit p.tfs 0 tfs' 0 p.len;
            p.tfs <- tfs'
          end;
          p.ids.(p.len) <- slot;
          p.tfs.(p.len) <- tf;
          p.len <- p.len + 1;
          p.max_tf <- Float.max p.max_tf tf
      | None ->
          Hashtbl.replace e.postings tok
            { ids = [| slot |]; tfs = [| tf |]; len = 1; max_tf = tf })
    tfs

let min_norm ns =
  Array.fold_left
    (fun acc n -> if n > 0.0 && n < acc then n else acc)
    infinity ns

(* Renumber the live slots densely, in ascending order, so enumeration
   order (and every tie-break) is unchanged.  Dead dirty slots vanish
   with their norms; live ones follow their slot. *)
let compact e =
  let remap = Array.make e.n_slots (-1) in
  let k = ref 0 in
  for i = 0 to e.n_slots - 1 do
    if e.live.(i) then begin
      remap.(i) <- !k;
      e.tuples.(!k) <- e.tuples.(i);
      e.token_tfs.(!k) <- e.token_tfs.(i);
      incr k
    end
  done;
  let live = !k in
  Array.fill e.live 0 live true;
  Array.fill e.live live (e.n_slots - live) false;
  Array.fill e.tuples live (e.n_slots - live) [||];
  Array.fill e.token_tfs live (e.n_slots - live) [||];
  Hashtbl.iter
    (fun _ p ->
      for i = 0 to p.len - 1 do
        p.ids.(i) <- remap.(p.ids.(i))
      done)
    e.postings;
  e.norms <-
    Option.map
      (fun (stamp, ns, _) ->
        let ns' = Array.make live 0.0 in
        Array.iteri (fun i n -> if remap.(i) >= 0 then ns'.(remap.(i)) <- n) ns;
        (stamp, ns', min_norm ns'))
      e.norms;
  e.dirty <-
    List.filter_map
      (fun s -> if remap.(s) >= 0 then Some remap.(s) else None)
      e.dirty;
  e.n_slots <- live

(* Log records older than this are dropped; a corpus memo that old
   falls back to a full df merge. *)
let max_log = 32

let patch e rel deltas =
  let touched = Hashtbl.create 16 in
  List.iter
    (fun d ->
      List.iter (remove_doc e touched) (Relalg.Relation.Delta.dels d);
      List.iter (add_doc e touched) (Relalg.Relation.Delta.adds d))
    deltas;
  let tokens = Hashtbl.fold (fun tok () acc -> tok :: acc) touched [] in
  e.log <- List.filteri (fun i _ -> i < max_log) ((e.version, tokens) :: e.log);
  e.version <- Relalg.Relation.version rel;
  if e.n_slots - e.doc_count > e.doc_count then begin
    compact e;
    Obs.Metrics.incr m_compactions
  end;
  Obs.Metrics.add m_patched (Hashtbl.length touched)

(* The tokens touched between version [v] and the entry's current
   version, if the log still reaches back to [v]. *)
let touched_since e v =
  let rec go acc = function
    | (from, toks) :: rest when from >= v ->
        if from = v then Some (toks @ acc) else go (toks @ acc) rest
    | _ -> None
  in
  if v = e.version then Some [] else go [] e.log

(* uid -> entry. Bounded; overflow evicts the single least-recently-used
   entry (O(store) scan, paid only at the cap). *)
let store : (int, entry) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()
let max_entries = 1024
let tick = ref 0

(* Caller holds [lock]. *)
let evict_lru () =
  let victim =
    Hashtbl.fold
      (fun uid e acc ->
        match acc with
        | Some (_, lu) when lu <= e.last_used -> acc
        | _ -> Some (uid, e.last_used))
      store None
  in
  match victim with Some (uid, _) -> Hashtbl.remove store uid | None -> ()

let get ~rel_name rel =
  let uid = Relalg.Relation.uid rel in
  let version = Relalg.Relation.version rel in
  Mutex.lock lock;
  incr tick;
  let now = !tick in
  let cached =
    match Hashtbl.find_opt store uid with
    | Some e when e.version = version ->
        e.last_used <- now;
        Some e
    | Some e -> (
        (* Stale entry: patch from the retained deltas under the lock —
           concurrent searches sharing the store serialise their index
           refresh here instead of racing on duplicate rebuilds. *)
        match Relalg.Relation.deltas_since rel e.version with
        | Some ds ->
            patch e rel ds;
            e.last_used <- now;
            Some e
        | None ->
            Obs.Metrics.incr m_fallbacks;
            None)
    | None -> None
  in
  Mutex.unlock lock;
  match cached with
  | Some e -> (e, false)
  | None ->
      (* Build outside the lock: racing searches may both scan the
         relation, but they write identical entries. *)
      let e = build ~rel_name rel in
      e.last_used <- now;
      Mutex.lock lock;
      if (not (Hashtbl.mem store uid)) && Hashtbl.length store >= max_entries
      then evict_lru ();
      Hashtbl.replace store uid e;
      Mutex.unlock lock;
      (e, true)

let drop rel =
  Mutex.protect lock (fun () -> Hashtbl.remove store (Relalg.Relation.uid rel))

let store_size () =
  Mutex.lock lock;
  let n = Hashtbl.length store in
  Mutex.unlock lock;
  n

(* The global corpus depends on the reachable set (down peers change df
   and n per query), so it can't live in the per-relation entries.  A
   small table holds one corpus per reachable uid set (the
   [max_memos] most recently computed); each recompute mints a fresh
   stamp that invalidates the per-entry norm caches, and a patched
   corpus records the stamp it came from and the tokens whose idf
   moved ([None]: all of them). *)
type memo = {
  uids : int list;
  versions : int list;
  stamp : int;
  tfidf : Util.Tfidf.corpus;
  parent : int;  (* stamp patched from; 0 after a full merge *)
  idf_changed : string list option;
}

let max_memos = 8
let stamp_counter = ref 0
let memos : memo list ref = ref []

let full_df entries =
  let df : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun e ->
      Hashtbl.iter
        (fun tok p ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt df tok) in
          Hashtbl.replace df tok (prev + p.len))
        e.postings)
    entries;
  Hashtbl.fold (fun tok c acc -> (tok, c) :: acc) df []

(* The tokens whose df may differ from [m]'s, if every moved entry's log
   reaches back to the version [m] saw it at. *)
let moved_tokens m entries =
  let seen = Hashtbl.create 16 in
  let rec go vs es =
    match (vs, es) with
    | [], [] -> true
    | v :: vs, e :: es -> (
        match touched_since e v with
        | Some toks ->
            List.iter (fun t -> Hashtbl.replace seen t ()) toks;
            go vs es
        | None -> false)
    | _ -> false
  in
  if go m.versions entries then
    Some (Hashtbl.fold (fun tok () acc -> tok :: acc) seen [])
  else None

let patched_df entries tokens =
  List.map
    (fun tok ->
      ( tok,
        List.fold_left
          (fun acc e ->
            match Hashtbl.find_opt e.postings tok with
            | Some p -> acc + p.len
            | None -> acc)
          0 entries ))
    tokens

let corpus entries =
  let uids = List.map (fun e -> e.uid) entries in
  let versions = List.map (fun e -> e.version) entries in
  Mutex.lock lock;
  let memo = List.find_opt (fun m -> m.uids = uids) !memos in
  Mutex.unlock lock;
  match memo with
  | Some m when m.versions = versions -> (m.stamp, m.tfidf)
  | _ ->
      let n = List.fold_left (fun acc e -> acc + e.doc_count) 0 entries in
      let tfidf, parent, idf_changed =
        let moved m = Option.map (fun t -> (m, t)) (moved_tokens m entries) in
        match Option.bind memo moved with
        | Some (m, tokens) ->
            let c = Util.Tfidf.patch m.tfidf ~n (patched_df entries tokens) in
            let changed =
              if n <> Util.Tfidf.num_docs m.tfidf then None
              else
                Some
                  (List.filter
                     (fun tok ->
                       Int64.bits_of_float (Util.Tfidf.idf c tok)
                       <> Int64.bits_of_float (Util.Tfidf.idf m.tfidf tok))
                     tokens)
            in
            Obs.Metrics.incr m_df_patched;
            (c, m.stamp, changed)
        | None -> (Util.Tfidf.of_counts ~n (full_df entries), 0, None)
      in
      Mutex.lock lock;
      incr stamp_counter;
      let stamp = !stamp_counter in
      let fresh = { uids; versions; stamp; tfidf; parent; idf_changed } in
      memos :=
        fresh
        :: List.filteri
             (fun i _ -> i < max_memos - 1)
             (List.filter (fun m -> m.uids <> uids) !memos);
      Mutex.unlock lock;
      Obs.Metrics.incr m_df_merges;
      (stamp, tfidf)

(* The one norm fold: [vectorize]'s op order over a slot's tf vector.
   Dead slots carry [[||]], so they norm to 0.0. *)
let slot_norm c tfs =
  sqrt
    (Array.fold_left
       (fun acc (tok, tf) ->
         let w = tf *. Util.Tfidf.idf c tok in
         acc +. (w *. w))
       0.0 tfs)

(* The norms at [from] and the idf-changed tokens, when [stamp]'s corpus
   was patched from [from] with [n] unchanged. *)
let norm_patch entry ~stamp =
  match entry.norms with
  | None -> None
  | Some (from, ns, mn) -> (
      Mutex.lock lock;
      let m = List.find_opt (fun m -> m.stamp = stamp) !memos in
      Mutex.unlock lock;
      match m with
      | Some { parent; idf_changed = Some toks; _ } when parent = from ->
          Some (ns, mn, toks)
      | _ -> None)

let norms entry ~stamp c =
  match entry.norms with
  | Some (s, ns, mn) when s = stamp -> (ns, mn)
  | _ ->
      let ns, mn =
        match norm_patch entry ~stamp with
        | Some (ns, mn, toks)
          when entry.dirty = []
               && not (List.exists (Hashtbl.mem entry.postings) toks) ->
            (* Nothing this entry holds moved: the norms carry over. *)
            (ns, mn)
        | Some (old, _, toks) ->
            (* Copied, not updated in place: a concurrent probe may
               still be reading [old]. *)
            let ns = Array.make entry.n_slots 0.0 in
            Array.blit old 0 ns 0 (min (Array.length old) entry.n_slots);
            let renorm id = ns.(id) <- slot_norm c entry.token_tfs.(id) in
            List.iter renorm entry.dirty;
            List.iter
              (fun tok ->
                match Hashtbl.find_opt entry.postings tok with
                | Some p ->
                    for i = 0 to p.len - 1 do
                      renorm p.ids.(i)
                    done
                | None -> ())
              toks;
            Obs.Metrics.incr m_norms_patched;
            (ns, min_norm ns)
        | None ->
            let ns =
              Array.init entry.n_slots (fun id ->
                  slot_norm c entry.token_tfs.(id))
            in
            (ns, min_norm ns)
      in
      entry.norms <- Some (stamp, ns, mn);
      entry.dirty <- [];
      (ns, mn)

let probe entry ~stamp c query_vec =
  let ns, min_norm = norms entry ~stamp c in
  let scores = Array.make (max 1 entry.n_slots) 0.0 in
  let seen = Array.make (max 1 entry.n_slots) false in
  let touched = ref [] in
  let bound = ref 0.0 in
  List.iter
    (fun (tok, qw) ->
      match Hashtbl.find_opt entry.postings tok with
      | None -> ()
      | Some p ->
          let idf = Util.Tfidf.idf c tok in
          (* Every true per-token contribution is dominated term-wise
             by [qw *. ((max_tf *. idf) /. min_norm)]; round-to-nearest
             is monotone, so the accumulated bound dominates every
             candidate's final score. *)
          bound := !bound +. (qw *. ((p.max_tf *. idf) /. min_norm));
          for i = 0 to p.len - 1 do
            let id = p.ids.(i) in
            let w = (p.tfs.(i) *. idf) /. ns.(id) in
            scores.(id) <- scores.(id) +. (qw *. w);
            if not seen.(id) then begin
              seen.(id) <- true;
              touched := id :: !touched
            end
          done)
    query_vec;
  let candidates = Array.of_list (List.sort Int.compare !touched) in
  { source = entry; scores; candidates; bound = !bound }

let reset () =
  Mutex.lock lock;
  Hashtbl.reset store;
  memos := [];
  tick := 0;
  Mutex.unlock lock
