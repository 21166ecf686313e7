type mapping_id = int

(* The reformulation artifacts, indexed. Immutable once built, except
   for the identity-view cache, which [lock] guards. *)
type compiled = {
  rules : (string, (mapping_id option * Cq.Query.t) list) Hashtbl.t;
  views : (mapping_id option * Cq.Query.t) array;
  by_pred : (string, int list) Hashtbl.t;
  per_mapping : int array;
  identity : (string * int, Cq.Query.t) Hashtbl.t;
  lock : Mutex.t;
}

type t = {
  mutable peers : Peer.t list;
  mutable storage : Storage_desc.t list;
  mutable mappings : (mapping_id * Peer_mapping.t) list;
  mutable next_id : mapping_id;
  (* Built on the first lookup after a mutation; every mutation resets
     it to [None]. *)
  mutable compiled : compiled option;
  lock : Mutex.t;
  stored : (string, unit) Hashtbl.t;
}

let create () =
  {
    peers = [];
    storage = [];
    mappings = [];
    next_id = 0;
    compiled = None;
    lock = Mutex.create ();
    stored = Hashtbl.create 16;
  }

let mapping_pred id reversed =
  Printf.sprintf "~map%d%s" id (if reversed then "r" else "")

let mapping_id_of_pred pred =
  if String.length pred > 4 && String.sub pred 0 4 = "~map" then
    let digits =
      String.sub pred 4 (String.length pred - 4)
      |> String.to_seq
      |> Seq.take_while (fun c -> c >= '0' && c <= '9')
      |> String.of_seq
    in
    int_of_string_opt digits
  else None

let retarget pred (q : Cq.Query.t) =
  { q with Cq.Query.head = { q.Cq.Query.head with Cq.Atom.pred = pred } }

(* One GAV rule + one LAV view per mapping direction. *)
let artifacts_of_mapping (id, mapping) =
  let mid = Some id in
  match mapping with
  | Peer_mapping.Definitional rule ->
      ([ (rule.Cq.Query.head.Cq.Atom.pred, (mid, rule)) ], [])
  | Peer_mapping.Glav g ->
      let directions =
        match g.Rewrite.Glav.kind with
        | Rewrite.Glav.Inclusion -> [ (false, g) ]
        | Rewrite.Glav.Equality -> (
            [ (false, g) ]
            @
            match Rewrite.Glav.reversed g with
            | Some rg -> [ (true, rg) ]
            | None -> [])
      in
      let rules, views =
        List.fold_left
          (fun (rules, views) (rev, g) ->
            let pred = mapping_pred id rev in
            let rule = retarget pred g.Rewrite.Glav.lhs in
            let view = retarget pred g.Rewrite.Glav.rhs in
            ((pred, (mid, rule)) :: rules, (mid, view) :: views))
          ([], []) directions
      in
      (rules, views)

(* Rules for one predicate are listed oldest mapping first. Views are
   numbered in catalog order — storage descriptions newest first, then
   mapping views oldest first — and the predicate index keeps each
   list ascending, since MiniCon's output order follows the order of
   its views. *)
let compile_now t =
  let rules, views =
    List.fold_left
      (fun (rules, views) m ->
        let r, v = artifacts_of_mapping m in
        (r @ rules, v @ views))
      ([], []) t.mappings
  in
  let storage_views = List.map (fun d -> (None, d.Storage_desc.view)) t.storage in
  let rule_index = Hashtbl.create 64 in
  List.iter
    (fun (pred, rule) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt rule_index pred) in
      Hashtbl.replace rule_index pred (rule :: prev))
    (List.rev rules);
  let views = Array.of_list (storage_views @ views) in
  let by_pred = Hashtbl.create 64 in
  let per_mapping = Array.make t.next_id 0 in
  for i = Array.length views - 1 downto 0 do
    let mid, view = views.(i) in
    List.iter
      (fun pred ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_pred pred) in
        Hashtbl.replace by_pred pred (i :: prev))
      (Cq.Query.body_preds view);
    Option.iter (fun id -> per_mapping.(id) <- per_mapping.(id) + 1) mid
  done;
  {
    rules = rule_index;
    views;
    by_pred;
    per_mapping;
    identity = Hashtbl.create 16;
    lock = Mutex.create ();
  }

let compile t =
  Mutex.protect t.lock (fun () ->
      match t.compiled with
      | Some c -> c
      | None ->
          let c = compile_now t in
          t.compiled <- Some c;
          c)

let invalidate t = t.compiled <- None

let add_peer t peer =
  if List.exists (fun p -> String.equal (Peer.name p) (Peer.name peer)) t.peers
  then invalid_arg ("Catalog.add_peer: duplicate peer " ^ Peer.name peer);
  t.peers <- peer :: t.peers;
  List.iter (fun pred -> Hashtbl.replace t.stored pred ()) (Peer.stored_preds peer)

let peer t name =
  match List.find_opt (fun p -> String.equal (Peer.name p) name) t.peers with
  | Some p -> p
  | None -> invalid_arg ("Catalog.peer: unknown peer " ^ name)

let peers t = List.rev t.peers

let add_storage t desc =
  t.storage <- desc :: t.storage;
  Hashtbl.replace t.stored (Storage_desc.stored_pred desc) ();
  invalidate t

let store_identity t peer ~rel =
  let attrs = List.assoc rel (Peer.schema peer) in
  let relation =
    match Relalg.Database.find_opt (Peer.stored_db peer) (Peer.stored_pred peer rel) with
    | Some r -> r
    | None -> Peer.add_stored peer ~rel ~attrs
  in
  Hashtbl.replace t.stored (Peer.stored_pred peer rel) ();
  add_storage t (Storage_desc.identity peer ~rel);
  relation

let add_mapping t mapping =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.mappings <- (id, mapping) :: t.mappings;
  invalidate t;
  id

let mappings t = List.rev t.mappings
let mapping_count t = List.length t.mappings

let is_stored t pred = Hashtbl.mem t.stored pred

let rules_for (c : compiled) pred =
  Option.value ~default:[] (Hashtbl.find_opt c.rules pred)

let has_rules (c : compiled) pred = Hashtbl.mem c.rules pred

let views_for (c : compiled) preds =
  List.concat_map
    (fun p -> Option.value ~default:[] (Hashtbl.find_opt c.by_pred p))
    preds
  |> List.sort_uniq Int.compare
  |> List.map (fun i -> c.views.(i))

let views_of_mapping (c : compiled) id = c.per_mapping.(id)

let identity_view (c : compiled) pred arity =
  Mutex.protect c.lock (fun () ->
      match Hashtbl.find_opt c.identity (pred, arity) with
      | Some view -> view
      | None ->
          let args = List.init arity (fun i -> Cq.Term.v (Printf.sprintf "I%d" i)) in
          let atom = Cq.Atom.make pred args in
          let view = Cq.Query.make atom [ atom ] in
          Hashtbl.replace c.identity (pred, arity) view;
          view)

let global_db t =
  let db = Relalg.Database.create () in
  List.iter
    (fun peer ->
      List.iter
        (fun rel -> Relalg.Database.add_relation db rel)
        (Relalg.Database.relations (Peer.stored_db peer)))
    t.peers;
  db
