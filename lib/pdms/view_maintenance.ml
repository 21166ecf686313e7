(* Counting maintenance of a view union through the Plan slot kernel.
   The counting argument is in DESIGN.md ("View maintenance"). *)

open Cq

module Relation = Relalg.Relation
module Tbl = Relation.Tbl

type t = {
  views : Query.t list;
  db : Relalg.Database.t;
  exec : Exec.t;
  arity : int;  (* every view's head arity *)
  counts : int ref Tbl.t;  (* view row -> derivations over the support *)
  mutable delta_bindings : int;
}

(* The view's body [body] under [s], with a head that tags the view
   ([i]), then lists the view row, then the whole assignment: distinct
   heads are distinct (view, assignment) derivations. *)
let derivation i (view : Query.t) s body =
  let term = Subst.apply_term s in
  let args =
    (Term.int i :: List.map term view.Query.head.Atom.args)
    @ List.map (fun x -> term (Term.v x)) (Query.vars view)
  in
  Query.make (Atom.make "~derivation" args) (List.map (Subst.apply_atom s) body)

(* Count every distinct derivation the union emits once, moving its
   view row's count by [sign]; returns how many were counted. The
   scratch head is copied only when it is new, and counts are bumped in
   place so the stored keys stay the owned copies. *)
let tally ~trace t sign = function
  | [] -> 0
  | queries ->
      let plan = Plan.build ~trace t.db queries in
      let seen = Tbl.create 64 in
      Plan.iter ~trace t.db plan (fun _ head _ ->
          if not (Tbl.mem seen head) then begin
            Tbl.add seen (Array.copy head) ();
            let row = Array.sub head 1 t.arity in
            match Tbl.find_opt t.counts row with
            | Some n ->
                n := !n + sign;
                if !n = 0 then Tbl.remove t.counts row
            | None -> Tbl.add t.counts row (ref sign)
          end);
      Tbl.length seen

let refresh t =
  let trace = t.exec.Exec.trace in
  Obs.Trace.span trace "view.refresh" @@ fun () ->
  Tbl.reset t.counts;
  ignore
    (tally ~trace t 1
       (List.mapi (fun i v -> derivation i v Subst.empty v.Query.body) t.views)
      : int)

let create ?(exec = Exec.default) db views =
  let arity =
    match views with [] -> 0 | v :: _ -> Atom.arity v.Query.head
  in
  if
    List.exists
      (fun v -> (not (Query.is_safe v)) || Atom.arity v.Query.head <> arity)
      views
  then invalid_arg "View_maintenance.create: unsafe view or mixed arities";
  let t =
    { views; db; exec; arity; counts = Tbl.create 64; delta_bindings = 0 }
  in
  refresh t;
  t

let tuples t = Tbl.fold (fun row _ acc -> row :: acc) t.counts []
let cardinality t = Tbl.length t.counts

(* One copy of each view per occurrence of [rel] and per row that the
   occurrence matches, with the grounded atom dropped: it holds by
   construction. *)
let grounded t rel rows =
  List.concat
    (List.mapi
       (fun i (view : Query.t) ->
         List.concat
           (List.mapi
              (fun k (atom : Atom.t) ->
                if not (String.equal atom.Atom.pred rel) then []
                else
                  let rest = List.filteri (fun j _ -> j <> k) view.Query.body in
                  List.filter_map
                    (fun row ->
                      Array.to_list row |> List.map Term.c |> Atom.make rel
                      |> Subst.match_atom Subst.empty atom
                      |> Option.map (fun s -> derivation i view s rest))
                    rows)
              view.Query.body))
       t.views)

let apply_all ?(exec = Exec.default) db views (u : Updategram.t) =
  let rel = Relalg.Database.find db u.Updategram.rel in
  let trace = exec.Exec.trace in
  Obs.Trace.span trace "view.maintain" @@ fun () ->
  let d = Updategram.effective_delta rel u in
  (* Counts range over the stored rows' support: a deleted row leaves
     it with its last copy, and an inserted row joins it when no copy
     is left once the deletes are through. *)
  let copies = Relation.multiplicity rel in
  let gone = List.filter (fun row -> copies row = 1) (Relation.Delta.dels d)
  and joined =
    List.filter (fun row -> copies row <= 1) (Relation.Delta.adds d)
  in
  let maintain sign rows t =
    t.delta_bindings <-
      t.delta_bindings + tally ~trace t sign (grounded t u.Updategram.rel rows)
  in
  List.iter (maintain (-1) gone) views;
  Relation.apply rel d;
  List.iter (maintain 1 joined) views

let apply ?exec t u =
  apply_all ~exec:(Option.value ~default:t.exec exec) t.db [ t ] u

let delta_bindings_processed t = t.delta_bindings
