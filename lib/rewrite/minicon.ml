open Cq

type stats = {
  mcds_formed : int;
  combinations_tried : int;
  rewritings_produced : int;
}

module Iset = Set.Make (Int)

(* All MCDs of [view] for query [q] (body [body], distinguished
   variables [head_vars]), each as the piece it contributes to a
   rewriting. Each MCD starts from one (subgoal, view-atom) seed and is
   closed under the forced-coverage rule: a query variable mapped to an
   existential view variable drags every subgoal mentioning it into the
   MCD. *)
let mcds_of_view (q : Query.t) ~body ~head_vars (view : Query.t) =
  let n = Array.length body in
  let subgoals_with x =
    List.filter (fun j -> List.mem x (Atom.vars body.(j))) (List.init n Fun.id)
  in
  let results = ref [] in
  (* Returns the subgoals forced by the variables of subgoal [j], or None
     when a distinguished query variable maps to an existential view
     variable (condition C1 of MiniCon). *)
  let forced_by st j =
    List.fold_left
      (fun acc x ->
        match acc with
        | None -> None
        | Some forced ->
            if Cover.maps_to_existential ~view st x then
              if List.mem x head_vars then None
              else Some (subgoals_with x @ forced)
            else Some forced)
      (Some []) (Atom.vars body.(j))
  in
  let rec close st covered = function
    | [] -> results := (st, covered) :: !results
    | j :: rest when Iset.mem j covered -> close st covered rest
    | j :: rest ->
        List.iter
          (fun b ->
            match Cover.match_subgoal ~view st body.(j) b with
            | None -> ()
            | Some st' -> (
                match forced_by st' j with
                | None -> ()
                | Some forced -> close st' (Iset.add j covered) (forced @ rest)))
          view.Query.body
  in
  (* Seed from every subgoal; dedupe solutions afterwards. *)
  for i = 0 to n - 1 do
    close Cover.empty Iset.empty [ i ]
  done;
  (* Two solutions are the same MCD when they cover the same subgoals
     with the same resolved bindings. Keys are compared structurally;
     a view yields only a few solutions, so a list of seen keys does. *)
  let key (st, covered) = (Iset.elements covered, Cover.resolved_bindings st) in
  let seen = ref [] in
  List.filter_map
    (fun ((st, covered) as solution) ->
      let k = key solution in
      if List.exists (fun k' -> compare k k' = 0) !seen then None
      else begin
        seen := k :: !seen;
        Some
          (Build.piece ~view ~state:st ~covered:(Iset.elements covered)
             ~query:q)
      end)
    !results

module Query_tbl = Hashtbl.Make (struct
  type t = Query.t

  let equal = Query.equal
  let hash = Hashtbl.hash
end)

let rewrite ~views (q : Query.t) =
  let body = Array.of_list q.Query.body in
  let head_vars = Query.head_vars q in
  let mcds =
    List.concat_map (mcds_of_view q ~body ~head_vars) views
    |> List.map (fun (p : Build.piece) -> (p, Iset.of_list (Build.covered p)))
  in
  let n = Query.size q in
  let full = Iset.of_list (List.init n Fun.id) in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    "~f" ^ string_of_int !counter
  in
  let combinations = ref 0 in
  let rewritings = ref [] in
  (* Exact-partition combination (justified by MCD minimality). *)
  let rec combine covered chosen =
    if Iset.equal covered full then begin
      incr combinations;
      match Build.assemble ~fresh q (List.rev chosen) with
      | Some r -> rewritings := Minimize.remove_duplicate_atoms r :: !rewritings
      | None -> ()
    end
    else
      let j = Iset.min_elt (Iset.diff full covered) in
      List.iter
        (fun (m, mset) ->
          if Iset.mem j mset && Iset.is_empty (Iset.inter mset covered) then
            combine (Iset.union covered mset) (m :: chosen))
        mcds
  in
  if n > 0 then combine Iset.empty [];
  (* Syntactic dedupe on sorted bodies, hash-set backed and keyed on
     the query structure: first occurrence wins, linear in the number
     of rewritings. *)
  let normalize (r : Query.t) =
    { r with Query.body = List.sort Atom.compare r.Query.body }
  in
  let seen_rewriting = Query_tbl.create 32 in
  let deduped =
    List.filter
      (fun r ->
        let nr = normalize r in
        if Query_tbl.mem seen_rewriting nr then false
        else begin
          Query_tbl.replace seen_rewriting nr ();
          true
        end)
      !rewritings
  in
  ( deduped,
    {
      mcds_formed = List.length mcds;
      combinations_tried = !combinations;
      rewritings_produced = List.length deduped;
    } )

let expand ~views r = Unfold.expand views r

let is_contained_rewriting ~views r q =
  (* The target query's signature is loop-invariant; precompute it so
     each expansion pays only its own signature + (if compatible) the
     homomorphism search. *)
  let super = Signature.of_query q in
  List.for_all
    (fun e ->
      Containment.contained_in_with ~sub:(Signature.of_query e) ~super e q)
    (expand ~views r)
