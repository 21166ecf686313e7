open Cq

(* What a piece puts at one head argument of its view atom. *)
type slot =
  | Fixed of Term.t  (** a constant the cover binds the argument to *)
  | Exposed of string  (** the first covered query variable mapped to it *)
  | Hidden  (** no covered query variable reaches it: a fresh variable *)

(* Everything [assemble] needs from a piece depends on the piece alone,
   so it is computed once here; a piece then serves every combination
   it takes part in. *)
type piece = {
  view : Query.t;
  covered : int list;
  images : (string * Term.t) list;
      (* each mapped covered query variable with its view-side image *)
  merges : string list list;
      (* covered query variables the piece maps to one view variable,
         two or more per group, newest first *)
  slots : slot list;  (* one per head argument of the view *)
}

let covered p = p.covered

(* The view variable a covered query variable is mapped to, if any. *)
let mapped_to (_, image) =
  match image with Term.Var v -> Some v | Term.Const _ -> None

let piece ~view ~state ~covered ~query =
  let body = Array.of_list query.Query.body in
  let qvars =
    List.concat_map (fun i -> Atom.vars body.(i)) covered
    |> List.sort_uniq String.compare
  in
  let images =
    List.filter_map
      (fun x -> Option.map (fun t -> (x, t)) (Cover.image state x))
      qvars
  in
  let groups =
    List.fold_left
      (fun groups ((x, _) as xi) ->
        match mapped_to xi with
        | None -> groups
        | Some v ->
            if List.mem_assoc v groups then
              List.map
                (fun (v', g) -> if String.equal v v' then (v', x :: g) else (v', g))
                groups
            else groups @ [ (v, [ x ]) ])
      [] images
  in
  let merges =
    List.filter_map
      (fun (_, group) -> match group with [] | [ _ ] -> None | g -> Some g)
      groups
  in
  let slot head_arg =
    match Cover.resolve state head_arg with
    | Term.Const _ as c -> Fixed c
    | Term.Var v -> (
        match
          List.find_opt
            (fun xi ->
              match mapped_to xi with
              | Some v' -> String.equal v v'
              | None -> false)
            images
        with
        | Some (x, _) -> Exposed x
        | None -> Hidden)
  in
  let slots = List.map slot view.Query.head.Atom.args in
  { view; covered; images; merges; slots }

exception Conflict

let assemble ~fresh (q : Query.t) pieces =
  (* Query variables mapped to the same distinguished view variable by
     one piece are equated in the rewriting. The union-find is only
     allocated when some piece has such a group, which most
     combinations do not. *)
  let uf =
    if List.for_all (fun p -> p.merges = []) pieces then None
    else
      let size =
        List.fold_left (fun n p -> n + List.length p.images) 0 pieces
      in
      let t = Util.Union_find.create ~size () in
      List.iter
        (fun p ->
          List.iter
            (function
              | x :: rest -> List.iter (Util.Union_find.union t x) rest
              | [] -> ())
            p.merges)
        pieces;
      Some t
  in
  let repr x = match uf with None -> x | Some t -> Util.Union_find.find t x in
  (* Rewriting-side term for each (representative) query variable; a
     handful of entries, so an association list. *)
  let global = ref [] in
  let find key = List.assoc_opt key !global in
  let set key term = global := (key, term) :: List.remove_assoc key !global in
  try
    List.iter
      (fun p ->
        List.iter
          (fun (x, image) ->
            let key = repr x in
            match image with
            | Term.Const c -> (
                match find key with
                | Some (Term.Const c') when not (Relalg.Value.equal c c') ->
                    raise Conflict
                | Some (Term.Const _) -> ()
                | Some (Term.Var _) | None -> set key image)
            | Term.Var v ->
                if Query.is_distinguished p.view v && find key = None then
                  set key (Term.Var key))
          p.images)
      pieces;
    let atom_of_piece p =
      let args =
        List.map
          (function
            | Fixed c -> c
            | Exposed x -> (
                let key = repr x in
                match find key with Some t -> t | None -> Term.Var key)
            | Hidden -> Term.Var (fresh ()))
          p.slots
      in
      Atom.make p.view.Query.head.Atom.pred args
    in
    let body = List.map atom_of_piece pieces in
    let head_args =
      List.map
        (fun t ->
          match t with
          | Term.Const _ -> t
          | Term.Var x -> (
              match find (repr x) with
              | Some t -> t
              | None -> raise Conflict (* head variable not exposed *)))
        q.Query.head.Atom.args
    in
    Some { Query.head = Atom.make q.Query.head.Atom.pred head_args; body }
  with Conflict -> None
