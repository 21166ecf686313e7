open Cq

(* Query variables' images and view variables' bindings are kept in two
   maps, so a view's variables may share names with the query's. *)
type state = { images : Subst.t; bindings : Subst.t }

let empty = { images = Subst.empty; bindings = Subst.empty }

let resolve st vterm = Subst.walk st.bindings vterm

let image st x = Option.map (resolve st) (Subst.find st.images x)

let bind_view st v term = { st with bindings = Subst.bind st.bindings v term }

let resolved_bindings st =
  let resolved map = List.map (fun (x, t) -> (x, resolve st t)) (Subst.bindings map) in
  (resolved st.images, resolved st.bindings)

(* Match one argument position: query term [qterm] against view term
   [vterm] under [st]. *)
let match_pos ~view st qterm vterm =
  let vt = resolve st vterm in
  match qterm with
  | Term.Const c -> (
      match vt with
      | Term.Const c' -> if Relalg.Value.equal c c' then Some st else None
      | Term.Var v ->
          if Query.is_distinguished view v then
            Some (bind_view st v (Term.Const c))
          else None)
  | Term.Var x -> (
      match image st x with
      | None -> Some { st with images = Subst.bind st.images x vt }
      | Some prev -> (
          match (prev, vt) with
          | Term.Const c, Term.Const c' ->
              if Relalg.Value.equal c c' then Some st else None
          | Term.Const c, Term.Var v | Term.Var v, Term.Const c ->
              if Query.is_distinguished view v then
                Some (bind_view st v (Term.Const c))
              else None
          | Term.Var v, Term.Var w ->
              if String.equal v w then Some st
              else if
                Query.is_distinguished view v && Query.is_distinguished view w
              then
                (* Head homomorphism: equate two distinguished vars. *)
                Some (bind_view st w (Term.Var v))
              else None))

let match_subgoal ~view st (g : Atom.t) (b : Atom.t) =
  if (not (String.equal g.Atom.pred b.Atom.pred)) || Atom.arity g <> Atom.arity b
  then None
  else
    let rec go st = function
      | [], [] -> Some st
      | qt :: qrest, vt :: vrest -> (
          match match_pos ~view st qt vt with
          | None -> None
          | Some st -> go st (qrest, vrest))
      | _ -> None
    in
    go st (g.Atom.args, b.Atom.args)

let maps_to_existential ~view st x =
  match image st x with
  | Some (Term.Var v) -> not (Query.is_distinguished view v)
  | Some (Term.Const _) | None -> false
