type t = { pred : string; args : Term.t list }

let make pred args = { pred; args }
let arity t = List.length t.args

let vars t =
  List.fold_left
    (fun acc term ->
      match term with
      | Term.Var x -> if List.mem x acc then acc else x :: acc
      | Term.Const _ -> acc)
    [] t.args
  |> List.rev

let compare a b =
  match String.compare a.pred b.pred with
  | 0 -> List.compare Term.compare a.args b.args
  | c -> c

let equal a b = compare a b = 0

let to_string t =
  Printf.sprintf "%s(%s)" t.pred (String.concat ", " (List.map Term.to_string t.args))

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* A constant is a quote, a type tag and its value, strings prefixed by
   their length: [to_string] writes [Int 1], [Float 1.] and [Str "1"]
   all as ['1'], and lets a string hold the separators. *)
let add_const_key buf (v : Relalg.Value.t) =
  Buffer.add_char buf '\'';
  match v with
  | Null -> Buffer.add_char buf 'n'
  | Bool b -> Buffer.add_string buf (if b then "bt" else "bf")
  | Int i ->
      Buffer.add_char buf 'i';
      Buffer.add_string buf (string_of_int i)
  | Float f ->
      Buffer.add_char buf 'f';
      Buffer.add_string buf (Printf.sprintf "%h" f)
  | Str s ->
      Buffer.add_char buf 's';
      Buffer.add_string buf (string_of_int (String.length s));
      Buffer.add_char buf ':';
      Buffer.add_string buf s

let add_key buf ~var t =
  Buffer.add_string buf t.pred;
  Buffer.add_char buf '(';
  List.iteri
    (fun i term ->
      if i > 0 then Buffer.add_char buf ',';
      match term with
      | Term.Var x -> Buffer.add_string buf (var x)
      | Term.Const v -> add_const_key buf v)
    t.args;
  Buffer.add_char buf ')'

let map_terms f t = { t with args = List.map f t.args }
