type t = Null | Bool of bool | Int of int | Float of float | Str of string

type ty = Tnull | Tbool | Tint | Tfloat | Tstr

let compare (a : t) (b : t) = Stdlib.compare a b
let equal (a : t) (b : t) = Stdlib.compare a b = 0
let hash (v : t) = Hashtbl.hash v

let type_of = function
  | Null -> Tnull
  | Bool _ -> Tbool
  | Int _ -> Tint
  | Float _ -> Tfloat
  | Str _ -> Tstr

let to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s

let pp fmt v = Format.pp_print_string fmt (to_string v)

let is_space = function
  | ' ' | '\t' | '\n' | '\011' | '\012' | '\r' -> true
  | _ -> false

(* [float_of_string] goes through strtod, which skips leading
   whitespace: without the guard, "\r9" would parse as [Float 9.] and
   not render back to its text. *)
let of_string s =
  if s <> "" && is_space s.[0] then Str s
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> (
            match bool_of_string_opt s with Some b -> Bool b | None -> Str s))

let str s = Str s
let int i = Int i
