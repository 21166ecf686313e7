type acc = { mutable self_s : float; mutable count : int }
type t = (string, acc) Hashtbl.t

let create () = Hashtbl.create 32

let bump t name self_s =
  match Hashtbl.find_opt t name with
  | Some a ->
      a.self_s <- a.self_s +. self_s;
      a.count <- a.count + 1
  | None -> Hashtbl.replace t name { self_s; count = 1 }

(* Length of the union of the children's intervals, clipped to the
   parent's [start, stop].  Children come in start order, but sort anyway
   so the fold does not depend on that. *)
let covered ~start ~stop (children : Obs.Span.t list) =
  let intervals =
    List.map
      (fun (c : Obs.Span.t) ->
        (Float.max start c.start_s, Float.min stop (c.start_s +. c.duration_s)))
      children
    |> List.filter (fun (a, b) -> b > a)
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) intervals
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let rec add t (s : Obs.Span.t) =
  let stop = s.start_s +. s.duration_s in
  let inner = covered ~start:s.start_s ~stop s.children in
  bump t s.name (Float.max 0.0 (s.duration_s -. inner));
  List.iter (add t) s.children

let add_all t spans = List.iter (add t) spans

let self_ms t name =
  match Hashtbl.find_opt t name with Some a -> a.self_s *. 1000. | None -> 0.0

let count t name =
  match Hashtbl.find_opt t name with Some a -> a.count | None -> 0

let names t =
  Hashtbl.fold (fun name a acc -> (name, a.self_s) :: acc) t []
  |> List.sort (fun (n1, s1) (n2, s2) ->
         match Float.compare s2 s1 with 0 -> String.compare n1 n2 | c -> c)
  |> List.map fst

let total_self_ms t = Hashtbl.fold (fun _ a acc -> acc +. a.self_s) t 0.0 *. 1000.
