type t = { parent : (string, string) Hashtbl.t; rank : (string, int) Hashtbl.t }

let create ?(size = 64) () =
  { parent = Hashtbl.create size; rank = Hashtbl.create size }

let rec find t x =
  match Hashtbl.find_opt t.parent x with
  | None ->
      Hashtbl.replace t.parent x x;
      Hashtbl.replace t.rank x 0;
      x
  | Some p when String.equal p x -> x
  | Some p ->
      let root = find t p in
      Hashtbl.replace t.parent x root;
      root

let union t a b =
  let ra = find t a and rb = find t b in
  if not (String.equal ra rb) then begin
    let ka = Hashtbl.find t.rank ra and kb = Hashtbl.find t.rank rb in
    if ka < kb then Hashtbl.replace t.parent ra rb
    else if ka > kb then Hashtbl.replace t.parent rb ra
    else begin
      Hashtbl.replace t.parent rb ra;
      Hashtbl.replace t.rank ra (ka + 1)
    end
  end

let connected t a b = String.equal (find t a) (find t b)

let groups t =
  let by_root = Hashtbl.create 16 in
  Hashtbl.iter
    (fun x _ ->
      let r = find t x in
      let members = Option.value ~default:[] (Hashtbl.find_opt by_root r) in
      Hashtbl.replace by_root r (x :: members))
    t.parent;
  Hashtbl.fold (fun _ members acc -> List.sort String.compare members :: acc) by_root []
