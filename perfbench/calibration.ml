let buf = Array.make 8192 0

(* Fill [buf] from a linear congruential generator and heap-sort it in
   place: about 10^5 comparisons, no allocation. *)
let kernel () =
  let x = ref 12345 in
  for i = 0 to Array.length buf - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    buf.(i) <- !x
  done;
  Array.sort Int.compare buf;
  buf.(0)

let run_ms () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  (Unix.gettimeofday () -. t0) *. 1000.

let median_ms n =
  let a = Array.init n (fun _ -> run_ms ()) in
  Array.sort Float.compare a;
  a.(n / 2)
