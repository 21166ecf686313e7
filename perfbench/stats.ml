let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Python's statistics.quantiles(data, n=4), default method "exclusive":
   the same integer arithmetic, so spreads computed here agree with the
   ones a Python checker computes from the same values. *)
let quartiles xs =
  let a = sorted_array xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let n = 4 in
  let m = ld + 1 in
  let q i =
    let j = i * m / n in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n
  in
  (q 1, q 2, q 3)

let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2
