let percentile xs q =
  if xs = [] then invalid_arg "Pstats.percentile: no samples";
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Pstats.percentile: q outside [0, 1]";
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 0.5
