(* Nearest-rank percentiles stay inside the observed range and never
   decrease as q grows, on seeded random sample sets of many shapes. *)

let check_set xs =
  let lo = List.fold_left Float.min Float.infinity xs and hi = List.fold_left Float.max Float.neg_infinity xs in
  let prev = ref Float.neg_infinity in
  for i = 0 to 100 do
    let q = float_of_int i /. 100.0 in
    let v = Perfbench_stats.Pstats.percentile xs q in
    if v < lo || v > hi then failwith (Printf.sprintf "q=%.2f gave %g outside [%g, %g]" q v lo hi);
    if v < !prev then failwith (Printf.sprintf "q=%.2f gave %g below the previous %g" q v !prev);
    if not (List.mem v xs) then failwith (Printf.sprintf "q=%.2f gave %g, not a sample" q v);
    prev := v
  done;
  if Perfbench_stats.Pstats.percentile xs 0.0 <> lo then failwith "q=0 is not the minimum";
  if Perfbench_stats.Pstats.percentile xs 1.0 <> hi then failwith "q=1 is not the maximum"

let () =
  let rng = Random.State.make [| 17 |] in
  for _ = 1 to 500 do
    let n = 1 + Random.State.int rng 200 in
    (* A heavy tail: one huge observation must not drag the median. *)
    let xs = List.init n (fun _ -> Random.State.float rng 1.0) in
    let xs = if Random.State.bool rng then 14.49 :: xs else xs in
    check_set xs
  done;
  check_set [ 14.49 ];
  if Perfbench_stats.Pstats.median [ 14.49 ] <> 14.49 then failwith "single-sample median";
  if Perfbench_stats.Pstats.percentile [ 1.; 2.; 3.; 4. ] 0.5 <> 2. then failwith "nearest-rank median of 4";
  if Perfbench_stats.Pstats.percentile [ 1.; 2.; 3.; 4. ] 0.9 <> 4. then failwith "nearest-rank p90 of 4";
  print_endline "pstats: ok"
