(* perfbench entry point:
     bench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>
   Prints detail lines prefixed "perfbench:" and, as the last line, one JSON
   object {correct, attempted, failed, metrics}.  With --trace 0 the metrics
   are the end-to-end ones, with --trace 1 the per-layer ones. *)

let usage () =
  prerr_endline
    ("usage: bench.exe --workload <"
    ^ String.concat "|" (List.map fst Perfbench.Runs.workloads)
    ^ "> --seed <n> --seconds <s> --trace <0|1>");
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  match List.assoc_opt !workload Perfbench.Runs.workloads with
  | None -> usage ()
  | Some run ->
      let trace = !trace = 1 in
      let r = run { Perfbench.Runs.seed = !seed; seconds = !seconds; trace } in
      print_endline
        (Perfbench.Spec.result_line ~trace ~correct:r.Perfbench.Runs.correct
           ~attempted:r.Perfbench.Runs.attempted ~failed:r.Perfbench.Runs.failed
           r.Perfbench.Runs.values)
