(* Tests of the benchmark itself: its inputs are a function of the seed,
   its tail-percentile rule, and its metric names against BENCHMARK.json. *)

open Perfbench

let test_streams_deterministic () =
  let w = Serving.Workload.fig1 ~batch:6 ~max_len:10 () in
  let pool seed = Runs.pool ~seed ~size:5 ~cost:(Array.fold_left ( + ) 0) w in
  Alcotest.(check (array (array int))) "pool" (pool 3) (pool 3);
  let picks seed = Arrivals.picks ~seed ~pool:5 ~n:1000 in
  Alcotest.(check (array int)) "picks" (picks 3) (picks 3);
  Alcotest.(check bool) "pool depends on the seed" false (pool 3 = pool 4);
  Alcotest.(check bool) "picks depend on the seed" false (picks 3 = picks 4);
  let d = Serving.Workload.decode ~batch:4 ~max_src:64 () in
  let trace seed =
    Array.map
      (fun (e : Serving.Stream.event) -> (e.Serving.Stream.lens, e.Serving.Stream.arrival_us))
      (Runs.decode_trace_of d ~seed 1).Serving.Stream.events
  in
  Alcotest.(check (array (pair (array int) (float 0.0))))
    "decode trace: shapes and arrival schedule" (trace 3) (trace 3);
  Alcotest.(check bool) "decode trace depends on the seed" false (trace 3 = trace 4)

(* Every block of [pool] consecutive picks holds each shape once, so every
   shape carries the same share of a run. *)
let test_picks_balanced () =
  let pool = 5 in
  let p = Arrivals.picks ~seed:7 ~pool ~n:1000 in
  for b = 0 to (1000 / pool) - 1 do
    let block = Array.sub p (b * pool) pool in
    Array.sort compare block;
    Alcotest.(check (array int)) (Printf.sprintf "block %d" b) (Array.init pool Fun.id) block
  done

let test_tail_rule () =
  let check n p =
    Alcotest.(check (float 0.0)) (Printf.sprintf "n = %d" n) p (Stats.tail_percentile ~n)
  in
  check 1000 99.0;
  check 999 90.0;
  check 100 90.0;
  check 99 50.0;
  check 20 50.0;
  Alcotest.(check int) "ten beyond p99 of 1000" 10 (Stats.beyond ~n:1000 99.0);
  let a = Array.init 150 float_of_int in
  let p, v, beyond, windows = Stats.tail ~declared:99.0 a in
  Alcotest.(check (float 0.0)) "declared p99 falls to p90 on 150 samples" 90.0 p;
  Alcotest.(check (float 0.0)) "nearest-rank value" 134.0 v;
  Alcotest.(check int) "beyond" 15 beyond;
  Alcotest.(check int) "one window" 1 windows;
  Alcotest.(check int) "p99 window" 1000 (Stats.window_for 99.0);
  Alcotest.(check int) "p90 window" 100 (Stats.window_for 90.0);
  (* 50 windows of 100 samples; one holds a stall, which moves its own
     window's p90 and not the median over windows *)
  let b =
    Array.init 5000 (fun i -> if i >= 300 && i < 400 then 1e6 else float_of_int (i mod 100))
  in
  let p, v, beyond, windows = Stats.tail ~declared:90.0 b in
  Alcotest.(check (float 0.0)) "never above the declared percentile" 90.0 p;
  Alcotest.(check (float 0.0)) "median over windows" 89.0 v;
  Alcotest.(check int) "beyond per window" 10 beyond;
  Alcotest.(check int) "windows" 50 windows

let benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Json.parse s with Ok j -> j | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)

let field name j =
  match Obs.Json.member name j with Some v -> v | None -> Alcotest.fail ("missing " ^ name)

let str = function Obs.Json.String s -> s | _ -> Alcotest.fail "expected a string"
let items j = match Obs.Json.to_list j with Some l -> l | None -> Alcotest.fail "expected a list"
let num = function
  | Obs.Json.Float f -> f
  | Obs.Json.Int i -> float_of_int i
  | _ -> Alcotest.fail "expected a number"

let test_spec_matches_json () =
  let j = benchmark_json () in
  let listed key =
    List.map
      (fun m -> (str (field "name" m), str (field "unit" m), str (field "better" m)))
      (items (field key j))
  in
  let spec l =
    List.map
      (fun (m : Spec.metric) -> (m.Spec.name, m.Spec.unit_, Spec.better_name m.Spec.better))
      l
  in
  let t3 = Alcotest.(list (triple string string string)) in
  Alcotest.check t3 "end_to_end" (spec Spec.end_to_end) (listed "end_to_end");
  Alcotest.check t3 "per_layer" (spec Spec.per_layer) (listed "per_layer");
  Alcotest.(check (list string)) "workloads" (List.map fst Runs.workloads)
    (List.map (fun w -> str (field "name" w)) (items (field "workloads" j)));
  let bounds =
    List.map (fun m -> (str (field "name" m), num (field "bound" m))) (items (field "end_to_end" j))
  in
  List.iter
    (fun (n, b) -> Alcotest.(check bool) (n ^ " bound in (0, 0.25]") true (b > 0.0 && b <= 0.25))
    bounds;
  let setup = List.assoc "setup_s" bounds in
  List.iter
    (fun (n, b) -> Alcotest.(check bool) (n ^ " bound <= setup_s bound") true (b <= setup))
    bounds

let test_result_line () =
  let values = List.map (fun (m : Spec.metric) -> (m.Spec.name, 1.5)) Spec.end_to_end in
  let line = Spec.result_line ~trace:false ~correct:true ~attempted:3 ~failed:0 values in
  (match Obs.Json.parse line with
  | Ok (Obs.Json.Obj kv) ->
      Alcotest.(check (list string))
        "keys" [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst kv);
      List.iter
        (fun (m : Spec.metric) ->
          let e = field m.Spec.name (field "metrics" (Obs.Json.Obj kv)) in
          Alcotest.(check string) (m.Spec.name ^ " unit") m.Spec.unit_ (str (field "unit" e));
          Alcotest.(check (float 0.0)) (m.Spec.name ^ " value") 1.5 (num (field "value" e)))
        Spec.end_to_end
  | _ -> Alcotest.fail "result line is not a JSON object");
  let refused vs =
    match Spec.result_line ~trace:false ~correct:true ~attempted:1 ~failed:0 vs with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "missing metric refused" true (refused (List.tl values));
  Alcotest.(check bool) "unknown metric refused" true (refused (("x", 1.0) :: values));
  Alcotest.(check bool) "per-layer metric refused in an end-to-end line" true
    (refused (("server.handle_us", 1.0) :: values))

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "streams deterministic in the seed" `Quick test_streams_deterministic;
          Alcotest.test_case "picks balanced over the pool" `Quick test_picks_balanced;
        ]
      );
      ( "stats",
        [ Alcotest.test_case "highest percentile with ten samples beyond" `Quick test_tail_rule ] );
      ( "metrics",
        [
          Alcotest.test_case "names and units match BENCHMARK.json" `Quick test_spec_matches_json;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]
