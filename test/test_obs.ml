(* Observability layer: span nesting and ordering, Chrome trace-event
   round-trip through the bundled JSON parser, histogram percentile math,
   counter sharding across domains, the zero-allocation disabled path, and
   the interpreter-counter -> metrics-registry flush. *)

open Obs

let reset_all () =
  Span.set_enabled false;
  Metrics.reset ();
  Trace_sink.clear ()

(* ---------------- spans ---------------- *)

let test_span_nesting () =
  reset_all ();
  Span.set_enabled true;
  Span.with_span "outer" (fun () ->
      Span.with_span "first" (fun () -> ignore (Sys.opaque_identity (Array.make 10 0)));
      Span.with_span ~attrs:[ ("k", Trace_sink.Int 7) ] "second" (fun () -> ()));
  Span.set_enabled false;
  let evs = Trace_sink.events () in
  Alcotest.(check (list string))
    "start-time order" [ "outer"; "first"; "second" ]
    (List.map (fun e -> e.Trace_sink.name) evs);
  let find n = List.find (fun e -> e.Trace_sink.name = n) evs in
  let outer = find "outer" and first = find "first" and second = find "second" in
  Alcotest.(check int) "outer depth" 0 outer.Trace_sink.depth;
  Alcotest.(check int) "first depth" 1 first.Trace_sink.depth;
  Alcotest.(check int) "second depth" 1 second.Trace_sink.depth;
  Alcotest.(check bool) "children start within the parent" true
    (first.Trace_sink.ts_us >= outer.Trace_sink.ts_us
    && second.Trace_sink.ts_us >= first.Trace_sink.ts_us);
  (* enclosure, with a microsecond of clock-rounding tolerance *)
  Alcotest.(check bool) "children end within the parent" true
    (second.Trace_sink.ts_us +. second.Trace_sink.dur_us
    <= outer.Trace_sink.ts_us +. outer.Trace_sink.dur_us +. 1.0);
  Alcotest.(check bool) "attrs survive" true
    (List.mem_assoc "k" second.Trace_sink.attrs)

let test_span_exception_closes () =
  reset_all ();
  Span.set_enabled true;
  (try Span.with_span "boom" (fun () -> failwith "no") with Failure _ -> ());
  Span.set_enabled false;
  match Trace_sink.events () with
  | [ e ] ->
      Alcotest.(check string) "span recorded" "boom" e.Trace_sink.name;
      Alcotest.(check bool) "error attr" true (List.mem_assoc "error" e.Trace_sink.attrs)
  | evs -> Alcotest.failf "expected 1 span, got %d" (List.length evs)

(* ---------------- Chrome trace-event round-trip ---------------- *)

let test_chrome_roundtrip () =
  reset_all ();
  Span.set_enabled true;
  Span.with_span "root" (fun () ->
      Span.with_span
        ~attrs:[ ("s", Trace_sink.Str "x\"y\\z"); ("f", Trace_sink.Float 1.5) ]
        "leaf"
        (fun () -> ()));
  Span.set_enabled false;
  let doc = Trace_sink.to_chrome_string () in
  match Json.parse doc with
  | Error e -> Alcotest.failf "emitted trace does not parse: %s" e
  | Ok j -> (
      let evs =
        match Option.bind (Json.member "traceEvents" j) Json.to_list with
        | Some l -> l
        | None -> Alcotest.fail "no traceEvents array"
      in
      Alcotest.(check int) "one complete event per span" 2 (List.length evs);
      List.iter
        (fun ev ->
          Alcotest.(check bool) "ph = X" true (Json.member "ph" ev = Some (Json.String "X")))
        evs;
      let leaf =
        List.find (fun ev -> Json.member "name" ev = Some (Json.String "leaf")) evs
      in
      match Option.bind (Json.member "args" leaf) (Json.member "s") with
      | Some (Json.String s) ->
          Alcotest.(check string) "escaped attr round-trips" "x\"y\\z" s
      | _ -> Alcotest.fail "leaf args.s missing")

(* ---------------- histograms ---------------- *)

(* The histogram stores log-linear buckets, not samples: percentile
   estimates are only promised to land within [relative_error_bound] of
   the exact sample at the same rank (n/sum/min/max stay exact). *)
let check_within_bound name ~exact est =
  let tol = (Metrics.relative_error_bound *. Float.abs exact) +. 1e-12 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%g - %g| <= %g" name est exact tol)
    true
    (Float.abs (est -. exact) <= tol)

let test_histogram_percentiles () =
  reset_all ();
  let h = Metrics.histogram "test.latency" in
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Metrics.count h);
  let feq = Alcotest.(check (float 1e-9)) in
  (* extremes clamp to the exact observed range *)
  feq "p0 = min" 1.0 (Metrics.percentile h 0.0);
  feq "p100 = max" 100.0 (Metrics.percentile h 100.0);
  check_within_bound "p50" ~exact:50.5 (Metrics.percentile h 50.0);
  check_within_bound "p90" ~exact:90.1 (Metrics.percentile h 90.0);
  let s = Metrics.summarize h in
  feq "mean" 50.5 s.Metrics.mean;
  feq "sum" 5050.0 s.Metrics.sum;
  feq "min exact" 1.0 s.Metrics.min_v;
  feq "max exact" 100.0 s.Metrics.max_v

let test_histogram_error_bound () =
  reset_all ();
  (* log-uniform samples spanning ~9 decades: every octave of the
     bucket array gets exercised, and each percentile estimate must stay
     within the documented relative error of the exact oracle *)
  let h = Metrics.histogram "test.logu" in
  let st = Random.State.make [| 7; 11; 13 |] in
  let xs = Array.init 5000 (fun _ -> Float.exp (Random.State.float st 20.0 -. 10.0)) in
  Array.iter (Metrics.observe h) xs;
  Alcotest.(check int) "count" (Array.length xs) (Metrics.count h);
  List.iter
    (fun q ->
      check_within_bound
        (Printf.sprintf "p%g" q)
        ~exact:(Metrics.percentile_of xs q)
        (Metrics.percentile h q))
    [ 0.0; 1.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9; 100.0 ];
  (* the bucket series the exposition renders: strictly increasing
     bounds, non-decreasing cumulative counts, closing at the total *)
  let buckets = Metrics.cumulative_buckets h in
  Alcotest.(check bool) "has buckets" true (buckets <> []);
  let rec walk prev_le prev_cum = function
    | [] -> ()
    | (le, cum) :: rest ->
        Alcotest.(check bool) "le strictly increasing" true (le > prev_le);
        Alcotest.(check bool) "cumulative non-decreasing" true (cum >= prev_cum);
        walk le cum rest
  in
  walk neg_infinity 0 buckets;
  Alcotest.(check int)
    "last cumulative = count"
    (Metrics.count h)
    (snd (List.nth buckets (List.length buckets - 1)))

let test_histogram_edge_cases () =
  reset_all ();
  let h = Metrics.histogram "test.edge" in
  Alcotest.(check int) "empty count" 0 (Metrics.count h);
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Metrics.percentile h 50.0));
  Alcotest.(check bool) "empty buckets" true (Metrics.cumulative_buckets h = []);
  let feq = Alcotest.(check (float 1e-9)) in
  Metrics.observe h 42.0;
  (* single sample: clamping to [min, max] makes every percentile exact *)
  feq "single p0" 42.0 (Metrics.percentile h 0.0);
  feq "single p50" 42.0 (Metrics.percentile h 50.0);
  feq "single p100" 42.0 (Metrics.percentile h 100.0);
  let s = Metrics.summarize h in
  Alcotest.(check int) "single n" 1 s.Metrics.n;
  feq "single sum" 42.0 s.Metrics.sum;
  feq "single min" 42.0 s.Metrics.min_v;
  feq "single max" 42.0 s.Metrics.max_v;
  Metrics.reset ();
  Alcotest.(check int) "reset empties" 0 (Metrics.count h);
  Alcotest.(check bool) "reset percentile is nan" true
    (Float.is_nan (Metrics.percentile h 50.0));
  Metrics.observe h 7.0;
  Alcotest.(check int) "usable after reset" 1 (Metrics.count h);
  feq "exact after reset" 7.0 (Metrics.percentile h 100.0)

let test_histogram_multidomain () =
  reset_all ();
  (* 4 domains hammer one histogram with disjoint integer-valued ranges
     (so the float sum is exact): each domain writes its own shard and
     the merge must see every sample exactly once *)
  let h = Metrics.histogram "test.hammer" in
  let doms = 4 and per = 25_000 in
  let workers =
    Array.init doms (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              Metrics.observe h (float_of_int ((d * per) + i))
            done))
  in
  Array.iter Domain.join workers;
  let total = doms * per in
  Alcotest.(check int) "n exact across shards" total (Metrics.count h);
  let s = Metrics.summarize h in
  let feq = Alcotest.(check (float 1e-9)) in
  Alcotest.(check int) "summary n" total s.Metrics.n;
  feq "sum exact across shards"
    (float_of_int total *. (float_of_int total +. 1.0) /. 2.0)
    s.Metrics.sum;
  feq "min exact" 1.0 s.Metrics.min_v;
  feq "max exact" (float_of_int total) s.Metrics.max_v;
  check_within_bound "merged p50" ~exact:(float_of_int total /. 2.0) s.Metrics.p50;
  check_within_bound "merged p99"
    ~exact:(0.99 *. float_of_int total)
    s.Metrics.p99

let test_percentile_of_nondestructive () =
  reset_all ();
  (* regression: percentile_of used to sort its argument in place, so a
     caller computing several percentiles over a window of an array it
     still owned saw the window reordered under it *)
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  let feq = Alcotest.(check (float 1e-9)) in
  feq "p50 of unsorted input" 3.0 (Metrics.percentile_of xs 50.0);
  Alcotest.(check (array (float 0.0)))
    "input array untouched" [| 5.0; 1.0; 4.0; 2.0; 3.0 |] xs;
  feq "p0" 1.0 (Metrics.percentile_of xs 0.0);
  feq "p100" 5.0 (Metrics.percentile_of xs 100.0)

(* ---------------- bounded trace ring ---------------- *)

let test_trace_ring_bounded () =
  reset_all ();
  Trace_sink.set_capacity 8;
  Fun.protect ~finally:(fun () -> Trace_sink.set_capacity 65_536)
  @@ fun () ->
  Span.set_enabled true;
  for i = 1 to 20 do
    Span.with_span (Printf.sprintf "s%02d" i) (fun () -> ())
  done;
  Span.set_enabled false;
  let evs = Trace_sink.events () in
  Alcotest.(check int) "ring holds capacity" 8 (List.length evs);
  Alcotest.(check (list string))
    "newest events survive, oldest dropped"
    (List.init 8 (fun i -> Printf.sprintf "s%02d" (13 + i)))
    (List.map (fun e -> e.Trace_sink.name) evs);
  Alcotest.(check int) "dropped counted" 12 (Trace_sink.dropped ());
  Alcotest.(check int) "trace.dropped metric agrees" 12
    (Metrics.value (Metrics.counter "trace.dropped"));
  Trace_sink.clear ();
  Alcotest.(check int) "clear resets the drop count" 0 (Trace_sink.dropped ())

let test_trace_shrink_keeps_newest () =
  reset_all ();
  Trace_sink.set_capacity 16;
  Fun.protect ~finally:(fun () -> Trace_sink.set_capacity 65_536)
  @@ fun () ->
  Span.set_enabled true;
  for i = 1 to 10 do
    Span.with_span (Printf.sprintf "s%02d" i) (fun () -> ())
  done;
  Span.set_enabled false;
  Trace_sink.set_capacity 4;
  Alcotest.(check (list string))
    "shrinking keeps the newest survivors"
    [ "s07"; "s08"; "s09"; "s10" ]
    (List.map (fun e -> e.Trace_sink.name) (Trace_sink.events ()))

(* ---------------- counters across domains ---------------- *)

let test_counter_sharded () =
  reset_all ();
  let c = Metrics.counter "test.hits" in
  let workers =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Metrics.incr c
            done))
  in
  Array.iter Domain.join workers;
  Metrics.add c 5;
  Alcotest.(check int) "shards sum" 4005 (Metrics.value c);
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes, handle stays valid" 0 (Metrics.value c)

(* ---------------- zero-cost disabled path ---------------- *)

let test_noop_no_alloc () =
  reset_all ();
  let f = Sys.opaque_identity (fun () -> 0) in
  for _ = 1 to 100 do
    ignore (Span.with_span "warmup" f)
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Span.with_span "hot" f)
  done;
  let after = Gc.minor_words () in
  (* small slack for the Gc.minor_words boxes themselves *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled with_span allocates nothing (%.0f words)" (after -. before))
    true
    (after -. before < 100.0);
  Alcotest.(check int) "events" 0 (List.length (Trace_sink.events ()))

(* ---------------- interpreter counters -> registry ---------------- *)

let test_interp_flush_matches () =
  reset_all ();
  let batch_dim = Cora.Dim.make "batch" and len_dim = Cora.Dim.make "len" in
  let lens_fn = Cora.Lenfun.make "lens" in
  let extents = [ Cora.Shape.fixed 4; Cora.Shape.ragged ~dep:batch_dim ~fn:lens_fn ] in
  let a = Cora.Tensor.create ~name:"A" ~dims:[ batch_dim; len_dim ] ~extents in
  let o = Cora.Tensor.create ~name:"O" ~dims:[ batch_dim; len_dim ] ~extents in
  let op =
    Cora.Op.compute ~name:"double" ~out:o ~loop_extents:extents ~reads:[ a ] (fun idx ->
        Ir.Expr.mul (Ir.Expr.float 2.0) (Cora.Op.access a idx))
  in
  let kernel = Cora.Lower.lower (Cora.Schedule.create op) in
  let lenv = [ Cora.Lenfun.of_array "lens" [| 3; 1; 4; 2 |] ] in
  let ra = Cora.Ragged.alloc a lenv and ro = Cora.Ragged.alloc o lenv in
  Cora.Ragged.fill ra (fun _ -> 1.0);
  let env, _ = Cora.Exec.run_ragged ~lenv ~tensors:[ ra; ro ] [ kernel ] in
  let env = Option.get env in
  let reg name = Metrics.value (Metrics.counter name) in
  Alcotest.(check int) "loads" env.Runtime.Interp.loads (reg "interp.loads");
  Alcotest.(check int) "stores" env.Runtime.Interp.stores (reg "interp.stores");
  Alcotest.(check int) "flops" env.Runtime.Interp.flops (reg "interp.flops");
  Alcotest.(check int) "indirect" env.Runtime.Interp.indirect (reg "interp.indirect");
  Alcotest.(check int) "guards" env.Runtime.Interp.guards (reg "interp.guards");
  Alcotest.(check bool) "something executed" true (env.Runtime.Interp.stores > 0)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "closed on exception" `Quick test_span_exception_closes;
          Alcotest.test_case "chrome JSON round-trip" `Quick test_chrome_roundtrip;
          Alcotest.test_case "bounded ring drops oldest" `Quick test_trace_ring_bounded;
          Alcotest.test_case "shrink keeps newest" `Quick test_trace_shrink_keeps_newest;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "histogram error bound vs oracle" `Quick
            test_histogram_error_bound;
          Alcotest.test_case "histogram edge cases and reset" `Quick
            test_histogram_edge_cases;
          Alcotest.test_case "histogram multi-domain hammer" `Quick
            test_histogram_multidomain;
          Alcotest.test_case "percentile_of leaves input intact" `Quick
            test_percentile_of_nondestructive;
          Alcotest.test_case "counters shard across domains" `Quick test_counter_sharded;
          Alcotest.test_case "interp flush matches env" `Quick test_interp_flush_matches;
        ] );
      ( "overhead",
        [ Alcotest.test_case "disabled path allocation-free" `Quick test_noop_no_alloc ] );
    ]
