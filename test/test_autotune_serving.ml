(* Online schedule autotuner (lib/autotune) and its serving integration.

   - properties: shrinking a loop-padding multiple along a divisibility
     chain never increases the modeled total, and repeated compile/eval
     of the cost model over the same kernels is bit-deterministic;
   - tuner: on fig1 the two-stage search finds a strict simulated win,
     memoizes it (hit on lookup), and stays within the memo bound under
     many distinct keys;
   - serving: with autotuning on, the per-request tuner state goes
     miss -> tuned and every response is bitwise what an untuned server
     produces — for all four workloads, executed. *)

let device = Machine.Device.v100

let toy_dataset =
  { Workloads.Datasets.name = "toy"; min_len = 2; mean_len = 5; max_len = 9 }

let workloads () =
  [
    Serving.Workload.fig1 ~batch:4 ~max_len:6 ();
    Serving.Workload.vgemm ~batch:2 ~tile:4 ~dims_choices:[| 4; 8; 12 |] ();
    Serving.Workload.trmm ~tile:4 ~sizes:[| 8; 12; 16 |] ();
    Serving.Workload.encoder ~batch:3 ~dataset:toy_dataset ();
  ]

let tunable (w : Serving.Workload.t) =
  match w.Serving.Workload.tunable with
  | Some tn -> tn
  | None -> Alcotest.fail (w.Serving.Workload.name ^ " has no tunable descriptor")

let tjob (j : Serving.Workload.job) =
  {
    Autotune.Tuner.kernels = j.Serving.Workload.kernels;
    launches = j.Serving.Workload.launches;
    lenv = j.Serving.Workload.lenv;
  }

(* fig1 job at one schedule point, via the workload's own descriptor *)
let fig1_at point lens =
  tjob ((tunable (Serving.Workload.fig1 ())).Serving.Workload.build_tuned point lens)

(* ---------------- properties ---------------- *)

(* Along a divisibility chain of padding multiples, a smaller multiple
   rounds every row length to no more than the larger one does, so the
   modeled total must not increase when padding shrinks.  (Incomparable
   multiples — 3 vs 4 — can go either way; the chain is the law.) *)
let pad_chain = [| 1; 2; 4; 8; 16 |]

let prop_padding_monotone =
  QCheck.Test.make ~count:60 ~name:"shrinking loop padding never increases modeled time"
    QCheck.(
      make
        ~print:(fun (lens, i, j) ->
          Printf.sprintf "lens=[%s] pads %d<=%d"
            (String.concat ";" (List.map string_of_int (Array.to_list lens)))
            pad_chain.(min i j) pad_chain.(max i j))
        Gen.(
          triple
            (array_size (int_range 1 5) (int_range 1 12))
            (int_range 0 4) (int_range 0 4)))
    (fun (lens, i, j) ->
      let lo = pad_chain.(min i j) and hi = pad_chain.(max i j) in
      let ns pad =
        Autotune.Tuner.simulate_ns ~device
          (fig1_at (Autotune.Space.make ~pad ()) lens)
      in
      ns lo <= ns hi +. 1e-9)

let prop_simulate_deterministic =
  QCheck.Test.make ~count:40
    ~name:"repeated compile/eval of the cost model is bit-deterministic"
    QCheck.(
      make
        ~print:(fun lens ->
          String.concat ";" (List.map string_of_int (Array.to_list lens)))
        Gen.(array_size (int_range 1 5) (int_range 1 12)))
    (fun lens ->
      let j () = fig1_at (Autotune.Space.make ~grid:true ~split:4 ~pad:4 ()) lens in
      let a = Autotune.Tuner.simulate_ns ~device (j ())
      and b = Autotune.Tuner.simulate_ns ~device (j ()) in
      let ba = Autotune.Tuner.bound_ns ~device (j ())
      and bb = Autotune.Tuner.bound_ns ~device (j ()) in
      Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      && Int64.equal (Int64.bits_of_float ba) (Int64.bits_of_float bb))

(* ---------------- Core.Cache stats ---------------- *)

let test_cache_stats () =
  let c : (string, int) Cora.Cache.t =
    Cora.Cache.create ~name:"test_stats_cache" ~capacity:2 ()
  in
  ignore (Cora.Cache.find c "a");
  Cora.Cache.add c "a" 1;
  ignore (Cora.Cache.find c "a");
  Cora.Cache.add c "b" 2;
  Cora.Cache.add c "c" 3;
  (* capacity 2: adding c evicted the LRU entry *)
  let s = Cora.Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cora.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cora.Cache.misses;
  Alcotest.(check int) "evictions" 1 s.Cora.Cache.evictions;
  Alcotest.(check int) "entries" 2 s.Cora.Cache.entries;
  let reg = Cora.Cache.registered_stats () in
  Alcotest.(check bool) "registered under its name" true
    (List.mem_assoc "test_stats_cache" reg);
  Alcotest.(check bool) "registry includes the tuner memo" true
    (List.mem_assoc "autotune" reg)

(* ---------------- the tuner ---------------- *)

let fig1_candidates (w : Serving.Workload.t) lens =
  let tn = tunable w in
  List.map
    (fun p -> (p, fun () -> tjob (tn.Serving.Workload.build_tuned p lens)))
    (tn.Serving.Workload.space lens)

let tune_fig1 lens =
  let w = Serving.Workload.fig1 () in
  let tn = tunable w in
  let key =
    Autotune.Tuner.key ~workload:"fig1" ~tables:(tn.Serving.Workload.tables_of lens)
      ~opt:Ir.Optimize.O0
  in
  let hand = tjob (w.Serving.Workload.build lens) in
  (key, Autotune.Tuner.tune ~device ~key ~hand ~candidates:(fig1_candidates w lens) ())

let test_tuner_win_and_memo () =
  Serving.Server.reset_caches ();
  let lens = [| 9; 7; 4; 2 |] in
  let key, d = tune_fig1 lens in
  Alcotest.(check bool) "search adopted a point" true (d.Autotune.Tuner.point <> None);
  Alcotest.(check bool) "strict simulated win" true
    (d.Autotune.Tuner.tuned_ns < d.Autotune.Tuner.hand_ns);
  Alcotest.(check bool) "searched some candidates" true (d.Autotune.Tuner.searched > 0);
  (match Autotune.Tuner.lookup key with
  | Some d' ->
      Alcotest.(check (float 0.0)) "memo returns the decision" d.Autotune.Tuner.tuned_ns
        d'.Autotune.Tuner.tuned_ns
  | None -> Alcotest.fail "tuned key missing from the memo");
  (* stage-1 pruning: with one survivor the rest must be pruned *)
  let lens2 = [| 6; 5; 3 |] in
  let w = Serving.Workload.fig1 () in
  let tn = tunable w in
  let key2 =
    Autotune.Tuner.key ~workload:"fig1" ~tables:(tn.Serving.Workload.tables_of lens2)
      ~opt:Ir.Optimize.O0
  in
  let d2 =
    Autotune.Tuner.tune
      ~cfg:{ Autotune.Tuner.max_candidates = 16; survivors = 1 }
      ~device ~key:key2
      ~hand:(tjob (w.Serving.Workload.build lens2))
      ~candidates:(fig1_candidates w lens2) ()
  in
  Alcotest.(check int) "all but one candidate pruned" (d2.Autotune.Tuner.searched - 1)
    d2.Autotune.Tuner.pruned

let test_memo_bounded () =
  Serving.Server.reset_caches ();
  Autotune.Tuner.set_memo_capacity 4;
  Fun.protect ~finally:(fun () -> Autotune.Tuner.set_memo_capacity 128) @@ fun () ->
  for n = 1 to 10 do
    ignore (tune_fig1 (Array.init 3 (fun i -> n + i)))
  done;
  Alcotest.(check bool) "memo stays within capacity" true (Autotune.Tuner.memo_size () <= 4);
  let s = Autotune.Tuner.memo_stats () in
  Alcotest.(check bool) "evictions happened" true (s.Cora.Cache.evictions >= 6)

(* ---------------- serving integration ---------------- *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let get_out (r : Serving.Server.response) =
  match r.Serving.Server.out with
  | Some a -> a
  | None -> Alcotest.fail "response carries no output"

let test_serving_bitwise (w : Serving.Workload.t) () =
  Serving.Server.reset_caches ();
  let tuned_srv = Serving.Server.create ~autotune:Autotune.Tuner.default_cfg () in
  let hand_srv = Serving.Server.create () in
  let rng = Workloads.Rng.create 11 in
  let s1 = w.Serving.Workload.sample rng in
  let s2 = w.Serving.Workload.sample rng in
  List.iter
    (fun lens ->
      let rt = Serving.Server.handle tuned_srv w lens in
      let rh = Serving.Server.handle hand_srv w lens in
      Alcotest.(check bool)
        (w.Serving.Workload.name ^ ": tuned output bitwise the hand output")
        true
        (bits_equal (get_out rt) (get_out rh)))
    [ s1; s2; s1; s2; s1 ]

let test_serving_tuner_states () =
  Serving.Server.reset_caches ();
  let w = Serving.Workload.fig1 ~batch:4 ~max_len:6 () in
  let srv = Serving.Server.create ~autotune:Autotune.Tuner.default_cfg () in
  let lens = [| 6; 4; 3; 1 |] in
  let r1 = Serving.Server.handle srv w lens in
  Alcotest.(check string) "first request misses and warms" "miss" r1.Serving.Server.tuner;
  Alcotest.(check bool) "the tune was timed" true (r1.Serving.Server.tune_us > 0.0);
  let r2 = Serving.Server.handle srv w lens in
  Alcotest.(check string) "second request serves the tuned schedule" "tuned"
    r2.Serving.Server.tuner;
  Alcotest.(check (float 0.0)) "no tune on a hit" 0.0 r2.Serving.Server.tune_us;
  (* the tuned schedule must actually be modeled faster *)
  Alcotest.(check bool) "tuned kernels_ns < hand kernels_ns" true
    (r2.Serving.Server.kernels_ns < r1.Serving.Server.kernels_ns);
  (* a server without autotuning reports "off" *)
  let off = Serving.Server.create () in
  let r3 = Serving.Server.handle off w lens in
  Alcotest.(check string) "autotuning off" "off" r3.Serving.Server.tuner;
  Alcotest.(check bool) "enabled flag" true (Serving.Server.autotune_enabled srv);
  Alcotest.(check bool) "disabled flag" false (Serving.Server.autotune_enabled off)

(* The plan memo behind steady-state serving: it registers in the cache
   stats registry, a plan-hit request is still bitwise equal to a
   cache-bypassed build, and [Server.reset_caches] really empties the
   per-workload memos (the tuner state machine restarts at "miss"). *)
let test_hot_path_memos () =
  Serving.Server.reset_caches ();
  let w = Serving.Workload.fig1 ~batch:4 ~max_len:6 () in
  let srv = Serving.Server.create ~autotune:Autotune.Tuner.default_cfg ~execute:true () in
  let lens = [| 6; 4; 3; 1 |] in
  let r1 = Serving.Server.handle srv w lens in
  let r2 = Serving.Server.handle srv w lens in
  let reg = Cora.Cache.registered_stats () in
  Alcotest.(check bool) "per-workload plan memo registered" true
    (List.mem_assoc "plan.fig1" reg);
  (* the plan serves the same bytes a fresh cache-bypassed build does *)
  let bypass =
    Serving.Server.create ~cache:false ~execute:true ()
  in
  let rb = Serving.Server.handle bypass w lens in
  let out r = Option.get r.Serving.Server.out in
  Alcotest.(check bool) "memo-hit output bitwise equal to bypass" true
    (Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       (out r2) (out rb));
  Alcotest.(check string) "hit serves tuned state" "tuned" r2.Serving.Server.tuner;
  ignore r1;
  (* reset wipes the baked jobs: the tuner warms up from scratch *)
  Serving.Server.reset_caches ();
  let r4 = Serving.Server.handle srv w lens in
  Alcotest.(check string) "reset restarts the state machine" "miss"
    r4.Serving.Server.tuner

(* A tuned plan hit is one lookup: the tuner decision is baked into the
   plan, so the request neither derives the tuner key nor consults the
   tuner memo, and a hand server on the same workload instance keeps a
   plan of its own. *)
let test_tuned_plan_lookup () =
  Serving.Server.reset_caches ();
  let w = Serving.Workload.fig1 ~batch:4 ~max_len:6 () in
  let srv = Serving.Server.create ~autotune:Autotune.Tuner.default_cfg () in
  let lens = [| 6; 4; 3; 1 |] in
  ignore (Serving.Server.handle srv w lens);
  let lookups () =
    let t = Autotune.Tuner.memo_stats () in
    t.Cora.Cache.hits + t.Cora.Cache.misses
  in
  let plans () = Cora.Cache.stats w.Serving.Workload.job_cache in
  let t0 = lookups () and p0 = plans () in
  let r = Serving.Server.handle srv w lens in
  Alcotest.(check string) "hit serves the tuned plan" "tuned" r.Serving.Server.tuner;
  Alcotest.(check int) "tuner memo untouched" t0 (lookups ());
  Alcotest.(check int) "one plan lookup, a hit" (p0.Cora.Cache.hits + 1)
    (plans ()).Cora.Cache.hits;
  Alcotest.(check int) "no plan miss" p0.Cora.Cache.misses (plans ()).Cora.Cache.misses;
  let hand = Serving.Server.handle (Serving.Server.create ()) w lens in
  Alcotest.(check string) "hand server builds its own plan" "off" hand.Serving.Server.tuner;
  Alcotest.(check bool) "hand server missed" false hand.Serving.Server.prelude_hit

let () =
  let bitwise =
    List.map
      (fun (w : Serving.Workload.t) ->
        Alcotest.test_case ("tuned vs hand " ^ w.Serving.Workload.name) `Quick
          (test_serving_bitwise w))
      (workloads ())
  in
  Alcotest.run "autotune_serving"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_padding_monotone;
          QCheck_alcotest.to_alcotest prop_simulate_deterministic;
        ] );
      ("cache_stats", [ Alcotest.test_case "stats + registry" `Quick test_cache_stats ]);
      ( "tuner",
        [
          Alcotest.test_case "fig1 win + memo hit + pruning" `Quick test_tuner_win_and_memo;
          Alcotest.test_case "memo bounded with eviction" `Quick test_memo_bounded;
        ] );
      ( "serving",
        bitwise
        @ [
            Alcotest.test_case "tuner state miss -> tuned" `Quick test_serving_tuner_states;
            Alcotest.test_case "hot-path memos" `Quick test_hot_path_memos;
            Alcotest.test_case "tuned plan hit: one lookup" `Quick test_tuned_plan_lookup;
          ]
      );
    ]
