(* Bounds inference for fused vloops (§B.3) and the cost model's
   memoisation, which makes simulation-guided scheduling (§6) feasible. *)

open Cora

let psum = [| 0; 3; 4; 8; 10 |] (* rows of sizes 3,1,4,2 *)
let maps = Bounds.of_offsets psum

let test_axioms () =
  Alcotest.(check bool) "B.2 axioms over all indices" true (Bounds.axioms_hold maps ~rows:4)

let test_rule1 () =
  let f = Bounds.fused_of_pair maps ~o:{ lo = 1; hi = 2 } ~i:{ lo = 0; hi = 3 } in
  Alcotest.(check int) "f.lo = oif(1,0)" 3 f.Bounds.lo;
  Alcotest.(check int) "f.hi = oif(2,3)" 7 f.Bounds.hi

let test_rule2 () =
  (* f = 4 is the first element of row 2 (row 1 occupies only f = 3) *)
  let o = Bounds.outer_of_fused maps ~f:{ lo = 4; hi = 9 } in
  Alcotest.(check int) "o.lo" 2 o.Bounds.lo;
  Alcotest.(check int) "o.hi" 3 o.Bounds.hi;
  let o = Bounds.outer_of_fused maps ~f:{ lo = 3; hi = 3 } in
  Alcotest.(check int) "single row" 1 o.Bounds.lo

let test_rules34 () =
  (* spanning several rows: inner range = whole slice *)
  let i = Bounds.inner_of_fused maps ~f:{ lo = 2; hi = 6 } ~o:2 in
  Alcotest.(check int) "full slice lo" 0 i.Bounds.lo;
  Alcotest.(check int) "full slice hi" 3 i.Bounds.hi;
  (* within one row: exact sub-range *)
  let i = Bounds.inner_of_fused maps ~f:{ lo = 5; hi = 6 } ~o:2 in
  Alcotest.(check int) "sub lo" 1 i.Bounds.lo;
  Alcotest.(check int) "sub hi" 2 i.Bounds.hi

let test_fo_binary_search () =
  for f = 0 to 9 do
    let o = maps.Bounds.fo f in
    Alcotest.(check bool) "psum.(o) <= f < psum.(o+1)" true
      (psum.(o) <= f && f < psum.(o + 1))
  done

(* ---------------- autotune ---------------- *)

(* A tuned schedule (gemm tiles off their defaults, as the schedule
   autotuner picks them) still computes a correct projection. *)
let test_autotune_kernel_correct () =
  let lens = [| 6; 3; 1 |] in
  let cfg = Transformer.Config.tiny ~lens in
  let lenv = Transformer.Config.lenv cfg in
  let built =
    Transformer.Builder.build ~jtile:8 ~ftile:4 ~target:Transformer.Builder.Gpu cfg
  in
  let t = built.Transformer.Builder.tensors in
  let k = built.Transformer.Builder.qkv_proj in
  let h = cfg.Transformer.Config.hidden in
  let w = Transformer.Reference.random_weights cfg ~seed:2 in
  let fill_dense (tensor : Tensor.t) a =
    let r = Ragged.alloc tensor lenv in
    Array.blit a 0 (Runtime.Buffer.floats r.Ragged.buf) 0 (Array.length a);
    r
  in
  let rw = fill_dense t.Transformer.Builder.wqkv w.Transformer.Reference.wqkv in
  let rb = fill_dense t.Transformer.Builder.bqkv w.Transformer.Reference.bqkv in
  let rin = Ragged.alloc t.Transformer.Builder.in_t lenv in
  let rqkv = Ragged.alloc t.Transformer.Builder.qkv lenv in
  Ragged.fill rin (fun idx ->
      sin (float_of_int ((7 * List.nth idx 0) + (3 * List.nth idx 1) + List.nth idx 2)));
  let _ = Exec.run_ragged ~lenv ~tensors:[ rw; rb; rin; rqkv ] [ k ] in
  Array.iteri
    (fun b len ->
      for l = 0 to len - 1 do
        for j = 0 to (3 * h) - 1 do
          let expect = ref w.Transformer.Reference.bqkv.(j) in
          for kk = 0 to h - 1 do
            expect :=
              !expect
              +. (Ragged.get rin [ b; l; kk ] *. w.Transformer.Reference.wqkv.((j * h) + kk))
          done;
          let got = Ragged.get rqkv [ b; l; j ] in
          if Float.abs (got -. !expect) > 1e-9 then
            Alcotest.failf "tuned qkv mismatch b=%d l=%d j=%d" b l j
        done
      done)
    lens


(* The cost model memoises For-subtree compilation; on a transformer-sized
   pipeline the blocks of each kernel share their body subtree, so the
   memo hit rate must be substantial (it is what makes simulation feasible,
   §6). *)
let test_cost_model_memo_hits () =
  Obs.Metrics.reset ();
  let lens = Workloads.Datasets.sample_sorted Workloads.Datasets.squad ~batch:64 ~seed:1 in
  let cfg = Transformer.Config.base ~lens in
  let built = Transformer.Builder.build ~target:Transformer.Builder.Gpu cfg in
  ignore
    (Machine.Launch.pipeline ~device:Machine.Device.v100
       ~lenv:(Transformer.Config.lenv cfg)
       (Transformer.Builder.launches built));
  let hits = Obs.Metrics.value (Obs.Metrics.counter "cost_model.memo_hits") in
  let misses = Obs.Metrics.value (Obs.Metrics.counter "cost_model.memo_misses") in
  Alcotest.(check bool)
    (Printf.sprintf "nonzero memo hit rate (%d hits / %d misses)" hits misses)
    true (hits > 0)

let () =
  Alcotest.run "bounds-autotune"
    [
      ( "bounds (B.3)",
        [
          Alcotest.test_case "axioms" `Quick test_axioms;
          Alcotest.test_case "rule 1: pair -> fused" `Quick test_rule1;
          Alcotest.test_case "rule 2: fused -> outer" `Quick test_rule2;
          Alcotest.test_case "rules 3-4: fused -> inner" `Quick test_rules34;
          Alcotest.test_case "fo search invariant" `Quick test_fo_binary_search;
        ] );
      ( "autotune",
        [
          Alcotest.test_case "tuned kernel builds" `Quick test_autotune_kernel_correct;
          Alcotest.test_case "cost-model memoisation hits" `Quick test_cost_model_memo_hits;
        ] );
    ]
