(* The CoRa-compiled encoder (padded, fused, split, predicated schedules and
   all) must compute exactly what the dense per-sequence reference does. *)

open Cora
open Transformer

let lens = [| 7; 5; 3; 2 |]
let cfg = Config.tiny ~lens
let lenv = Config.lenv cfg

(* Load reference weights into the CoRa weight tensors. *)
let bind_weights (t : Builder.tensors) (w : Reference.weights) =
  let fill_dense (tensor : Tensor.t) (a : float array) =
    let r = Ragged.alloc tensor lenv in
    Array.blit a 0 (Runtime.Buffer.floats r.Ragged.buf) 0 (Array.length a);
    r
  in
  [
    fill_dense t.Builder.wqkv w.Reference.wqkv;
    fill_dense t.Builder.bqkv w.Reference.bqkv;
    fill_dense t.Builder.w2 w.Reference.w2;
    fill_dense t.Builder.b2 w.Reference.b2;
    fill_dense t.Builder.wf1 w.Reference.wf1;
    fill_dense t.Builder.bf1 w.Reference.bf1;
    fill_dense t.Builder.wf2 w.Reference.wf2;
    fill_dense t.Builder.bf2 w.Reference.bf2;
  ]

let input_value b l j =
  sin (float_of_int ((b * 131) + (l * 17) + j)) *. 0.5

let run_encoder ?jtile ?ftile target =
  let built = Builder.build ?jtile ?ftile ~target cfg in
  let t = built.Builder.tensors in
  let w = Reference.random_weights cfg ~seed:42 in
  let weight_tensors = bind_weights t w in
  let data_tensors =
    List.map (fun tensor -> Ragged.alloc tensor lenv)
      [ t.Builder.in_t; t.Builder.qkv; t.Builder.scores; t.Builder.probs; t.Builder.attn;
        t.Builder.p2; t.Builder.ln1; t.Builder.f1; t.Builder.out ]
  in
  let rin = List.hd data_tensors in
  Ragged.fill rin (fun idx ->
      input_value (List.nth idx 0) (List.nth idx 1) (List.nth idx 2));
  let _ =
    Exec.run_ragged ~lenv ~tensors:(weight_tensors @ data_tensors) (Builder.kernels built)
  in
  (built, w, rin, data_tensors)

let check_against_reference ~label built w rin (out : Ragged.t) reference_of =
  let h = cfg.Config.hidden in
  ignore built;
  Array.iteri
    (fun b len ->
      let x = Array.make (len * h) 0.0 in
      for l = 0 to len - 1 do
        for j = 0 to h - 1 do
          x.((l * h) + j) <- Ragged.get rin [ b; l; j ]
        done
      done;
      let expect = reference_of x ~len in
      for l = 0 to len - 1 do
        for j = 0 to h - 1 do
          let got = Ragged.get out [ b; l; j ] in
          let want = expect.((l * h) + j) in
          if Float.abs (got -. want) > 1e-6 *. (1.0 +. Float.abs want) then
            Alcotest.failf "%s: mismatch at b=%d l=%d j=%d: got %.9f want %.9f" label b l j got
              want
        done
      done)
    lens;
  ignore w

let test_encoder ?jtile ?ftile target () =
  let built, w, rin, data = run_encoder ?jtile ?ftile target in
  let out = List.nth data 8 in
  check_against_reference ~label:"encoder" built w rin out (fun x ~len ->
      Reference.encoder cfg w x ~len)

(* MHA sub-pipeline alone (through Proj2 + residual). *)
let test_mha target () =
  let built, w, rin, data = run_encoder target in
  let p2 = List.nth data 5 in
  check_against_reference ~label:"mha" built w rin p2 (fun x ~len ->
      Reference.mha cfg w x ~len)

(* The bulk-padded fused-token gemm kernels must not touch memory outside
   their buffers even when batch totals don't divide the bulk multiple —
   exercised implicitly: interpreter loads/stores are bounds-checked. *)
let test_odd_batch () =
  let lens = [| 9; 1; 1 |] in
  let cfg = Config.tiny ~lens in
  let lenv = Config.lenv cfg in
  let built = Builder.build ~target:Builder.Gpu cfg in
  let t = built.Builder.tensors in
  let w = Reference.random_weights cfg ~seed:7 in
  let weight_tensors =
    let fill_dense (tensor : Tensor.t) (a : float array) =
      let r = Ragged.alloc tensor lenv in
      Array.blit a 0 (Runtime.Buffer.floats r.Ragged.buf) 0 (Array.length a);
      r
    in
    [
      fill_dense t.Builder.wqkv w.Reference.wqkv;
      fill_dense t.Builder.bqkv w.Reference.bqkv;
      fill_dense t.Builder.w2 w.Reference.w2;
      fill_dense t.Builder.b2 w.Reference.b2;
      fill_dense t.Builder.wf1 w.Reference.wf1;
      fill_dense t.Builder.bf1 w.Reference.bf1;
      fill_dense t.Builder.wf2 w.Reference.wf2;
      fill_dense t.Builder.bf2 w.Reference.bf2;
    ]
  in
  let data =
    List.map (fun tensor -> Ragged.alloc tensor lenv)
      [ t.Builder.in_t; t.Builder.qkv; t.Builder.scores; t.Builder.probs; t.Builder.attn;
        t.Builder.p2; t.Builder.ln1; t.Builder.f1; t.Builder.out ]
  in
  let rin = List.hd data in
  Ragged.fill rin (fun idx -> input_value (List.nth idx 0) (List.nth idx 1) (List.nth idx 2));
  let _ = Exec.run_ragged ~lenv ~tensors:(weight_tensors @ data) (Builder.kernels built) in
  let out = List.nth data 8 in
  Array.iteri
    (fun b len ->
      let h = cfg.Config.hidden in
      let x = Array.make (len * h) 0.0 in
      for l = 0 to len - 1 do
        for j = 0 to h - 1 do
          x.((l * h) + j) <- Ragged.get rin [ b; l; j ]
        done
      done;
      let expect = Reference.encoder cfg w x ~len in
      for l = 0 to len - 1 do
        for j = 0 to h - 1 do
          let got = Ragged.get out [ b; l; j ] in
          let want = expect.((l * h) + j) in
          if Float.abs (got -. want) > 1e-6 *. (1.0 +. Float.abs want) then
            Alcotest.failf "odd batch mismatch b=%d l=%d j=%d: %f vs %f" b l j got want
        done
      done)
    lens

(* Fig. 3's fusion-count claim: CoRa's compiler approach launches 9 kernels
   for the encoder layer where FasterTransformer needs 12 (it cannot fuse
   around its vendor-library gemms). *)
let test_kernel_counts () =
  let built = Builder.build ~target:Builder.Gpu cfg in
  Alcotest.(check int) "CoRa encoder = 9 kernels" 9 (List.length (Builder.kernels built));
  let s =
    Baselines.Frameworks.of_config ~batch:(Array.length lens) ~lens ~hidden:512 ~heads:8
      ~head_size:64 ~ff:2048
  in
  let ft = Baselines.Frameworks.ft_eff_encoder s in
  Alcotest.(check int) "FT-Eff = 12 kernels" 12
    (List.length ft.Baselines.Analytic.kernels)

let () =
  Alcotest.run "transformer"
    [
      ( "encoder",
        [
          (* the second input: gemm tiles off their defaults, as the
             schedule autotuner picks them *)
          Alcotest.test_case "gpu schedules vs reference" `Quick (fun () ->
              test_encoder Builder.Gpu ();
              test_encoder ~jtile:8 ~ftile:4 Builder.Gpu ());
          Alcotest.test_case "cpu schedules vs reference" `Quick (test_encoder Builder.Cpu);
          Alcotest.test_case "mha vs reference" `Quick (test_mha Builder.Gpu);
          Alcotest.test_case "odd batch sizes" `Quick test_odd_batch;
          Alcotest.test_case "Fig. 3 kernel counts (9 vs 12)" `Quick test_kernel_counts;
        ] );
    ]
