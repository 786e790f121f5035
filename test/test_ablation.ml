(* Ablation variants must be numerically identical to the standard
   schedules — operation splitting, horizontal fusion and explicit
   pad-change kernels are performance transformations only.  Also covers
   load hoisting (same values, fewer auxiliary accesses) and the C code
   generator. *)

open Cora
open Transformer

let lens = [| 9; 6; 3; 1 |]
let cfg = Config.tiny ~lens
let lenv = Config.lenv cfg

(* run the standard MHA once, keep the probs/qkv inputs, then re-run AttnV
   variants over the same inputs and compare outputs *)
let setup () =
  let built = Builder.build ~target:Builder.Gpu cfg in
  let t = built.Builder.tensors in
  let w = Reference.random_weights cfg ~seed:5 in
  let fill_dense (tensor : Tensor.t) a =
    let r = Ragged.alloc tensor lenv in
    Array.blit a 0 (Runtime.Buffer.floats r.Ragged.buf) 0 (Array.length a);
    r
  in
  let weights =
    [
      fill_dense t.Builder.wqkv w.Reference.wqkv; fill_dense t.Builder.bqkv w.Reference.bqkv;
      fill_dense t.Builder.w2 w.Reference.w2; fill_dense t.Builder.b2 w.Reference.b2;
      fill_dense t.Builder.wf1 w.Reference.wf1; fill_dense t.Builder.bf1 w.Reference.bf1;
      fill_dense t.Builder.wf2 w.Reference.wf2; fill_dense t.Builder.bf2 w.Reference.bf2;
    ]
  in
  let data =
    List.map (fun tensor -> Ragged.alloc tensor lenv)
      [ t.Builder.in_t; t.Builder.qkv; t.Builder.scores; t.Builder.probs; t.Builder.attn;
        t.Builder.p2; t.Builder.ln1; t.Builder.f1; t.Builder.out ]
  in
  let rin = List.hd data in
  Ragged.fill rin (fun idx ->
      cos (float_of_int ((13 * List.nth idx 0) + (5 * List.nth idx 1) + List.nth idx 2)) *. 0.5);
  let _ = Exec.run_ragged ~lenv ~tensors:(weights @ data) (Builder.kernels built) in
  (built, weights, data)

let attn_of data = List.nth data 4

let test_attnv_variants_identical () =
  let built, weights, data = setup () in
  let t = built.Builder.tensors in
  let reference = Ragged.unpack (attn_of data) in
  List.iter
    (fun variant ->
      (* clear the attention output, re-run just the variant kernels *)
      let rattn = attn_of data in
      Runtime.Buffer.fill_float rattn.Ragged.buf 0.0;
      let launches =
        Ablation.attnv_variant cfg ~tensors:t ~target:Ablation.Gpu ~variant ~tile:4
      in
      let kernels = List.concat_map (fun (l : Machine.Launch.t) -> l.Machine.Launch.kernels) launches in
      let _ = Exec.run_ragged ~lenv ~tensors:(weights @ data) kernels in
      let got = Ragged.unpack rattn in
      Array.iteri
        (fun i x ->
          if Float.abs (x -. reference.(i)) > 1e-9 then
            Alcotest.failf "%s: mismatch at %d (%f vs %f)"
              (Ablation.split_variant_name variant) i x reference.(i))
        got)
    [ Ablation.No_split; Ablation.Split; Ablation.Split_hfused ]

let test_qkt_variants_identical () =
  let built, weights, data = setup () in
  let t = built.Builder.tensors in
  let rscores = List.nth data 2 in
  let reference = Ragged.unpack rscores in
  List.iter
    (fun variant ->
      Runtime.Buffer.fill_float rscores.Ragged.buf 0.0;
      let launches = Ablation.qkt_variant cfg ~tensors:t ~target:Ablation.Gpu ~variant ~tile:4 in
      let kernels = List.concat_map (fun (l : Machine.Launch.t) -> l.Machine.Launch.kernels) launches in
      let _ = Exec.run_ragged ~lenv ~tensors:(weights @ data) kernels in
      let got = Ragged.unpack rscores in
      Array.iteri
        (fun i x ->
          if Float.abs (x -. reference.(i)) > 1e-9 then
            Alcotest.failf "%s: mismatch at %d (%f vs %f)" (Ablation.qkt_variant_name variant) i
              x reference.(i))
        got)
    [ Ablation.Qkt_no_split; Ablation.Qkt_split1_hfused; Ablation.Qkt_split2_hfused ]

(* The unfused MHA (explicit AddPad / RemovePad kernels) must compute the
   same values as the fused one, checked against the dense reference. *)
let test_unfused_pads_identical () =
  let u = Ablation.mha_unfused_full cfg ~target:Ablation.Gpu in
  let built = u.Ablation.u_built in
  let t = built.Builder.tensors in
  let w = Reference.random_weights cfg ~seed:5 in
  let fill_dense (tensor : Tensor.t) a =
    let r = Ragged.alloc tensor lenv in
    Array.blit a 0 (Runtime.Buffer.floats r.Ragged.buf) 0 (Array.length a);
    r
  in
  let weights =
    [
      fill_dense t.Builder.wqkv w.Reference.wqkv; fill_dense t.Builder.bqkv w.Reference.bqkv;
      fill_dense t.Builder.w2 w.Reference.w2; fill_dense t.Builder.b2 w.Reference.b2;
    ]
  in
  let data =
    List.map (fun tensor -> Ragged.alloc tensor lenv)
      ([ t.Builder.in_t; t.Builder.qkv; t.Builder.scores; t.Builder.probs; t.Builder.attn;
         t.Builder.p2 ]
      @ u.Ablation.u_padded)
  in
  let rin = List.hd data in
  Ragged.fill rin (fun idx ->
      cos (float_of_int ((13 * List.nth idx 0) + (5 * List.nth idx 1) + List.nth idx 2)) *. 0.5);
  let _ = Exec.run_ragged ~lenv ~tensors:(weights @ data) u.Ablation.u_kernels in
  let h = cfg.Config.hidden in
  let p2 = List.nth data 5 in
  Array.iteri
    (fun b len ->
      let x = Array.make (len * h) 0.0 in
      for l = 0 to len - 1 do
        for j = 0 to h - 1 do
          x.((l * h) + j) <- Ragged.get rin [ b; l; j ]
        done
      done;
      let expect = Reference.mha cfg w x ~len in
      for l = 0 to len - 1 do
        for j = 0 to h - 1 do
          let got = Ragged.get p2 [ b; l; j ] in
          if Float.abs (got -. expect.((l * h) + j)) > 1e-6 then
            Alcotest.failf "unfused b=%d l=%d j=%d: %f vs %f" b l j got expect.((l * h) + j)
        done
      done)
    lens

(* load hoisting must not change results and must reduce the number of
   auxiliary (ufun) evaluations the interpreter performs *)
let test_hoisting_equivalence () =
  let run ~hoist =
    let built = Builder.build ~hoist ~target:Builder.Gpu cfg in
    let t = built.Builder.tensors in
    let w = Reference.random_weights cfg ~seed:5 in
    let fill_dense (tensor : Tensor.t) a =
      let r = Ragged.alloc tensor lenv in
      Array.blit a 0 (Runtime.Buffer.floats r.Ragged.buf) 0 (Array.length a);
      r
    in
    let weights =
      [
        fill_dense t.Builder.wqkv w.Reference.wqkv; fill_dense t.Builder.bqkv w.Reference.bqkv;
        fill_dense t.Builder.w2 w.Reference.w2; fill_dense t.Builder.b2 w.Reference.b2;
        fill_dense t.Builder.wf1 w.Reference.wf1; fill_dense t.Builder.bf1 w.Reference.bf1;
        fill_dense t.Builder.wf2 w.Reference.wf2; fill_dense t.Builder.bf2 w.Reference.bf2;
      ]
    in
    let data =
      List.map (fun tensor -> Ragged.alloc tensor lenv)
        [ t.Builder.in_t; t.Builder.qkv; t.Builder.scores; t.Builder.probs; t.Builder.attn;
          t.Builder.p2; t.Builder.ln1; t.Builder.f1; t.Builder.out ]
    in
    let rin = List.hd data in
    Ragged.fill rin (fun idx ->
        sin (float_of_int ((17 * List.nth idx 0) + (3 * List.nth idx 1) + List.nth idx 2)));
    let env, _ = Exec.run_ragged ~lenv ~tensors:(weights @ data) (Builder.kernels built) in
    (Ragged.unpack (List.nth data 8), (Option.get env).Runtime.Interp.loads)
  in
  let out_h, loads_h = run ~hoist:true in
  let out_n, loads_n = run ~hoist:false in
  Array.iteri
    (fun i x ->
      if Float.abs (x -. out_n.(i)) > 1e-9 then Alcotest.failf "hoist changed value at %d" i)
    out_h;
  Alcotest.(check bool) "hoisting reduces evaluated loads" true (loads_h < loads_n)

(* ---------------- code generation ---------------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_codegen_c () =
  let built = Builder.build ~target:Builder.Gpu cfg in
  let c = Codegen_c.kernel_to_string built.Builder.qkv_proj in
  Alcotest.(check bool) "function header" true (contains c "void QKVProj(");
  Alcotest.(check bool) "buffer params" true (contains c "float*");
  Alcotest.(check bool) "prelude total scalar" true (contains c "const int ftot");
  Alcotest.(check bool) "block annotation" true (contains c "blockIdx");
  let c2 = Codegen_c.kernel_to_string built.Builder.qkt in
  Alcotest.(check bool) "aux tables" true (contains c2 "const int*");
  Alcotest.(check bool) "predicated select" true (contains c2 "?");
  let p = Codegen_c.prelude_to_string built.Builder.qkv_proj.Lower.aux in
  Alcotest.(check bool) "prelude builder emitted as C" true (contains p "void build_psum_seq_p1(")

(* If a C compiler is available, the emitted translation unit must be
   syntactically valid C. *)
let test_codegen_compiles () =
  if Sys.command "which gcc > /dev/null 2>&1" <> 0 then ()
  else begin
    let built = Builder.build ~target:Builder.Gpu cfg in
    let c = Codegen_c.program_to_string ~name:"unit_test" (Builder.kernels built) in
    let path = Filename.temp_file "cora" ".c" in
    let oc = open_out path in
    output_string oc c;
    close_out oc;
    let rc = Sys.command (Printf.sprintf "gcc -fsyntax-only %s" (Filename.quote path)) in
    Sys.remove path;
    Alcotest.(check int) "gcc -fsyntax-only" 0 rc
  end

let test_codegen_cuda () =
  let built = Builder.build ~target:Builder.Gpu cfg in
  let c = Codegen_c.cuda_kernel_to_string built.Builder.qkt in
  Alcotest.(check bool) "global fn" true (contains c "__global__ void QKT(");
  Alcotest.(check bool) "blockIdx binding" true (contains c "= blockIdx.x;");
  Alcotest.(check bool) "runtime grid axis guarded" true (contains c "return;");
  Alcotest.(check bool) "restrict pointers" true (contains c "__restrict__")

let test_codegen_float_literals () =
  let c = Codegen_c.kernel_to_string (Builder.build ~target:Builder.Gpu cfg).Builder.softmax in
  Alcotest.(check bool) "neg infinity literal" true (contains c "-INFINITY");
  Alcotest.(check bool) "expf call" true (contains c "expf(")

let () =
  Alcotest.run "ablation"
    [
      ( "op-splitting",
        [
          Alcotest.test_case "attnv variants identical" `Quick test_attnv_variants_identical;
          Alcotest.test_case "qkt variants identical" `Quick test_qkt_variants_identical;
          Alcotest.test_case "unfused pad kernels identical" `Quick test_unfused_pads_identical;
        ] );
      ( "hoist+codegen",
        [
          Alcotest.test_case "hoisting equivalence" `Quick test_hoisting_equivalence;
          Alcotest.test_case "C generation" `Quick test_codegen_c;
          Alcotest.test_case "generated C compiles (gcc)" `Quick test_codegen_compiles;
          Alcotest.test_case "CUDA emission" `Quick test_codegen_cuda;
          Alcotest.test_case "C float literals" `Quick test_codegen_float_literals;
        ] );
    ]
