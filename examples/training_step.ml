(* A training step on ragged batches: forward SDPA, then its backward pass,
   both as CoRa programs — the setting the paper's memory study (§7.2
   "Memory Consumption", §D.5) motivates: forward activations are kept for
   the backward pass, and ragged storage shrinks them ~1.8x.

   Run with:  dune exec examples/training_step.exe *)

open Cora
open Transformer

let () =
  let lens = [| 9; 6; 3 |] in
  let cfg = Config.tiny ~lens in
  let lenv = Config.lenv cfg in
  let bwd = Backward.build cfg in
  Printf.printf "backward kernels: %s\n"
    (String.concat " · "
       (List.map (fun (k : Lower.kernel) -> k.Lower.kname) bwd.Backward.kernels));

  (* allocate, fill inputs, seed the saved probabilities via a forward
     softmax over random scores *)
  let tensors =
    List.map (fun tensor -> Ragged.alloc tensor lenv)
      [ bwd.Backward.qkv; bwd.Backward.probs; bwd.Backward.dout; bwd.Backward.dscores;
        bwd.Backward.dprobs; bwd.Backward.dq; bwd.Backward.dk; bwd.Backward.dv ]
  in
  let rqkv = List.nth tensors 0 and rprobs = List.nth tensors 1 and rdout = List.nth tensors 2 in
  Ragged.fill rqkv (fun idx ->
      sin (float_of_int ((17 * List.nth idx 0) + (5 * List.nth idx 1) + List.nth idx 2)) *. 0.4);
  Ragged.fill rdout (fun _ -> 1.0);
  (* uniform attention as the saved forward state, normalised per row *)
  Ragged.iter_indices rprobs (fun idx ->
      let b = List.nth idx 0 in
      Ragged.set rprobs idx (1.0 /. float_of_int lens.(b)));
  let env, prelude = Exec.run_ragged ~lenv ~tensors bwd.Backward.kernels in
  Printf.printf "executed %d flops; prelude built %d aux bytes\n"
    (Option.get env).Runtime.Interp.flops (Prelude.bytes prelude);
  let rdq = List.nth tensors 5 in
  Printf.printf "dQ[0][0][0][0..3] = %s\n"
    (String.concat " "
       (List.init 4 (fun k -> Printf.sprintf "%+.4f" (Ragged.get rdq [ 0; 0; 0; k ]))));

  (* paper-scale: simulated backward time, ragged vs fully padded batch *)
  print_endline "\nsimulated SDPA backward on the V100 model:";
  List.iter
    (fun (d : Workloads.Datasets.t) ->
      let lens = Workloads.Datasets.sample_sorted d ~batch:64 ~seed:1 in
      let ragged =
        Backward.time ~device:Machine.Device.v100 (Backward.build (Config.base ~lens))
      in
      let maxlen = Array.fold_left max 0 lens in
      let padded_lens = Workloads.Datasets.constant ~len:maxlen ~batch:64 in
      let padded =
        Backward.time ~device:Machine.Device.v100 (Backward.build (Config.base ~lens:padded_lens))
      in
      Printf.printf "  %-8s ragged %7.3f ms   fully padded %7.3f ms   (%.2fx saved)\n"
        d.Workloads.Datasets.name (ragged /. 1e6) (padded /. 1e6) (padded /. ragged))
    [ Workloads.Datasets.race; Workloads.Datasets.mnli; Workloads.Datasets.cola ];

  (* activation memory kept for the backward (Fig. 19's quantity) *)
  let lens = Workloads.Datasets.sample Workloads.Datasets.mnli ~batch:64 ~seed:1 in
  Printf.printf "\nforward activations kept for backward (MNLI, batch 64): ragged/dense = %.2f\n"
    (Analysis.Memory.ragged_to_dense_ratio Analysis.Flops.base lens ~seq_multiple:32
       ~bulk_multiple:64)
